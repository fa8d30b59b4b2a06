"""Integer arithmetic helpers: valuations and subgroup-count bounds."""

from __future__ import annotations

import math

from .errors import InvalidConfigError

# Trial division only; enough for desk scale inputs (orders of small groups,
# p^e - 1 for the fields we actually enumerate).
_TRIAL_LIMIT = 10**7


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as a list of (prime, exponent) pairs."""
    if n < 1:
        raise InvalidConfigError("factorize needs n >= 1, got %r" % (n,))
    out = []
    rest = n
    f = 2
    while f * f <= rest:
        if f > _TRIAL_LIMIT:
            raise InvalidConfigError("factorize: %d is beyond trial division range" % n)
        if rest % f == 0:
            k = 0
            while rest % f == 0:
                rest //= f
                k += 1
            out.append((f, k))
        f += 1 if f == 2 else 2
    if rest > 1:
        out.append((rest, 1))
    return out


def nu_p(n: int, p: int) -> int:
    """Largest k with p^k dividing n."""
    if n == 0:
        raise InvalidConfigError("nu_p undefined at 0")
    if p < 2:
        raise InvalidConfigError("nu_p needs p >= 2")
    n = abs(n)
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def mu(n: int) -> int:
    """Maximum prime-power exponent in n, i.e. max_p nu_p(n). mu(1) = 0."""
    if n < 1:
        raise InvalidConfigError("mu needs n >= 1")
    if n == 1:
        return 0
    return max(k for _, k in factorize(n))


def legendre_valuation(k: int, p: int) -> int:
    """nu_p(k!) via the floor-sum formula; always < k/(p-1)."""
    if k < 0 or not is_prime(p):
        raise InvalidConfigError("legendre_valuation needs k >= 0 and p prime")
    total = 0
    q = p
    while q <= k:
        total += k // q
        q *= p
    return total


def wall_log_bound(n: int) -> float:
    """log2 of the subgroup-count bound n^(mu(n)+1), i.e. (mu(n)+1) * log2(n).

    Usable as: number of subgroups of any group of order n is at most
    2**wall_log_bound(n).
    """
    if n < 1:
        raise InvalidConfigError("wall_log_bound needs n >= 1")
    if n == 1:
        return 0.0
    return (mu(n) + 1) * math.log2(n)
