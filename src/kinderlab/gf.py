"""Exact arithmetic in finite fields GF(p^e).

An element is a plain int in [0, p^e): its base-p digits are the coefficients
of the residue polynomial in the power basis, lowest degree first.  For p = 2
that makes an element a packed bit vector, which keeps multiplication usable
out to degree around 1000.

Fields of order up to 2^16 get exp/log tables and a verified multiplicative
generator at construction time.  Above that only p = 2 is expected in
practice (the Suzuki form searches) and arithmetic falls back to shift/xor
polynomial work; the generator is then computed lazily and only when
p^e - 1 is still within trial-division range.

The row kernels `axpy` (the list x - f*y) and `dot` (the sum of x_i y_i) pick
the arithmetic once per row: ints mod p over a prime field, XOR in characteristic
2 (exp/log for x - f*y, one reduction per `dot` without tables), else per entry.
"""

from __future__ import annotations

import functools
import operator
import random

import numpy as np

from . import arith
from .errors import InvalidConfigError

_SMALL_ORDER = 1 << 16
TABLE_ORDER_CAP = 512  # table_arrays' limit, so batch_rank's for non-prime orders


class FieldError(ValueError):
    """Invalid field parameters, reducible modulus, or bad element operation."""


# ---------------------------------------------------------------------------
# polynomial helpers over F_2, polynomials packed into ints (bit i = coeff of x^i)

def _clmul2(a: int, b: int) -> int:
    r = 0
    while b:
        low = b & -b
        r ^= a << (low.bit_length() - 1)
        b ^= low
    return r


def _mod2(a: int, f: int) -> int:
    fl = f.bit_length()
    while a.bit_length() >= fl:
        a ^= f << (a.bit_length() - fl)
    return a


def _mulmod2(a: int, b: int, f: int) -> int:
    return _mod2(_clmul2(a, b), f)


def _sqmod2(a: int, f: int) -> int:
    # squaring in char 2 moves bit i to bit 2i: the binary digits read in base 4
    # (power-of-two bases parse in linear time, exempt from the digit limit)
    return _mod2(int(bin(a)[2:], 4), f)


def _gcd2(a: int, b: int) -> int:
    while b:
        a, b = b, _mod2(a, b)
    return a


def _irreducible2(f: int, e: int) -> bool:
    """Rabin test for a monic degree-e polynomial over F_2 packed in f."""
    if e == 1:
        return True
    if not f & 1:
        return False
    subdegrees = {e // r for r, _ in arith.factorize(e)}
    t = 2  # the polynomial x
    checkpoints = {}
    for k in range(1, e + 1):
        t = _sqmod2(t, f)
        if k in subdegrees:
            checkpoints[k] = t
    if t != 2:
        return False
    for k in subdegrees:
        if _gcd2(f, checkpoints[k] ^ 2) != 1:
            return False
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over F_p, dense coefficient lists (index = degree)

def _pnorm(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _pnorm(out)


def _pmodpoly(a, f, p):
    """Remainder of a modulo monic f, both as coefficient lists."""
    a = list(a)
    d = len(f) - 1
    while len(a) > d:
        c = a[-1]
        if c:
            shift = len(a) - 1 - d
            for i in range(d):
                a[shift + i] = (a[shift + i] - c * f[i]) % p
        a.pop()
    return _pnorm(a)


def _pgcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        inv_lead = pow(b[-1], -1, p)
        bm = [(c * inv_lead) % p for c in b]
        a, b = b, _pmodpoly(a, bm, p)
    return a


def _ppowmod(base, k, f, p):
    result = [1]
    cur = list(base)
    while k:
        if k & 1:
            result = _pmodpoly(_pmul(result, cur, p), f, p)
        cur = _pmodpoly(_pmul(cur, cur, p), f, p)
        k >>= 1
    return result


def _irreducible_p(f, p: int, e: int) -> bool:
    if e == 1:
        return True
    if f[0] == 0:
        return False
    x = [0, 1]
    subdegrees = sorted({e // r for r, _ in arith.factorize(e)})
    t = list(x)
    checkpoints = {}
    for k in range(1, e + 1):
        t = _ppowmod(t, p, f, p)
        if k in subdegrees:
            checkpoints[k] = t
    if t != x:
        return False
    for k in subdegrees:
        diff = list(checkpoints[k])
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(list(f), _pnorm(diff), p)
        if len(g) != 1:
            return False
    return True


def _encode(digits, p: int) -> int:
    n = 0
    for d in reversed(digits):
        n = n * p + d
    return n


def _decode(n: int, p: int, e: int):
    out = []
    for _ in range(e):
        n, r = divmod(n, p)
        out.append(r)
    return out


# ---------------------------------------------------------------------------

class FieldCtx:
    """Arithmetic for GF(p^e) with int-encoded elements. Build via make_field."""

    def __init__(self, p: int, e: int, modulus: tuple):
        self.p = p
        self.e = e
        self.order = p**e
        self.modulus = tuple(modulus)
        self.zero = 0
        self.one = 1
        self._mod_int = _encode(self.modulus, 2) if p == 2 else None
        self._mod_digits = list(self.modulus)
        self._exp = None
        self._log = None
        self._primitive = None
        self._tables = None
        if self.order <= _SMALL_ORDER:
            self._build_log_tables()

    # -- raw structural multiplication, independent of any tables

    def _raw_mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if self.p == 2:
            return _mulmod2(a, b, self._mod_int)
        prod = _pmul(_decode(a, self.p, self.e), _decode(b, self.p, self.e), self.p)
        return _encode(_pmodpoly(prod, self._mod_digits, self.p) + [0] * self.e, self.p)

    def _raw_pow(self, a: int, k: int) -> int:
        r = 1
        cur = a
        while k:
            if k & 1:
                r = self._raw_mul(r, cur)
            cur = self._raw_mul(cur, cur)
            k >>= 1
        return r

    def _find_generator(self) -> int:
        """The least element whose powers cover the nonzero elements, certified
        by the primes dividing p^e - 1."""
        q1 = self.order - 1
        if q1 == 0:
            raise FieldError("empty field")
        try:
            prime_parts = [r for r, _ in arith.factorize(q1)]
        except InvalidConfigError as exc:
            raise FieldError(
                "cannot certify a generator: %d is out of factoring range" % q1
            ) from exc
        # 1 passes only in GF(2), where there are no primes to test
        for cand in range(1, self.order):
            if all(self._raw_pow(cand, q1 // r) != 1 for r in prime_parts):
                return cand
        raise FieldError("no multiplicative generator found (modulus reducible?)")

    def _build_log_tables(self):
        g = self._find_generator()
        q1 = self.order - 1
        exp = [1] * q1
        for i in range(1, q1):
            exp[i] = self._raw_mul(exp[i - 1], g)
        log = [None] * self.order
        for i, v in enumerate(exp):
            log[v] = i
        if any(log[v] is None for v in range(1, self.order)):
            raise FieldError("powers of %d do not cover the field (modulus reducible?)" % g)
        self._primitive = g
        self._exp = exp
        self._log = log

    # -- public surface

    @property
    def primitive(self) -> int:
        """A verified generator of the multiplicative group.

        For orders above 2^16 this needs p^e - 1 factored, which is only
        attempted lazily and fails loudly when out of trial-division range.
        """
        if self._primitive is None:
            self._primitive = self._find_generator()
        return self._primitive

    def check_element(self, a: int):
        if not isinstance(a, int) or not 0 <= a < self.order:
            raise FieldError("%r is not an element of GF(%d^%d)" % (a, self.p, self.e))

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        mult = 1
        while a or b:
            a, da = divmod(a, p)
            b, db = divmod(b, p)
            out += ((da + db) % p) * mult
            mult *= p
        return out

    def neg(self, a: int) -> int:
        if self.p == 2:
            return a
        if self.e == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        mult = 1
        while a:
            a, da = divmod(a, p)
            out += (-da) % p * mult
            mult *= p
        return out

    def sub(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        if self._log is not None:
            if a == 0 or b == 0:
                return 0
            q1 = self.order - 1
            return self._exp[(self._log[a] + self._log[b]) % q1]
        return self._raw_mul(a, b)

    # -- row kernels: the field's arithmetic is picked once per row, not per entry

    def axpy(self, x, f: int, y) -> list:
        """The list x - f*y.  Where f*y is formed, unequal lengths raise ValueError."""
        if self.e == 1:
            if self.p == 2:
                return [a ^ b for a, b in zip(x, y, strict=True)] if f else list(x)
            return [(a - f * b) % self.p for a, b in zip(x, y, strict=True)]
        if self.p == 2 and self._log is not None and f:  # x - f*y is x ^ f*y, by the tables
            exp, log, q1, lf = self._exp, self._log, self.order - 1, self._log[f]
            return [a ^ exp[(lf + log[b]) % q1] if b else a for a, b in zip(x, y, strict=True)]
        return [self.sub(a, self.mul(f, b)) for a, b in zip(x, y, strict=True)]

    def dot(self, x, y) -> int:
        """The sum of x_i * y_i."""
        if self.e == 1:
            return sum(map(operator.mul, x, y)) % self.p
        if self.p == 2 and self._log is None:  # reduction is F_2-linear: reduce the sum once
            return _mod2(functools.reduce(operator.xor, map(_clmul2, x, y), 0), self._mod_int)
        acc, add, mul = 0, operator.xor if self.p == 2 else self.add, self.mul
        for a, b in zip(x, y):
            if a and b:
                acc = add(acc, mul(a, b))
        return acc

    def inv(self, a: int) -> int:
        if a == 0:
            raise FieldError("division by zero")
        if self.e == 1:
            return pow(a, -1, self.p)
        if self._log is not None:
            q1 = self.order - 1
            return self._exp[(q1 - self._log[a]) % q1]
        return self._raw_pow(a, self.order - 2)

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        if a == 0:
            return 1 if k == 0 else 0
        if self._log is not None:
            q1 = self.order - 1
            return self._exp[(self._log[a] * k) % q1]
        return self._raw_pow(a, k)

    def frobenius(self, a: int, i: int = 1) -> int:
        """a -> a^(p^i); i may be any nonnegative int, reduced mod e."""
        if i < 0:
            raise FieldError("frobenius exponent must be >= 0")
        i %= self.e
        if i == 0 or a == 0 or a == 1:
            return a
        if self._log is not None:
            q1 = self.order - 1
            return self._exp[(self._log[a] * pow(self.p, i, q1)) % q1]
        if self.p == 2:
            for _ in range(i):
                a = _sqmod2(a, self._mod_int)
            return a
        return self._raw_pow(a, self.p**i)

    def to_vector(self, a: int) -> tuple:
        self.check_element(a)
        return tuple(_decode(a, self.p, self.e))

    def from_vector(self, vec) -> int:
        vec = tuple(vec)
        if len(vec) != self.e or any(not 0 <= c < self.p for c in vec):
            raise FieldError("coefficient vector must have %d entries in [0, %d)" % (self.e, self.p))
        return _encode(vec, self.p)

    def elements(self):
        return range(self.order)

    def random_element(self, rng: random.Random) -> int:
        return rng.randrange(self.order)

    def table_arrays(self):
        """(add, mul, neg, inv) int16 lookup tables, built once from the digits and exp/log."""
        if self._tables is None:
            if self.order > TABLE_ORDER_CAP:
                raise InvalidConfigError("lookup tables only built for order <= %d" % TABLE_ORDER_CAP)
            q, p = self.order, self.p
            digits = [np.arange(q) // p**i % p for i in range(self.e)]
            add = sum((d[:, None] + d) % p * p**i for i, d in enumerate(digits))
            log = np.array([0] + self._log[1:])
            exp = np.array(self._exp * 2)
            mul, inv = exp[log[:, None] + log], exp[q - 1 - log]
            mul[0] = mul[:, 0] = inv[0] = 0
            tables = (add, mul, (add == 0).argmax(axis=1), inv)
            self._tables = tuple(t.astype(np.int16) for t in tables)
        return self._tables

    def modulus_string(self) -> str:
        terms = []
        for i in range(self.e, -1, -1):
            c = 1 if i == self.e else self.modulus[i]
            if not c:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                base = "x" if i == 1 else "x^%d" % i
                terms.append(base if c == 1 else "%d*%s" % (c, base))
        return " + ".join(terms) if terms else "0"

    def validate(self) -> dict:
        """Re-check the construction invariants; returns a report dict."""
        irreducible = (
            _irreducible2(self._mod_int, self.e)
            if self.p == 2
            else _irreducible_p(self._mod_digits, self.p, self.e)
        )
        checks = {"modulus_irreducible": irreducible}
        if self._primitive is not None:
            q1 = self.order - 1
            ok = self._raw_pow(self._primitive, q1) == 1 and all(
                self._raw_pow(self._primitive, q1 // r) != 1
                for r, _ in arith.factorize(q1)
            ) if q1 > 1 else self._primitive == 1
            checks["primitive_order"] = bool(ok)
        rng = random.Random(0)
        roundtrip = all(
            self.from_vector(self.to_vector(a)) == a
            for a in (self.random_element(rng) for _ in range(32))
        )
        checks["vector_roundtrip"] = roundtrip
        return checks

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.e, self.modulus) == (other.p, other.e, other.modulus)
        )

    def __hash__(self):
        return hash((self.p, self.e, self.modulus))

    def __repr__(self):
        return "FieldCtx(GF(%d^%d), %s)" % (self.p, self.e, self.modulus_string())


def _default_modulus(p: int, e: int) -> tuple:
    """Smallest monic irreducible of degree e, ordered by integer encoding
    of the low coefficients.  Deterministic, and sparse in practice."""
    if e == 1:
        return (0, 1)
    if p == 2:
        top = 1 << e
        for low in range(1, top, 2):
            # even total weight means x+1 divides; skip early
            if (bin(low).count("1") + 1) % 2 == 0:
                continue
            if _irreducible2(top | low, e):
                return tuple((low >> i) & 1 for i in range(e)) + (1,)
        raise FieldError("no irreducible of degree %d found over F_2" % e)
    for low in range(1, p**e):
        if low % p == 0:
            continue
        f = _decode(low, p, e) + [1]
        if _irreducible_p(f, p, e):
            return tuple(f)
    raise FieldError("no irreducible of degree %d found over F_%d" % (e, p))


def make_field(p: int, e: int, modulus=None) -> FieldCtx:
    """Build GF(p^e).

    modulus, when given, is a length e+1 coefficient sequence (lowest degree
    first, monic) and is checked for irreducibility.
    """
    if not isinstance(p, int) or not arith.is_prime(p):
        raise FieldError("p must be prime, got %r" % (p,))
    if not isinstance(e, int) or e < 1:
        raise FieldError("e must be a positive int, got %r" % (e,))
    key = (p, e, None if modulus is None else tuple(int(c) for c in modulus))
    cached = _FIELD_CACHE.get(key)
    if cached is not None:
        return cached
    if modulus is None:
        modulus = _default_modulus(p, e)
    else:
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) != e + 1:
            raise FieldError("modulus must have %d coefficients" % (e + 1))
        if any(not 0 <= c < p for c in modulus):
            raise FieldError("modulus coefficients must lie in [0, %d)" % p)
        if modulus[-1] != 1:
            raise FieldError("modulus must be monic")
        if p == 2:
            ok = _irreducible2(_encode(modulus, 2), e)
        else:
            ok = _irreducible_p(list(modulus), p, e)
        if not ok:
            raise FieldError("supplied modulus is reducible")
    ctx = FieldCtx(p, e, modulus)
    if len(_FIELD_CACHE) < 256:  # a default field under its modulus too, as certificates name it
        _FIELD_CACHE[key] = _FIELD_CACHE[(p, e, ctx.modulus)] = ctx
    return ctx


_FIELD_CACHE: dict = {}


def make_field_from_order(q: int) -> FieldCtx:
    """Build the field of order q (q must be a prime power)."""
    if not isinstance(q, int) or q < 2:
        raise FieldError("order must be an integer >= 2, got %r" % (q,))
    fac = arith.factorize(q)
    if len(fac) != 1:
        raise FieldError("%d is not a prime power" % q)
    p, e = fac[0]
    return make_field(p, e)
