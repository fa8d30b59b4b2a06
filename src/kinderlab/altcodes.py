"""Code-indexed subgroups of (Sym_3)^k and permutation-equivalence counts.

Gamma_k is the k-fold direct power of the symmetric group on three
letters.  Its odd-order part C_3^k is the derived subgroup; the quotient
is F_2^k via the per-coordinate parity, so the subgroups containing
C_3^k are exactly the binary codes of length k.  The Hamming weight of a
coset survives as the order of a commutator subgroup, which makes it an
isomorphism invariant of the subgroup, and counting codes up to
coordinate permutation then counts subgroups up to isomorphism.

A binary code here is simply a `linalg.Subspace` over GF(2).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction

import numpy as np

from . import arith, smallgrp
from .errors import CapExceededError, InvalidConfigError, PropertyViolationError, require
from .gf import make_field
from .linalg import Subspace, enumerate_subspaces, gaussian_binomial

PERMS3 = tuple(itertools.permutations(range(3)))  # encoded 0..5, lex order
SIGN3 = tuple(
    sum(1 for i in range(3) for j in range(i + 1, 3) if p[i] > p[j]) % 2 for p in PERMS3
)
MUL3 = tuple(
    tuple(PERMS3.index(tuple(a[x] for x in b)) for b in PERMS3) for a in PERMS3
)
ELEMENT_CAP = 6**6


class GammaK:
    """(Sym_3)^k with its odd-order normal subgroup and the sign map."""

    def __init__(self, k: int, group: smallgrp.SmallGroup, gamma2_idx: tuple):
        self.k = k
        self.group = group
        self.gamma2_idx = gamma2_idx
        self._signs = {lab: tuple(SIGN3[c] for c in lab) for lab in group.labels}  # once per label

    def sign(self, label) -> tuple:
        return self._signs[label]

    def weight(self, label) -> int:
        return sum(self.sign(label))

    def __repr__(self):
        return "GammaK(k=%d, order %d)" % (self.k, self.group.n)


def _mul_tuple(g, h):
    return tuple(MUL3[x][y] for x, y in zip(g, h))


def build_gamma(k: int) -> GammaK:
    if k < 1:
        raise InvalidConfigError("need k >= 1")
    if 6**k > ELEMENT_CAP:
        raise CapExceededError("6^%d elements over cap %d" % (k, ELEMENT_CAP))
    labels = list(itertools.product(range(6), repeat=k))
    G = smallgrp.SmallGroup(labels, _mul_tuple, name="Gamma_%d" % k)
    odd = [i for i, lab in enumerate(labels) if all(SIGN3[c] == 0 for c in lab)]
    if len(odd) != 3**k:
        raise PropertyViolationError("odd-order part has the wrong size")
    # in Sym3^k the 3^k elements of order 1 or 3 are exactly C_3^k, so these
    # two checks make the odd part a subgroup
    for j in odd:
        if G.order_of(j) not in (1, 3):
            raise PropertyViolationError("odd part has an element of foreign order")
    # a transposition and a 3-cycle in each coordinate generate Gamma_k, and
    # conjugating by a generating set is enough to certify normality: for j in
    # the subgroup C_3^k, [j, i] = j^-1 (i^-1 j i) is odd exactly when i^-1 j i is
    gens = [G.index_of((0,) * c + (g,) + (0,) * (k - 1 - c))
            for c in range(k) for g in (PERMS3.index((0, 2, 1)), PERMS3.index((1, 2, 0)))]
    if len(G.closure_idx(gens)) != G.n:
        raise PropertyViolationError("the coordinate generators do not generate Gamma_k")
    in_odd = np.zeros(G.n, bool)
    in_odd[odd] = True
    if not in_odd[G.commutators(odd, gens)].all():
        raise PropertyViolationError("C_3^k is not normal")
    return GammaK(k, G, tuple(odd))


def subgroup_from_code(gamma: GammaK, code: Subspace) -> smallgrp.SmallGroup:
    """Full preimage of the code under the sign map, cut from Gamma_k."""
    if code.ambient_dim != gamma.k or code.ctx.order != 2:
        raise InvalidConfigError("code must live in F_2^k")
    signs = set(code.enumerate_vectors())
    members = [i for i, sign in enumerate(gamma._signs.values()) if sign in signs]  # label order
    H = gamma.group.cut(members, name="code subgroup")
    require(H.n == 3**gamma.k * 2**code.dim, "preimage has the wrong order")
    return H


@functools.lru_cache(maxsize=1)  # holds the last H: callers recover many of its elements in a row
def _odd_part(H: smallgrp.SmallGroup) -> list:
    return [i for i, o in enumerate(H.element_orders()) if o in (1, 3)]


def hamming_recover(H: smallgrp.SmallGroup, h) -> int:
    """log_3 |<[h, g] : g in the odd-order part>|.

    Everything is read off the abstract multiplication, so the answer
    cannot depend on how H sits inside Gamma_k; it equals the Hamming
    weight of the sign image of h.
    """
    try:
        hi = H.index_of(h)
    except KeyError:
        raise InvalidConfigError("h is not an element of H") from None
    cube = _odd_part(H)
    if len(cube) != 3 ** arith.nu_p(H.n, 3):
        raise InvalidConfigError("H does not contain the full odd-order part")
    sub = H.span_idx(H.commutators([hi], cube)[0].tolist())
    w = round(math.log(len(sub), 3))
    if 3**w != len(sub):
        raise PropertyViolationError("commutator subgroup is not a 3-power")
    return w


# ---------------------------------------------------------------------------
# codes up to coordinate permutation


def _mask_set(space: Subspace, k: int) -> frozenset:
    return frozenset(sum(b << i for i, b in enumerate(vec)) for vec in space.enumerate_vectors())


def _swap_bits(m: int, i: int, j: int) -> int:
    bi = (m >> i) & 1
    bj = (m >> j) & 1
    if bi == bj:
        return m
    return m ^ (1 << i) ^ (1 << j)


def _orbits(k: int, l: int):
    """Partition the l-dim subspaces of F_2^k into coordinate-permutation orbits."""
    if k < 1 or l < 0 or l > k:
        raise InvalidConfigError("need k >= 1 and 0 <= l <= k")
    if k > 6:
        raise CapExceededError("orbit enumeration capped at k = 6")
    ctx = make_field(2, 1)
    spaces = list(enumerate_subspaces(k, l, ctx))
    masks = [_mask_set(s, k) for s in spaces]
    index = {m: i for i, m in enumerate(masks)}
    seen = set()
    orbits = []
    for start in masks:
        if start in seen:
            continue
        orbit = {start}
        queue = [start]
        while queue:
            cur = queue.pop()
            for i in range(k - 1):
                nxt = frozenset(_swap_bits(m, i, i + 1) for m in cur)
                if nxt not in orbit:
                    orbit.add(nxt)
                    queue.append(nxt)
        seen |= orbit
        orbits.append(sorted(index[m] for m in orbit))
    return spaces, orbits


def code_class_table(k: int, l: int) -> dict:
    """JSON-ready table: canonical generator matrix and size of each class;
    PropertyViolationError if the orbits fall below the permutation bound, do
    not partition the subspaces, or have a size that does not divide k!."""
    spaces, orbits = _orbits(k, l)
    count, bound = len(orbits), Fraction(2 ** (l * (k - l)), math.factorial(k))
    if count < math.ceil(bound):
        raise PropertyViolationError("orbit count fell below the permutation bound")
    total = gaussian_binomial(k, l, 2)
    require(sum(map(len, orbits)) == total, "orbit sizes do not add up to the subspace count")
    require(all(math.factorial(k) % len(orbit) == 0 for orbit in orbits), "an orbit size does not divide k!")
    classes = []
    for orbit in orbits:
        canon = min(spaces[i].basis for i in orbit)
        classes.append(
            {
                "size": len(orbit),
                "generators": [list(row) for row in canon],
            }
        )
    classes.sort(key=lambda c: c["generators"])
    return {
        "k": k,
        "l": l,
        "subspaces": total,
        "classes": count,
        "bound": {"numerator": bound.numerator, "denominator": bound.denominator},
        "table": classes,
    }
