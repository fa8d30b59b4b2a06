"""Characteristic-2 groups of type B2 and the Suzuki span search.

The B2 piece realizes the class-3 unipotent group as F^4 with the
cocycle product

    (r, s, z1, z2)(r', s', z1', z2') = (r+r', s+s', z1+z1'+r's, z2+z2'+r's^2),

whose commutator bimap and squaring map are the invariants everything
else hangs on.  `b2_labels` runs the recurrence that rebuilds the field
identification of the center from group multiplication alone.

The Suzuki piece searches for small subsets S of F_{2^(2e+1)} whose form
values x*y^(2^(e+1)) + y*x^(2^(e+1)) span the field, and packages the
result as a portable, independently checkable certificate.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import smallgrp
from .errors import CapExceededError, InvalidConfigError, PropertyViolationError
from .gf import FieldCtx, FieldError, make_field
from .linalg import Subspace

GROUP_ORDER_CAP = 1 << 14
SUZUKI_DEGREE_CAP = 1001


# ---------------------------------------------------------------------------
# B2 in characteristic 2


class B2Group:
    """F^4 with the (r's, r's^2) cocycle; built through `b2_build`."""

    def __init__(self, ctx: FieldCtx):
        if ctx.p != 2:
            raise InvalidConfigError("this group law needs characteristic 2")
        self.ctx = ctx
        self.order = ctx.order**4

    # group law ------------------------------------------------------

    def identity(self):
        return (0, 0, 0, 0)

    def mul(self, g, h):
        F = self.ctx
        r, s, z1, z2 = g
        r2, s2, w1, w2 = h
        return (
            r ^ r2,
            s ^ s2,
            z1 ^ w1 ^ F.mul(r2, s),
            z2 ^ w2 ^ F.mul(r2, F.mul(s, s)),
        )

    def inverse(self, g):
        F = self.ctx
        r, s, z1, z2 = g
        return (r, s, z1 ^ F.mul(r, s), z2 ^ F.mul(r, F.mul(s, s)))

    def commutator(self, g, h):
        gh = self.mul(g, h)
        hg = self.mul(h, g)
        return self.mul(self.inverse(hg), gh)

    # the same law on [..., 4] integer arrays, through the field's lookup
    # tables (order <= 512); `commutator` stays the reference

    def mul_batch(self, g, h):
        mul = self.ctx.table_arrays()[1]
        r, s, z1, z2 = (g[..., k] for k in range(4))
        r2, s2, w1, w2 = (h[..., k] for k in range(4))
        return np.stack(
            (r ^ r2, s ^ s2, z1 ^ w1 ^ mul[r2, s], z2 ^ w2 ^ mul[r2, mul[s, s]]), axis=-1
        )

    def inverse_batch(self, g):
        mul = self.ctx.table_arrays()[1]
        r, s, z1, z2 = (g[..., k] for k in range(4))
        return np.stack((r, s, z1 ^ mul[r, s], z2 ^ mul[r, mul[s, s]]), axis=-1)

    def commutator_batch(self, g, h):
        """[x, y] for every row pair of g and h, which broadcast like arrays."""
        return self.mul_batch(self.inverse_batch(self.mul_batch(h, g)), self.mul_batch(g, h))

    # the two derived invariants --------------------------------------

    def bimap(self, rs, rs2):
        """Central part of the commutator, straight from the formula."""
        F = self.ctx
        r, s = rs
        rt, st = rs2
        return (
            F.mul(r, st) ^ F.mul(rt, s),
            F.mul(r, F.mul(st, st)) ^ F.mul(rt, F.mul(s, s)),
        )

    def phi(self, rs):
        """Squaring map: the central part of (r, s, *, *)^2."""
        F = self.ctx
        r, s = rs
        return (F.mul(r, s), F.mul(r, F.mul(s, s)))

    # filtration -------------------------------------------------------

    def gamma2_labels(self):
        F = self.ctx
        return frozenset(
            (r, 0, z1, z2) for r in F.elements() for z1 in F.elements() for z2 in F.elements()
        )

    def gamma3_labels(self):
        F = self.ctx
        return frozenset((0, 0, z1, z2) for z1 in F.elements() for z2 in F.elements())

    def gamma4_labels(self):
        return frozenset((0, 0, 0, z2) for z2 in self.ctx.elements())

    # materialization ---------------------------------------------------

    def labels(self, s_values=None):
        F = self.ctx
        svals = list(F.elements()) if s_values is None else list(s_values)
        for r in F.elements():
            for s in svals:
                for z1 in F.elements():
                    for z2 in F.elements():
                        yield (r, s, z1, z2)

    def group(self, cap=GROUP_ORDER_CAP) -> smallgrp.SmallGroup:
        if self.order > cap:
            raise CapExceededError("group order %d over cap %d" % (self.order, cap))
        return smallgrp.SmallGroup(list(self.labels()), self.mul, name="B2 over GF(%d)" % self.ctx.order)

    def kind(self, code: Subspace, cap=GROUP_ORDER_CAP) -> smallgrp.SmallGroup:
        """Subgroup between Gamma_2 and the whole group: s ranges over a code."""
        F = self.ctx
        if code.ambient_dim != F.e or code.ctx.order != 2:
            raise InvalidConfigError("kind code must be an F_2 subspace of the field")
        svals = [F.from_vector(v) for v in code.enumerate_vectors()]
        n = F.order**3 * len(svals)
        if n > cap:
            raise CapExceededError("kind order %d over cap %d" % (n, cap))
        return smallgrp.SmallGroup(
            list(self.labels(s_values=svals)), self.mul, name="B2 kind dim %d" % code.dim
        )


def b2_build(ctx: FieldCtx) -> B2Group:
    """Construct and validate the characteristic-2 B2 group over ctx."""
    g = B2Group(ctx)
    F = ctx
    if F.order <= 8:
        # the cocycle (r', s) -> (r's, r's^2) only sees r' and s, so checking
        # additivity over every (s, s~, r') and (r', r'', s) is the full
        # biadditivity check, and biadditivity gives associativity
        for s in F.elements():
            for st in F.elements():
                for r2 in F.elements():
                    lhs = (F.mul(r2, s ^ st), F.mul(r2, F.mul(s ^ st, s ^ st)))
                    rhs = (
                        F.mul(r2, s) ^ F.mul(r2, st),
                        F.mul(r2, F.mul(s, s)) ^ F.mul(r2, F.mul(st, st)),
                    )
                    if lhs != rhs:
                        raise PropertyViolationError("cocycle is not additive in the left slot")
                    lhs2 = (F.mul(s ^ st, r2), F.mul(F.mul(s, s) ^ F.mul(st, st), r2))
                    rhs2 = (F.mul(s, r2) ^ F.mul(st, r2), F.mul(F.mul(s, s), r2) ^ F.mul(F.mul(st, st), r2))
                    if lhs2 != rhs2:
                        raise PropertyViolationError("cocycle is not additive in the right slot")
        for r in F.elements():
            for s in F.elements():
                gg = (r, s, 0, 0)
                sq = g.mul(gg, gg)
                if (sq[0], sq[1]) != (0, 0) or (sq[2], sq[3]) != g.phi((r, s)):
                    raise PropertyViolationError("squares do not realize phi")
                if (g.phi((r, s)) == (0, 0)) != (r == 0 or s == 0):
                    raise PropertyViolationError("phi vanishes off the two singular lines")
                for rt in F.elements():
                    for st in F.elements():
                        c = g.commutator((r, s, 0, 0), (rt, st, 0, 0))
                        if (c[0], c[1]) != (0, 0) or (c[2], c[3]) != g.bimap((r, s), (rt, st)):
                            raise PropertyViolationError("commutators do not realize the bimap")
    else:
        rng = random.Random(20201 + F.order)
        for _ in range(200):
            a, b, c = (
                tuple(rng.randrange(F.order) for _ in range(4)) for _ in range(3)
            )
            if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c)):
                raise PropertyViolationError("product is not associative")
    return g


class B2Labeling(NamedTuple):
    a_series: dict
    gamma4: frozenset
    complement: frozenset
    coset_value: dict
    q_image: frozenset


def b2_labels(b2: B2Group, Q: smallgrp.SmallGroup, A: dict, B: dict) -> B2Labeling:
    """Recover the field identification of the center from (Q, A_i, B_i).

    A and B map the indexes -1, 0, 1 to representatives of the cosets of
    (omega^i, 0) and (0, omega^i).  Everything downstream only consults
    the multiplication of Q; the recurrence

        [A_{k+1}, B_{-1}][A_k, B_0] = [A_{k-2}, B_1][A_{k-1}, B_0]

    is solved by taking the first x of Q, in label order, with the required
    [x, B_{-1}], so each A_{k+1} is pinned exactly up to the centralizer of
    B_{-1}, which the later commutators cannot see.
    """
    F = b2.ctx
    q = F.order
    if F.e < 2:
        raise InvalidConfigError("the labeling needs omega to generate a proper extension")
    omega = F.primitive

    def opow(k):
        return F.pow(omega, k % (q - 1))

    for i in (-1, 0, 1):
        if i not in A or i not in B:
            raise InvalidConfigError("representatives required for indexes -1, 0, 1")
        try:
            Q.index_of(A[i])
            Q.index_of(B[i])
        except KeyError:
            raise InvalidConfigError("a representative is not an element of Q") from None
        if (A[i][0], A[i][1]) != (opow(i), 0):
            raise InvalidConfigError("A_%d does not represent the (omega^%d, 0) coset" % (i, i))
        if (B[i][0], B[i][1]) != (0, opow(i)):
            raise InvalidConfigError("B_%d does not represent the (0, omega^%d) coset" % (i, i))

    # the scans read Q's labels once as an [n, 4] array: x -> [x, B_-1] and
    # x -> [x, A_0] are one batched commutator each, compared by the integer
    # code of the quadruple; the recurrence itself runs on labels
    comm = b2.commutator
    labs = np.array(Q.labels, dtype=np.int16).reshape(Q.n, 4)
    if labs.min() < 0 or labs.max() >= q:
        raise InvalidConfigError("Q's labels are not quadruples over GF(%d)" % q)

    def code(quad):
        # of one quadruple, or of each column of a [4, n] array
        return ((quad[0] * q + quad[1]) * q + quad[2]) * q + quad[3]

    def bracket_codes(h):
        brackets = b2.commutator_batch(labs, np.array(h, dtype=np.int16))
        return code(brackets.T.astype(np.int64))

    # the first x in Q's order with each value of [x, B_-1], as a scan finds it
    values, first = np.unique(bracket_codes(B[-1]), return_index=True)
    first_hit = dict(zip(values.tolist(), first.tolist()))

    a_lab = dict(A)
    for k in range(1, q - 1):
        target = b2.mul(
            comm(a_lab[k - 2], B[1]),
            b2.mul(comm(a_lab[k - 1], B[0]), b2.inverse(comm(a_lab[k], B[0]))),
        )
        found = first_hit.get(code(target))
        if found is None:
            raise PropertyViolationError(
                "recurrence has no solution at step %d: the kind is too small" % (k + 1)
            )
        a_lab[k + 1] = Q.labels[found]
    # cycle closure: A_{q-1} must commute with the B's exactly like A_0
    if comm(a_lab[q - 2 + 1], B[0]) != comm(a_lab[0], B[0]):
        raise PropertyViolationError("recurrence did not close up after a full cycle")

    pair_g4 = [
        b2.mul(comm(a_lab[k + 1], B[-1]), comm(a_lab[k], B[0])) for k in range(0, q - 1)
    ]
    pair_comp = [
        b2.mul(comm(a_lab[k + 1], B[-1]), comm(a_lab[k - 1], B[0])) for k in range(0, q - 1)
    ]
    gamma4 = frozenset(smallgrp.SmallGroup.from_generators(b2.mul, pair_g4).labels)
    complement = frozenset(smallgrp.SmallGroup.from_generators(b2.mul, pair_comp).labels)

    # label Gamma_3 / Gamma_4 by omega powers through the [A_k, B_0] cosets
    coset_value = {lab: 0 for lab in gamma4}
    for k in range(q - 1):
        rep = comm(a_lab[k], B[0])
        val = opow(k)
        for z in gamma4:
            lab = b2.mul(rep, z)
            if coset_value.get(lab, val) != val:
                raise PropertyViolationError("omega labels collide on a coset")
            coset_value[lab] = val
    if len(coset_value) != q * q:
        raise PropertyViolationError("omega labels do not tile the center")

    # the payoff: Q maps onto an additive subgroup of F
    value_of = {code(lab): val for lab, val in coset_value.items()}
    image = {value_of[c] for c in np.unique(bracket_codes(A[0])).tolist()}
    return B2Labeling(
        a_series=dict(sorted(a_lab.items())),
        gamma4=gamma4,
        complement=complement,
        coset_value=coset_value,
        q_image=frozenset(image),
    )


# ---------------------------------------------------------------------------
# Suzuki span certificates


class BitEchelon:
    """Row echelon over F_2 with rows packed into ints."""

    def __init__(self):
        self.rows = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, v: int) -> int:
        while v:
            piv = v.bit_length() - 1
            row = self.rows.get(piv)
            if row is None:
                return v
            v ^= row
        return 0

    def add(self, v: int) -> bool:
        v = self.reduce(v)
        if not v:
            return False
        self.rows[v.bit_length() - 1] = v
        return True

    def copy(self) -> "BitEchelon":
        out = BitEchelon()
        out.rows = dict(self.rows)
        return out


def suzuki_form(F: FieldCtx, x: int, y: int) -> int:
    """x*y^(2^(e+1)) + y*x^(2^(e+1)) over F_2^(2e+1)."""
    if F.p != 2 or F.e % 2 == 0:
        raise InvalidConfigError("the form lives over F_2 fields of odd degree")
    e = (F.e - 1) // 2
    return F.mul(x, F.frobenius(y, e + 1)) ^ F.mul(y, F.frobenius(x, e + 1))


def _smax(degree: int) -> int:
    # 3 * ceil(sqrt(degree))
    r = math.isqrt(degree)
    return 3 * (r if r * r == degree else r + 1)


@dataclass(frozen=True)
class SpanCertificate:
    e: int
    modulus: tuple
    elements: tuple
    pairs: tuple

    @property
    def degree(self) -> int:
        return 2 * self.e + 1

    def to_json(self) -> str:
        return json.dumps(
            {
                "e": self.e,
                "modulus": list(self.modulus),
                "elements": ["%x" % v for v in self.elements],
                "pairs": [list(p) for p in self.pairs],
                "s_bound": _smax(self.degree),
            },
            indent=1,
        )

    @classmethod
    def from_json(cls, text: str) -> "SpanCertificate":
        try:
            raw = json.loads(text)
            e = int(raw["e"])
            modulus = tuple(int(c) for c in raw["modulus"])
            elements = tuple(int(v, 16) for v in raw["elements"])
            pairs = tuple((int(p[0]), int(p[1])) for p in raw["pairs"])
        except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
            raise InvalidConfigError("malformed certificate: %s" % exc) from None
        return cls(e=e, modulus=modulus, elements=elements, pairs=pairs)


class SearchFailure(NamedTuple):
    e: int
    s_bound: int
    best_rank: int
    needed: int
    restarts: int


def suzuki_search(e: int, budget: int = 40, seed=0):
    """Seeded greedy search for a spanning S; certificate or failure report.

    Each restart grows S one element at a time, taking the candidate whose
    form values against the current S add the most rank.  Failure is
    inconclusive by design.
    """
    degree = 2 * e + 1
    if e < 1 or degree > SUZUKI_DEGREE_CAP:
        raise InvalidConfigError("supported degrees are odd, 3..%d" % SUZUKI_DEGREE_CAP)
    F = make_field(2, degree)
    smax = _smax(degree)

    # x -> x^(2^(e+1)) is F_2-linear; fold precomputed basis images instead
    # of squaring e+1 times per evaluation
    fr_rows = [F.frobenius(1 << j, e + 1) for j in range(degree)]

    def frob_fast(x: int) -> int:
        acc = 0
        while x:
            low = x & -x
            acc ^= fr_rows[low.bit_length() - 1]
            x ^= low
        return acc

    def form(x, xf, y, yf):
        return F.mul(x, yf) ^ F.mul(y, xf)

    best = 0
    for start in range(budget):
        rng = random.Random("%s:%d" % (seed, start))
        S = [rng.randrange(1, F.order)]
        Sf = [frob_fast(S[0])]
        ech = BitEchelon()
        while len(S) < smax and ech.rank < degree:
            cand_count = 24 + 8 * len(S)
            gain_cap = min(len(S), degree - ech.rank)
            best_gain, best_cand, best_cf = -1, None, 0
            for _ in range(cand_count):
                c = rng.randrange(1, F.order)
                cf = frob_fast(c)
                probe = ech.copy()
                gain = 0
                for s, sf in zip(S, Sf):
                    if probe.add(form(c, cf, s, sf)):
                        gain += 1
                if gain > best_gain:
                    best_gain, best_cand, best_cf = gain, c, cf
                if gain >= gain_cap:
                    break
            for s, sf in zip(S, Sf):
                ech.add(form(best_cand, best_cf, s, sf))
            S.append(best_cand)
            Sf.append(best_cf)
        best = max(best, ech.rank)
        if ech.rank == degree:
            pairs = []
            check = BitEchelon()
            for i in range(len(S)):
                for j in range(i + 1, len(S)):
                    if check.add(form(S[i], Sf[i], S[j], Sf[j])):
                        pairs.append((i, j))
                    if check.rank == degree:
                        break
                if check.rank == degree:
                    break
            cert = SpanCertificate(
                e=e, modulus=F.modulus, elements=tuple(S), pairs=tuple(pairs)
            )
            if not suzuki_verify(cert):
                raise PropertyViolationError("search produced a certificate that fails to verify")
            return cert
    return SearchFailure(e=e, s_bound=smax, best_rank=best, needed=degree, restarts=budget)


def suzuki_verify(cert: SpanCertificate) -> bool:
    """Recheck a certificate from scratch; malformed input raises instead."""
    if not isinstance(cert, SpanCertificate):
        raise InvalidConfigError("not a span certificate")
    degree = 2 * cert.e + 1
    if cert.e < 1 or len(cert.modulus) != degree + 1:
        raise InvalidConfigError("modulus length does not match the declared degree")
    try:
        F = make_field(2, degree, modulus=cert.modulus)
    except (FieldError, InvalidConfigError) as exc:
        raise InvalidConfigError("certificate modulus is unusable: %s" % exc) from None
    for v in cert.elements:
        if not isinstance(v, int) or not 0 <= v < F.order:
            raise InvalidConfigError("certificate lists a non-element")
    for i, j in cert.pairs:
        if not (0 <= i < len(cert.elements) and 0 <= j < len(cert.elements)):
            raise InvalidConfigError("certificate pair index out of range")
    # claim checks: evaluable falsehoods return False
    if len(cert.elements) > _smax(degree):
        return False
    if len(cert.pairs) != degree:
        return False
    ech = BitEchelon()
    for i, j in cert.pairs:
        ech.add(suzuki_form(F, cert.elements[i], cert.elements[j]))
    return ech.rank == degree
