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

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import smallgrp
from .errors import CapExceededError, InvalidConfigError, PropertyViolationError
from .gf import FieldCtx, FieldError, make_field
from .smallgrp import GROUP_ORDER_CAP

SUZUKI_DEGREE_CAP = 1001


# ---------------------------------------------------------------------------
# B2 in characteristic 2


class B2Group:
    """F^4 with the (r's, r's^2) cocycle; built through `b2_build`.

    Both laws read F's product table, taken once here (so F's order is at
    most gf.TABLE_ORDER_CAP): the scalar law its rows as lists of ints, the
    array law and the formulas the table itself, with its diagonal as the
    squares.
    """

    def __init__(self, ctx: FieldCtx):
        if ctx.p != 2:
            raise InvalidConfigError("this group law needs characteristic 2")
        self.ctx = ctx
        self.order = ctx.order**4
        self._mul = ctx.table_arrays()[1]
        self._sq = self._mul.diagonal()
        self._rows, self._sqs = self._mul.tolist(), self._sq.tolist()

    # group law ------------------------------------------------------

    def identity(self):
        return (0, 0, 0, 0)

    def mul(self, g, h):
        r, s, z1, z2 = g
        r2, s2, w1, w2 = h
        row = self._rows[r2]
        return (r ^ r2, s ^ s2, z1 ^ w1 ^ row[s], z2 ^ w2 ^ row[self._sqs[s]])

    def inverse(self, g):
        r, s, z1, z2 = g
        row = self._rows[r]
        return (r, s, z1 ^ row[s], z2 ^ row[self._sqs[s]])

    def commutator(self, g, h):
        gh = self.mul(g, h)
        hg = self.mul(h, g)
        return self.mul(self.inverse(hg), gh)

    # the same law on columns: g and h hold the four coordinates, each an int
    # or an integer array, and the arrays broadcast; `commutator` stays the reference

    def mul_batch(self, g, h):
        mul, sq = self._mul, self._sq
        (r, s, z1, z2), (r2, s2, w1, w2) = g, h
        return (r ^ r2, s ^ s2, z1 ^ w1 ^ mul[r2, s], z2 ^ w2 ^ mul[r2, sq[s]])

    def inverse_batch(self, g):
        r, s, z1, z2 = g
        return (r, s, z1 ^ self._mul[r, s], z2 ^ self._mul[r, self._sq[s]])

    def commutator_batch(self, g, h):
        """[x, y] for every pair of rows of g's and h's broadcast columns."""
        return self.mul_batch(self.inverse_batch(self.mul_batch(h, g)), self.mul_batch(g, h))

    # the two derived invariants, on ints or broadcasting arrays -----------

    def bimap(self, rs, rs2):
        """Central part of the commutator, straight from the formula."""
        mul, sq = self._mul, self._sq
        (r, s), (rt, st) = rs, rs2
        return (mul[r, st] ^ mul[rt, s], mul[r, sq[st]] ^ mul[rt, sq[s]])

    def phi(self, rs):
        """Squaring map: the central part of (r, s, *, *)^2."""
        r, s = rs
        return (self._mul[r, s], self._mul[r, self._sq[s]])

    # filtration -------------------------------------------------------

    def gamma3_labels(self):
        F = self.ctx
        return frozenset((0, 0, z1, z2) for z1 in F.elements() for z2 in F.elements())

    def gamma4_labels(self):
        return frozenset((0, 0, 0, z2) for z2 in self.ctx.elements())

    # materialization ---------------------------------------------------

    def labels(self):
        F = self.ctx
        for r in F.elements():
            for s in F.elements():
                for z1 in F.elements():
                    for z2 in F.elements():
                        yield (r, s, z1, z2)

    def group(self) -> smallgrp.SmallGroup:
        if self.order > GROUP_ORDER_CAP:
            raise CapExceededError("group order %d over cap %d" % (self.order, GROUP_ORDER_CAP))
        return smallgrp.SmallGroup(list(self.labels()), self.mul, name="B2 over GF(%d)" % self.ctx.order)


def b2_build(ctx: FieldCtx) -> B2Group:
    """Construct and validate the characteristic-2 B2 group over ctx."""
    g = B2Group(ctx)
    q = ctx.order
    if q <= 8:
        # the cocycle (r', s) -> (r's, r's^2) only sees r' and s, so checking
        # additivity over every (s, s~, r') and (r', r'', s) is the full
        # biadditivity check, and biadditivity gives associativity
        mul, sq = g._mul, g._sq
        x, y, t = np.ix_(range(q), range(q), range(q))
        if not ((mul[t, x ^ y] == mul[t, x] ^ mul[t, y])
                & (mul[t, sq[x ^ y]] == mul[t, sq[x]] ^ mul[t, sq[y]])).all():
            raise PropertyViolationError("cocycle is not additive in the left slot")
        if not ((mul[x ^ y, t] == mul[x, t] ^ mul[y, t])
                & (mul[sq[x] ^ sq[y], t] == mul[sq[x], t] ^ mul[sq[y], t])).all():
            raise PropertyViolationError("cocycle is not additive in the right slot")

        def agree(cols, want):  # cols everywhere equal to (0, 0, *want)
            return all(np.all(c == w) for c, w in zip(cols, (0, 0) + want))

        # every (r, s, 0, 0): its square, where phi vanishes, its commutators
        r, s = np.divmod(np.arange(q * q), q)
        pts, (z1, z2) = (r, s, 0, 0), g.phi((r, s))
        if not agree(g.mul_batch(pts, pts), (z1, z2)):
            raise PropertyViolationError("squares do not realize phi")
        if (((z1 == 0) & (z2 == 0)) != ((r == 0) | (s == 0))).any():
            raise PropertyViolationError("phi vanishes off the two singular lines")
        col = (r[:, None], s[:, None], 0, 0)
        if not agree(g.commutator_batch(col, pts), g.bimap(col[:2], (r, s))):
            raise PropertyViolationError("commutators do not realize the bimap")
    else:
        rng = random.Random(20201 + q)
        for _ in range(200):
            a, b, c = (
                tuple(rng.randrange(q) for _ in range(4)) for _ in range(3)
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


@functools.lru_cache(maxsize=1)  # holds the last Q: callers label one Q many times
def _label_array(Q: smallgrp.SmallGroup, q: int):
    """Q's labels as a read-only int16 [n, 4] array, checked to lie in GF(q)."""
    labs = np.fromiter(itertools.chain.from_iterable(Q.labels), np.int16, 4 * Q.n).reshape(Q.n, 4)
    if labs.min() < 0 or labs.max() >= q:
        raise InvalidConfigError("Q's labels are not quadruples over GF(%d)" % q)
    labs.setflags(write=False)
    return labs


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

    # the scans read Q's labels once, as four int64 columns: x -> [x, B_-1] and
    # x -> [x, A_0] are one batched commutator each, compared by the integer
    # code of the quadruple; the recurrence itself runs on labels
    comm = b2.commutator
    cols = tuple(_label_array(Q, q).T.astype(np.int64, order="C"))

    def code(quad):
        # of one quadruple, or of four columns
        return ((quad[0] * q + quad[1]) * q + quad[2]) * q + quad[3]

    def bracket_codes(h):
        return code(b2.commutator_batch(cols, h))

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


def _form(F: FieldCtx, x: int, xf: int, y: int, yf: int) -> int:
    # x*y^(2^(e+1)) + y*x^(2^(e+1)) over F_2^(2e+1), from x, y and their
    # images xf, yf under x -> x^(2^(e+1))
    return F.dot((x, y), (yf, xf))


def _degree(e: int) -> int:
    """2e + 1, once e >= 1 and 2e + 1 <= SUZUKI_DEGREE_CAP are checked."""
    if e < 1 or 2 * e + 1 > SUZUKI_DEGREE_CAP:
        raise InvalidConfigError("supported degrees are odd, 3..%d" % SUZUKI_DEGREE_CAP)
    return 2 * e + 1


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
    degree = _degree(e)
    F = make_field(2, degree)
    smax = _smax(degree)

    best = 0
    for start in range(budget):
        rng = random.Random("%s:%d" % (seed, start))
        S = [rng.randrange(1, F.order)]
        Sf = [F.frobenius(S[0], e + 1)]
        ech = BitEchelon()
        while len(S) < smax and ech.rank < degree:
            cand_count = 24 + 8 * len(S)
            gain_cap = min(len(S), degree - ech.rank)
            best_gain, best_cand, best_cf = -1, None, 0
            for _ in range(cand_count):
                c = rng.randrange(1, F.order)
                cf = F.frobenius(c, e + 1)
                probe = ech.copy()
                gain = 0
                for s, sf in zip(S, Sf):
                    if probe.add(_form(F, c, cf, s, sf)):
                        gain += 1
                if gain > best_gain:
                    best_gain, best_cand, best_cf = gain, c, cf
                if gain >= gain_cap:
                    break
            for s, sf in zip(S, Sf):
                ech.add(_form(F, best_cand, best_cf, s, sf))
            S.append(best_cand)
            Sf.append(best_cf)
        best = max(best, ech.rank)
        if ech.rank == degree:
            pairs = []
            check = BitEchelon()
            for i in range(len(S)):
                for j in range(i + 1, len(S)):
                    if check.add(_form(F, S[i], Sf[i], S[j], Sf[j])):
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
    degree = _degree(cert.e)  # before make_field: its modulus check grows faster than degree^2
    if len(cert.modulus) != degree + 1:
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
    S = cert.elements
    Sf = [F.frobenius(x, cert.e + 1) for x in S]
    ech = BitEchelon()
    for i, j in cert.pairs:
        ech.add(_form(F, S[i], Sf[i], S[j], Sf[j]))
    return ech.rank == degree
