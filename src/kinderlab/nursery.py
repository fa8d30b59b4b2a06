"""Module nurseries: filtered p-groups cut out of a ring acting on a module.

A nursery packages an F_p-algebra R acting on an F_p-space M, held as one
read-only int64 [rdim, mdim, mdim] array whose [k] is the matrix of the
k-th basis element of R on M, together with a marked generating set S of R
containing the unit and a probe set T of module elements whose annihilators
intersect trivially.  The matrix family (M_a(K) on M_{a x c}(K)) reads the
array from `bimap.matrix_multiplication_bimap`, the b2_odd and ree_small
families (K on itself) from its (1, 1, 1) constants, K's product table.
The attached group is the set of triples (x, u, w) with x in R and u, w in
M under

    (x, u, w) * (x', u', w') = (x + x', u + u', w + w' + x.u'),

filtered by Gamma_2 = {x = 0} > Gamma_3 = {x = 0, u = 0} > Gamma_4 = 1.
Subgroups squeezed between Gamma_2 and Gamma_1 ("kinder") correspond to
F_p-subspaces of R, and `reconstruct` recovers the whole filtration from
one such subgroup presented as an abstract multiplication table.

Every group here is a `SmallGroup` on `mul_label`: up to SUBGROUP_ORDER_CAP
elements its table composes the columns of a generating set, which is sound
while the label law is associative, so the last label's column is compared
with direct label products.  Up to EXHAUSTIVE_ORDER_CAP elements, the
constructor checks the brackets of Gamma_1 (`SmallGroup.commutators`) in the
code ranges of Gamma_3 and Gamma_2 and keeps Gamma_1, to cut every kind from
(`SmallGroup.cut`) with no label products.  Above that cap it checks the
commutators of basis transversals, and each kind is a group of its own.
"""

from __future__ import annotations

import itertools
from typing import NamedTuple

import numpy as np

from . import smallgrp
from .bimap import ClassTwoForm, matrix_multiplication_bimap, pseudo_isometry
from .errors import CapExceededError, InvalidConfigError, PropertyViolationError, need, require
from .gf import FieldCtx, make_field
from .linalg import (CoordSolver, Matrix, Subspace, enumerate_superspaces, gaussian_binomial,
                     np_rank, rank_nullspace, rref)
from .smallgrp import GROUP_ORDER_CAP
# up to this Gamma_1 order the constructor checks the law and every
# commutator on Gamma_1's complete table, above it on basis transversals
EXHAUSTIVE_ORDER_CAP = 1 << 9


def _require_gamma2_under_cap(p: int, mdim: int):
    """CapExceededError when Gamma_2, of order p^(2 mdim) and in every kind,
    exceeds GROUP_ORDER_CAP."""
    if p ** (2 * mdim) > GROUP_ORDER_CAP:
        raise CapExceededError("second term of order %d^%d over cap %d" % (p, 2 * mdim, GROUP_ORDER_CAP))


class ModuleNursery:
    """An F_p-algebra acting on F_p^mdim, with marked generators and module probes.

    `R` is the read-only int64 [rdim, mdim, mdim] array of the algebra's basis
    matrices (the matrix and field families take it from
    `bimap.matrix_multiplication_bimap`); their span must be closed under
    multiplication and contain the identity.  `s_coords` are the generators'
    coordinates in that basis.  A Gamma_2 over GROUP_ORDER_CAP is refused
    (CapExceededError) before any check, since every kind contains it.  S and
    T are checked at construction (S generates, the T annihilators meet in
    0), as is the group law.  Up to EXHAUSTIVE_ORDER_CAP elements, Gamma_1's
    table (`_label_group`) realizes the action (gamma([x, u]) = x.u), puts
    every commutator in Gamma_3 with Gamma_2 abelian, and Gamma_1 on it is
    kept for `group_on`; above it, the action and Gamma_2's commutators are
    checked on basis transversals.
    """

    def __init__(self, kind, ctx: FieldCtx, R, s_coords, t_vectors, meta=None):
        R = np.array(R, dtype=np.int64)
        if ctx.e != 1 or R.ndim != 3 or not len(R) or R.shape[1] != R.shape[2]:
            raise InvalidConfigError("need a nonempty [rdim, mdim, mdim] algebra array over a prime field")
        self.kind, self.ctx, self.p = kind, ctx, ctx.p
        self.rdim, self.mdim = R.shape[:2]
        _require_gamma2_under_cap(self.p, self.mdim)
        R.setflags(write=False)
        self.R = R
        self.meta = dict(meta or {})
        self._solver = CoordSolver(R.reshape(self.rdim, -1).tolist(), ctx)
        self.one_coords = self.r_coords(np.eye(self.mdim, dtype=np.int64))
        if self.one_coords is None:
            raise InvalidConfigError("algebra span lacks a unit")
        self._check_closure()
        self.s_coords = tuple(dict.fromkeys(map(tuple, s_coords)))  # in order, once each
        if any(len(c) != self.rdim for c in self.s_coords):
            raise InvalidConfigError("generator coordinates have the wrong length")
        if self.one_coords not in self.s_coords:
            raise InvalidConfigError("generating set must contain the unit")
        self.t_vectors = tuple(tuple(t) for t in t_vectors)
        for t in self.t_vectors:
            if len(t) != self.mdim:
                raise InvalidConfigError("module probe has the wrong length")
        self._check_s_generates()
        self._check_annihilators()
        self._rows_cache, self._gamma1 = {}, None  # Gamma_1 on its checked table, up to the cap
        if self.order <= EXHAUSTIVE_ORDER_CAP:
            self._check_gamma1_table()
        else:
            self._check_commutators(self.commutator_label)

    # -- validation ---------------------------------------------------

    def _check_closure(self):
        d = self.mdim * self.mdim
        prods = np.einsum("aij,bjk->abik", self.R, self.R) % self.p
        if np_rank(np.concatenate([self.R.reshape(-1, d), prods.reshape(-1, d)]), self.ctx) != self.rdim:
            raise InvalidConfigError("algebra basis span is not closed under products")

    def _check_s_generates(self):
        # S holds the unit, so the span of the words in S grows under right
        # products with S until it is the subalgebra S generates
        p, m = self.p, self.mdim
        S = np.tensordot(np.array(self.s_coords, dtype=np.int64), self.R, 1) % p
        span, dim = Subspace.from_vectors(self.ctx, m * m, S.reshape(len(S), m * m).tolist()), 0
        while span.dim > dim:
            dim = span.dim
            words = np.einsum("wij,sjk->wsik", np.array(span.basis).reshape(dim, m, m), S) % p
            span = Subspace.from_vectors(self.ctx, m * m, words.reshape(-1, m * m).tolist())
        if span.dim != self.rdim:
            raise InvalidConfigError("S generates a proper subalgebra")

    def _check_annihilators(self):
        # x in R annihilates every probe iff the stacked action rows kill x
        T = np.array(self.t_vectors, dtype=np.int64).reshape(len(self.t_vectors), self.mdim)
        rows = np.einsum("kij,tj->kti", self.R, T) % self.p
        if np_rank(rows.reshape(self.rdim, -1), self.ctx) != self.rdim:
            raise InvalidConfigError("annihilator condition unsatisfiable for this T")

    def _check_commutators(self, comm):
        """[x, u] = x.u on basis transversals, and [u, v] = 1 in Gamma_2;
        `comm(g, h)` is the label of [g, h]."""
        zr = (0,) * self.rdim
        zm = (0,) * self.mdim
        units = Matrix.identity(self.ctx, self.mdim).rows
        for x, b in zip(Matrix.identity(self.ctx, self.rdim).rows, self.R):
            for u, image in zip(units, b.T.tolist()):
                if comm((x, zm, zm), (zr, u, zm)) != (zr, zm, tuple(image)):
                    raise PropertyViolationError("commutator does not realize the action")
        for u in units:
            for v in units:
                if comm((zr, u, zm), (zr, v, zm)) != self.identity_label():
                    raise PropertyViolationError("second filtration term is not abelian")

    def _check_gamma1_table(self):
        """The commutator checks on every pair of Gamma_1's table."""
        labels = list(self.labels())
        G = self._gamma1 = self._label_group(labels)
        comm = G.commutators(range(G.n), range(G.n))
        self._check_commutators(lambda g, h: labels[comm[G.index_of(g), G.index_of(h)]])
        nm = self.p**self.mdim  # the indices below nm make up Gamma_3, below nm^2 Gamma_2
        if (comm >= nm).any():
            raise PropertyViolationError("a commutator escapes the third term")
        if comm[: nm * nm, : nm * nm].any():
            raise PropertyViolationError("second filtration term is not abelian")

    # -- algebra ------------------------------------------------------

    def r_coords(self, mat):
        """Coordinates of an [mdim, mdim] array in R's basis, or None when outside R."""
        return self._solver.coords(np.asarray(mat).ravel().tolist())

    def r_matrix(self, coords):
        """The [mdim, mdim] array with the given coordinates in R's basis."""
        return np.tensordot(np.asarray(coords, dtype=np.int64), self.R, 1) % self.p

    def act(self, x_coords, u):
        rows = self._rows_cache.get(x_coords)
        if rows is None:
            rows = self.r_matrix(x_coords).tolist()
            self._rows_cache[x_coords] = rows
        p = self.p
        return tuple(sum(a * b for a, b in zip(row, u)) % p for row in rows)

    # -- the group ----------------------------------------------------

    @property
    def order(self) -> int:
        return self.p ** (self.rdim + 2 * self.mdim)

    def identity_label(self):
        return ((0,) * self.rdim, (0,) * self.mdim, (0,) * self.mdim)

    def mul_label(self, g, h):
        p = self.p
        shift = self.act(g[0], h[1])
        return (
            tuple((a + b) % p for a, b in zip(g[0], h[0])),
            tuple((a + b) % p for a, b in zip(g[1], h[1])),
            tuple((a + b + c) % p for a, b, c in zip(g[2], h[2], shift)),
        )

    def inverse_label(self, g):
        p = self.p
        back = self.act(g[0], g[1])
        return (
            tuple(-a % p for a in g[0]),
            tuple(-a % p for a in g[1]),
            tuple((b - a) % p for a, b in zip(g[2], back)),
        )

    def commutator_label(self, g, h):
        gh = self.mul_label(g, h)
        hg = self.mul_label(h, g)
        return self.mul_label(self.inverse_label(hg), gh)

    def labels(self, x_vectors=None):
        p = self.p
        if x_vectors is None:
            x_vectors = [tuple(v) for v in itertools.product(range(p), repeat=self.rdim)]
        mvecs = [tuple(v) for v in itertools.product(range(p), repeat=self.mdim)]
        for x in x_vectors:
            for u in mvecs:
                for w in mvecs:
                    yield (x, u, w)

    def gamma1_group(self) -> smallgrp.SmallGroup:
        if self.order > GROUP_ORDER_CAP:
            raise CapExceededError("group order %d over cap %d" % (self.order, GROUP_ORDER_CAP))
        full = Subspace.full(self.ctx, self.rdim)
        return self.group_on(full, name="%s nursery Gamma_1" % self.kind)

    def group_on(self, subspace: Subspace, name="kind") -> smallgrp.SmallGroup:
        """The group of the triples with x in the subspace, in `labels` order:
        cut from Gamma_1 when the constructor kept it (`SmallGroup.cut`), else
        `_label_group`'s."""
        if self._gamma1 is not None:
            return self._gamma1.cut(self._gamma1_members(subspace), name=name)
        return self._label_group(list(self.labels(x_vectors=map(tuple, subspace.enumerate_vectors()))), name)

    def _gamma1_members(self, subspace: Subspace):
        """The indices in the kept Gamma_1 of the triples with x in the
        subspace, in `labels` order: (x, u, w) is at code(x) |M|^2 +
        code(u) |M| + code(w)."""
        codes = np.array(list(subspace.enumerate_vectors())) @ self.p ** np.arange(self.rdim - 1, -1, -1)
        nm2 = self.p ** (2 * self.mdim)
        return np.add.outer(codes * nm2, np.arange(nm2)).ravel()

    def _label_group(self, labels, name=None) -> smallgrp.SmallGroup:
        """The group on `labels` and `mul_label`.  Up to SUBGROUP_ORDER_CAP its
        table composes generator columns, which needs the label law to be
        associative (it is for every R, the action being linear, unless `act`
        is at fault), so the column of the last label, whose u and x's code
        have every digit p - 1, is compared with direct label products."""
        G = smallgrp.SmallGroup(labels, self.mul_label, name=name)
        if G.n <= smallgrp.SUBGROUP_ORDER_CAP:
            last = labels[-1]
            if G.table()[-1].tolist() != [G.index_of(self.mul_label(a, last)) for a in labels]:
                raise PropertyViolationError("the composed table disagrees with mul_label")
        return G

    def gamma2_labels(self):
        zr = (0,) * self.rdim
        return frozenset((zr, u, w) for _, u, w in self.labels(x_vectors=[zr]))

    def gamma3_labels(self):
        zr, zm = (0,) * self.rdim, (0,) * self.mdim
        return frozenset((zr, zm, w) for w in itertools.product(range(self.p), repeat=self.mdim))

    def s_subspace(self) -> Subspace:
        return Subspace.from_vectors(self.ctx, self.rdim, list(self.s_coords))

    def describe(self) -> dict:
        return {"kind": self.kind, "p": self.p, "rdim": self.rdim, "mdim": self.mdim,
                "order": self.order, "s_size": len(self.s_coords),
                "t_size": len(self.t_vectors), **self.meta}

    def __repr__(self):
        return "ModuleNursery(%s, |R|=%d^%d, |M|=%d^%d)" % (
            self.kind, self.p, self.rdim, self.p, self.mdim)


class Kind:
    """A subgroup Gamma_2 <= Q <= Gamma_1 cut out by a subspace K of R.

    Its class-2 data comes from R (`form`): with W = span{x.u : x in K, u in
    M} and C spanned by the unit vectors of M off W's pivots, Q is V x W for
    V = K + M + C, (v, w)(v', w') = (v + v', w + w' + x.u'), x.u' in W's
    coordinates.  W is Q' and, at p = 2, Q's squares span it too, so W is the
    Frattini subgroup and Q/W = V.  Hence |Z(Q)| = |W| |rad b|, Q' = W is
    abelian, and the exponent is p at p odd, and 4 or 2 at p = 2 as W is
    nonzero or not.
    """

    def __init__(self, nursery: ModuleNursery, subspace: Subspace):
        self.nursery = nursery
        self.subspace = subspace
        self._group = self._form = self._members = None

    @property
    def order(self) -> int:
        n = self.nursery
        return n.p ** (self.subspace.dim + 2 * n.mdim)

    def group(self) -> smallgrp.SmallGroup:
        if self.order > GROUP_ORDER_CAP:
            raise CapExceededError("kind order %d over cap %d" % (self.order, GROUP_ORDER_CAP))
        if self._group is None:
            name = "%s kind dim %d" % (self.nursery.kind, self.subspace.dim)
            self._group = self.nursery.group_on(self.subspace, name=name)
        return self._group

    def form(self) -> ClassTwoForm:
        """The kind's `bimap.ClassTwoForm` on V = K + M + C, read from R: phi's
        only constants are phi(x_i, u_j) = x_i.u_j, in W's coordinates, the
        pivot entries of W's reduced basis."""
        if self._form is None:
            n, ell = self.nursery, self.subspace.dim
            p, m = n.p, n.mdim
            self._basis = np.array(self.subspace.basis, dtype=np.int64).reshape(ell, n.rdim)
            acts = np.tensordot(self._basis, n.R, 1) % p  # acts[i] @ u = x_i.u
            _, pivots = rref(acts.transpose(0, 2, 1).reshape(ell * m, m).tolist(), n.ctx)
            self._free = [j for j in range(m) if j not in pivots]
            d = len(pivots)
            phi = np.zeros((ell + 2 * m - d, ell + 2 * m - d, d), dtype=np.int64)
            phi[:ell, ell:ell + m] = acts[:, list(pivots)].transpose(0, 2, 1)
            self._form = ClassTwoForm(phi, p)
        return self._form

    def census_fields(self) -> dict:
        """The census payload's invariants, from `form`."""
        p, f = self.nursery.p, self.form()
        return {"order": self.order, "exponent": p if p > 2 else 4 if f.d else 2,
                "center_order": p ** (f.d + f.invariants[2]),
                "derived_orders": [self.order, p**f.d, 1] if f.d else [self.order, 1]}

    def labels(self, vectors) -> list:
        """The (x, u, w) labels of the rows of `vectors`, V's vectors in
        `form`'s coordinates, each lifted with its C part as w."""
        self.form()
        n, ell, m = self.nursery, self.subspace.dim, self.nursery.mdim
        v = np.asarray(vectors, dtype=np.int64)
        w = np.zeros((len(v), m), dtype=np.int64)
        w[:, self._free] = v[:, ell + m:]
        return list(zip(map(tuple, (v[:, :ell] @ self._basis % n.p).tolist()),
                        map(tuple, v[:, ell:ell + m].tolist()), map(tuple, w.tolist())))

    def members(self) -> smallgrp._Members:
        """The kind as a member list: its indices in Gamma_1, in order, when
        the nursery keeps Gamma_1, so that no group of its own is built, and
        else every index of `group`."""
        if self._members is None:
            G1 = self.nursery._gamma1
            if G1 is None:
                G = self.group()
                self._members = smallgrp._Members(G, range(G.n), None)
            else:
                at = np.sort(self.nursery._gamma1_members(self.subspace)).tolist()
                self._members = smallgrp._Members(G1, at, None)
        return self._members

    def __repr__(self):
        return "Kind(dim V = %d, order %d)" % (self.subspace.dim, self.order)


def kind_from_subspace(nursery: ModuleNursery, subspace: Subspace, relaxed=False) -> Kind:
    if subspace.ambient_dim != nursery.rdim or subspace.ctx != nursery.ctx:
        raise InvalidConfigError("subspace does not live in the algebra coordinates")
    if not relaxed:
        for s in nursery.s_coords:
            if not subspace.contains(s):
                raise InvalidConfigError("subspace misses the marked generating set")
    return Kind(nursery, subspace)


def random_kind(nursery: ModuleNursery, ell: int, rng) -> Kind:
    """A uniform dimension-ell kind, anchored to contain S."""
    span = nursery.s_subspace()
    if ell < span.dim or ell > nursery.rdim:
        raise InvalidConfigError("no kinder of dimension %d here" % ell)
    p = nursery.p
    while span.dim < ell:
        v = tuple(rng.randrange(p) for _ in range(nursery.rdim))
        if not span.contains(v):
            span = Subspace.from_vectors(nursery.ctx, nursery.rdim, span.basis + (v,))
    return kind_from_subspace(nursery, span)


class Reconstruction(NamedTuple):
    X: frozenset
    Y: frozenset
    Z: frozenset
    chi: dict


def random_frames(kind: Kind, rng):
    """Random valid (rho, mu) transversal maps for `reconstruct`."""
    n = kind.nursery
    p = n.p
    zr = (0,) * n.rdim

    def rvec():
        return tuple(rng.randrange(p) for _ in range(n.mdim))

    rho = {s: (s, rvec(), rvec()) for s in n.s_coords}
    mu = {t: (zr, t, rvec()) for t in n.t_vectors}
    return rho, mu


def reconstruct(kind: Kind, rho: dict, mu: dict) -> Reconstruction:
    """Recover (Gamma_2, Gamma_3, Gamma_4) and the R-embedding from Q alone.

    The group is consulted only through its multiplication; the beta and
    gamma coordinate maps are applied once X and Y have been identified,
    and the stored coordinates are used afterwards purely to verify the
    answer.  A mu probe pointing at an element with too large an
    annihilator inflates X and is reported, not accepted.
    """
    n = kind.nursery
    G = kind.group()
    gamma2_size = n.p ** (2 * n.mdim)
    def member(label, who):
        try:
            return G.index_of(label)
        except KeyError:
            raise InvalidConfigError("%s image is not an element of Q" % who) from None

    for s in n.s_coords:
        if s not in rho:
            raise InvalidConfigError("rho must be defined on all of S")
        member(rho[s], "rho")
        if rho[s][0] != s:
            raise InvalidConfigError("rho image has the wrong alpha part")
    for t in n.t_vectors:
        if t not in mu:
            raise InvalidConfigError("mu must be defined on all of T")
        member(mu[t], "mu")
        if any(mu[t][0]):
            raise InvalidConfigError("mu image lies outside the second term")

    x_idx = list(range(G.n))
    for t in n.t_vectors:  # a probe at a time: above the table cap each test is two label products
        x_idx = list(itertools.compress(x_idx, G.commute(x_idx, [G.index_of(mu[t])])[:, 0].tolist()))
    if len(x_idx) != gamma2_size:
        raise PropertyViolationError("recovered second term has order %d, expected %d: the mu probes "
                                     "leave a nontrivial common annihilator" % (len(x_idx), gamma2_size))

    one_idx = G.index_of(rho[n.one_coords])
    y_idx = G.span_idx(G.commutators([one_idx], x_idx)[0].tolist())
    if len(y_idx) != n.p**n.mdim:
        raise PropertyViolationError("bracketing with rho(1) missed the third term")
    x_gens = G.span_gens(x_idx)  # X, the probes' common centralizer, is their span
    if not G.commute(x_gens, x_gens).all():
        raise PropertyViolationError("the recovered second term is not abelian")
    z_idx = (G.identity,)  # the commutator subgroup of the abelian X

    # beta reads off X, gamma reads off Y: both are nursery data now that
    # X and Y are pinned down
    beta_rep = {G.labels[i][1]: i for i in reversed(x_idx)}  # the first of X with each u
    betas = [beta_rep[u] for u in Matrix.identity(n.ctx, n.mdim).rows]
    y_set, chi, solved = set(y_idx), {}, {}
    for i, row in enumerate(G.commutators(range(G.n), betas).tolist()):
        if not y_set.issuperset(row):
            raise PropertyViolationError("a chi column escapes the third term")
        # chi is constant on X-cosets: one solve per coset, the rest are copies
        cols = tuple(G.labels[c][2] for c in row)
        if cols not in solved:
            solved[cols] = n.r_coords(np.array(cols).T)
        if solved[cols] is None:
            raise PropertyViolationError("chi image escapes the algebra")
        chi[G.labels[i]] = solved[cols]
    if len(set(chi.values())) != G.n // gamma2_size:
        raise PropertyViolationError("chi does not separate the X-cosets")
    for s in n.s_coords:
        if chi[rho[s]] != s:
            raise PropertyViolationError("chi disagrees with rho on the generators")

    # posterior check against the stored coordinates
    x_labels, y_labels, z_labels = (frozenset(G.labels[i] for i in s) for s in (x_idx, y_idx, z_idx))
    zr, zm = (0,) * n.rdim, (0,) * n.mdim
    if any(label[0] != zr for label in x_labels):
        raise PropertyViolationError("X differs from the stored second term")
    if any(label[0] != zr or label[1] != zm for label in y_labels):
        raise PropertyViolationError("Y differs from the stored third term")
    if z_labels != {n.identity_label()}:
        raise PropertyViolationError("Z is not the stored fourth term")
    if any(chi[label] != label[0] for label in chi):
        raise PropertyViolationError("chi disagrees with the stored alpha projection")
    return Reconstruction(x_labels, y_labels, z_labels, chi)


# ---------------------------------------------------------------------------
# census


class CensusReport(NamedTuple):
    nursery: dict
    ell: int
    relaxed: bool
    kinder_count: int
    class_count: int
    bound_exponent: float | None
    classes: list

    def to_payload(self) -> dict:
        return self._asdict()


def census(nursery: ModuleNursery, ell: int, relaxed=False, max_kinder=4096,
           max_order=GROUP_ORDER_CAP) -> CensusReport:
    """Enumerate and classify every dimension-ell kind of the nursery.

    Strict mode anchors the kinder to contain S and checks the class count
    against the clamped counting bound; relaxed mode runs over all
    subspaces, where the bound has no claim.  Each kind's invariants come
    from R (`Kind.form`), and it is compared, in index order, with the
    earlier class representatives with its invariants by
    `bimap.pseudo_isometry`.  A pseudo-isometry is lifted to a map of the
    groups by `smallgrp._search`, each lift of the representative's basis
    of V given the lift of its image as its one candidate, and verified, on
    Gamma_1's tables when the nursery keeps it and else on the two kinds'
    own; a clash raises PropertyViolationError.  Only the class
    representatives and the kind being classified are held.
    """
    base = Subspace.zero(nursery.ctx, nursery.rdim) if relaxed else nursery.s_subspace()
    if ell < base.dim or ell > nursery.rdim:
        raise InvalidConfigError("no kinder of dimension %d here" % ell)
    total = gaussian_binomial(nursery.rdim - base.dim, ell - base.dim, nursery.p)
    if total > max_kinder:
        raise CapExceededError("%d kinder over cap %d" % (total, max_kinder))
    order, cap = nursery.p ** (ell + 2 * nursery.mdim), min(max_order, smallgrp.SUBGROUP_ORDER_CAP)
    if order > cap:  # witnesses are verified on complete tables
        raise CapExceededError("kind order %d over cap %d" % (order, cap))

    spaces = list(enumerate_superspaces(base, ell))
    require(len(spaces) == total, "enumerated %d kinder, expected %d" % (len(spaces), total))
    live, gens = {}, {}  # the representatives and the kind being classified; their lifted bases

    def invariants(k):
        live[k] = kind_from_subspace(nursery, spaces[k], relaxed=relaxed)
        return live[k].form().invariants

    def lift(r, k):
        found = pseudo_isometry(live[r].form(), live[k].form())
        if found is None:
            return None
        A, B = live[r].members(), live[k].members()
        if r not in gens:
            gens[r] = [A.group.index_of(x) for x in live[r].labels(live[r].form().basis)]
        image = smallgrp._search(A, gens[r], B, [[B.group.index_of(y)] for y in live[k].labels(found[0])])
        require(image is not None, "search returned a non-isomorphism")  # a clash: the lift is wrong
        return image

    def check(r, k, image):
        return smallgrp._is_isomorphism(live[r].members(), gens[r], live.pop(k).members(), image)

    classes, _ = smallgrp._classify(map(invariants, range(len(spaces))), lift, check)
    table = [{"members": len(members), **live[members[0]].census_fields(),
              "representative_basis": [list(row) for row in spaces[members[0]].basis]}
             for members in classes]

    bound = None
    if not relaxed:
        r, s, m, t = nursery.rdim, len(nursery.s_coords), nursery.mdim, len(nursery.t_vectors)
        bound = float(max(0, (ell - s) * (r - ell) - ell * s - m * t))  # base-p exponent, clamped at 0
        if len(classes) < nursery.p ** int(round(bound)):
            raise PropertyViolationError(
                "census found %d classes, below the guaranteed %d"
                % (len(classes), nursery.p ** int(round(bound)))
            )
    return CensusReport(nursery=nursery.describe(), ell=ell, relaxed=relaxed,
                        kinder_count=len(spaces), class_count=len(classes),
                        bound_exponent=bound, classes=table)


# ---------------------------------------------------------------------------
# the four stock constructions


def _matrix_kind(a: int, c: int, ctx: FieldCtx) -> ModuleNursery:
    if a < 1 or c < 1:
        raise InvalidConfigError("block sizes must be positive")
    e = ctx.e
    _require_gamma2_under_cap(ctx.p, a * c * e)  # before the bimap's a^4 c^2 e^3 entries
    # R = M_a(K) acting from the left on M = M_{a x c}(K), both flattened as
    # the bimap flattens them: row-major, each entry as its e coordinates
    bm = matrix_multiplication_bimap(ctx, a, a, c)
    omega = ctx.primitive if ctx.order > 2 else 1
    s = np.zeros((3, a, a, e), dtype=np.int64)
    s[0, :, :, 0] = np.eye(a, dtype=np.int64)
    s[1, 0, 0] = ctx.to_vector(omega)  # the corner unit
    # the cyclic shift sending row i to row i+1 (so with the corner unit it
    # reaches every matrix position)
    s[2, :, :, 0] = np.roll(np.eye(a, dtype=np.int64), 1, axis=1)
    t_vectors = np.eye(a * c * e, dtype=np.int64)[::e].tolist()  # the entries' constant coordinates
    meta = {"a": a, "c": c, "field": "GF(%d^%d)" % (ctx.p, ctx.e)}
    return ModuleNursery("matrix", bm.ctx, bm.structure.transpose(1, 0, 2), s.reshape(3, -1).tolist(),
                         t_vectors, meta=meta)


def _field_action_nursery(kind, K: FieldCtx, scale: int, s_elements, meta) -> ModuleNursery:
    # R = M = K with x.u = scale*x*u, scale in F_p: K's product constants times scale
    bm = matrix_multiplication_bimap(K, 1, 1, 1)
    R = scale * bm.structure.transpose(1, 0, 2) % K.p
    return ModuleNursery(kind, bm.ctx, R, [K.to_vector(g) for g in s_elements], [K.to_vector(1)],
                         meta=meta)


def _b2_odd_kind(ctx: FieldCtx) -> ModuleNursery:
    if ctx.p == 2:
        raise InvalidConfigError("this construction needs odd characteristic")
    inv2 = ctx.inv(2)
    s_elements = [inv2]
    if ctx.e > 1:
        s_elements.append(ctx.primitive)
    meta = {"field": "GF(%d^%d)" % (ctx.p, ctx.e), "action": "x.u = 2xu"}
    return _field_action_nursery("b2_odd", ctx, 2, s_elements, meta)


def _ree_small_kind(e: int) -> ModuleNursery:
    if e < 1:
        raise InvalidConfigError("need e >= 1 for the degree 2e+1 field")
    K = make_field(3, 2 * e + 1)
    s_elements = [1, K.primitive]
    meta = {"field": "GF(3^%d)" % K.e, "action": "x.u = xu"}
    return _field_action_nursery("ree_small", K, 1, s_elements, meta)


def _unitary_kind(p: int, e: int) -> ModuleNursery:
    if e < 1:
        raise InvalidConfigError("need e >= 1 for the degree 2e field")
    F = make_field(p, 2 * e)
    pf = make_field(p, 1)
    basis = [F.from_vector(v) for v in Matrix.identity(pf, F.e).rows]

    def kernel_of(combine):
        # columns = images of the digit basis, so the right nullspace holds
        # the coefficient vectors of the solutions
        cols = [list(F.to_vector(combine(F.frobenius(b, e), b))) for b in basis]
        _, _, null = rank_nullspace(Matrix(pf, cols).transpose())
        return [F.from_vector(v) for v in null.basis]

    fixed = kernel_of(F.sub)  # alpha^sigma = alpha
    skew = kernel_of(F.add)  # alpha^sigma = -alpha
    if len(fixed) != e or len(skew) != e:
        raise InvalidConfigError("sigma eigenspaces have unexpected dimensions")
    skew_solver = CoordSolver([F.to_vector(v) for v in skew], pf)

    def images(g: int) -> list:
        # the skew coordinates of g v for each v in the skew basis
        out = [skew_solver.coords(F.to_vector(F.mul(g, v))) for v in skew]
        if None in out:
            raise InvalidConfigError("fixed field does not preserve the skew space")
        return out

    R = np.array([images(g) for g in fixed], dtype=np.int64).transpose(0, 2, 1)
    s_elements = [1]
    if e > 1:
        # norm of a multiplicative generator: generates the fixed field
        s_elements.append(F.pow(F.primitive, 1 + p**e))
    fixed_solver = CoordSolver([F.to_vector(v) for v in fixed], pf)
    s_coords = [fixed_solver.coords(F.to_vector(g)) for g in s_elements]
    t_vectors = [tuple(1 if i == 0 else 0 for i in range(e))]
    meta = {"field": "GF(%d^%d)" % (p, 2 * e), "fixed_degree": e}
    return ModuleNursery("unitary", pf, R, s_coords, t_vectors, meta=meta)


def make_nursery(kind: str, **params) -> ModuleNursery:
    """Stock nurseries: matrix(a, c, ctx), unitary(p, e), b2_odd(ctx), ree_small(e)."""
    if kind == "matrix":
        return _matrix_kind(*need(params, "a", "c", "ctx"))
    if kind == "unitary":
        return _unitary_kind(*need(params, "p", "e"))
    if kind == "b2_odd":
        return _b2_odd_kind(*need(params, "ctx"))
    if kind == "ree_small":
        return _ree_small_kind(*need(params, "e"))
    raise InvalidConfigError("unknown nursery kind %r" % kind)
