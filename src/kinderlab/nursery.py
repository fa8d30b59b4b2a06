"""Module nurseries: filtered p-groups cut out of a ring acting on a module.

A nursery packages an F_p-algebra R, given concretely by a basis of
matrices acting on an F_p-space M, together with a marked generating set
S of R containing the unit and a probe set T of module elements whose
annihilators intersect trivially.  The attached group is the set of
triples (x, u, w) with x in R and u, w in M under

    (x, u, w) * (x', u', w') = (x + x', u + u', w + w' + x.u'),

filtered by Gamma_2 = {x = 0} > Gamma_3 = {x = 0, u = 0} > Gamma_4 = 1.
Subgroups squeezed between Gamma_2 and Gamma_1 ("kinder") correspond to
F_p-subspaces of R, and `reconstruct` recovers the whole filtration from
one such subgroup presented as an abstract multiplication table.

Up to EXHAUSTIVE_ORDER_CAP elements, the constructor checks Gamma_1 on its
complete table, one numpy evaluation of the law on integer codes
(`_law_table`) tied to `mul_label` on every pair (`smallgrp.check_law_table`),
with its brackets (`SmallGroup.commutators`) in the code ranges of Gamma_3
and Gamma_2, and keeps Gamma_1 on it, to cut every kind from
(`SmallGroup.cut`) with no label products.  Above that cap it checks the
commutators of basis transversals, and a kind up to SUBGROUP_ORDER_CAP
elements gets its own `_law_table`, tied to `mul_label` by its generators and
Light's test; a larger kind's products are label products.
"""

from __future__ import annotations

import itertools
import math
from typing import NamedTuple

import numpy as np

from . import smallgrp
from .errors import CapExceededError, InvalidConfigError, PropertyViolationError, need, require
from .gf import FieldCtx, make_field
from .linalg import (
    CoordSolver,
    Matrix,
    Subspace,
    digits,
    enumerate_superspaces,
    flatten_matrix,
    gaussian_binomial,
    rank_nullspace,
    rref,
    unflatten_matrix,
)

GROUP_ORDER_CAP = 1 << 14
# up to this Gamma_1 order the constructor checks the law and every
# commutator on Gamma_1's complete table, above it on basis transversals
EXHAUSTIVE_ORDER_CAP = 1 << 9


def _digit_sums(p: int, d: int):
    """The base-p digits of 0 .. p^d - 1 (first digit most significant) and
    the [p^d, p^d] table of the codes of their digitwise sums mod p."""
    dig = digits(0, p**d, p, d).T
    return dig, (dig[:, None, :] + dig[None, :, :]) % p @ p ** np.arange(d - 1, -1, -1)


class ModuleNursery:
    """An F_p-algebra of matrices with marked generators and module probes.

    `rbasis` lists independent mdim x mdim matrices over GF(p) whose span
    is closed under multiplication and contains the identity; S and T are
    checked at construction (S generates, the T annihilators meet in 0),
    as is the group law.  Up to EXHAUSTIVE_ORDER_CAP elements, Gamma_1's
    table equals `mul_label` on every pair, is associative, realizes the
    action (gamma([x, u]) = x.u), puts every commutator in Gamma_3 with
    Gamma_2 abelian, and Gamma_1 on it is kept for `group_on`; above it,
    the action and Gamma_2's commutators are checked on basis transversals.
    """

    def __init__(self, kind, rbasis, s_matrices, t_vectors, meta=None):
        if not rbasis:
            raise InvalidConfigError("empty algebra basis")
        ctx = rbasis[0].ctx
        if ctx.e != 1:
            raise InvalidConfigError("nursery coordinates must be over a prime field")
        self.kind = kind
        self.ctx = ctx
        self.p = ctx.p
        self.mdim = rbasis[0].nrows
        self.rdim = len(rbasis)
        self.meta = dict(meta or {})
        for b in rbasis:
            if b.ctx != ctx or b.shape != (self.mdim, self.mdim):
                raise InvalidConfigError("algebra basis matrices must share one shape")
        self.rbasis = tuple(rbasis)
        self._solver = CoordSolver([flatten_matrix(b) for b in rbasis], ctx)
        self.one_coords = self.r_coords(Matrix.identity(ctx, self.mdim))
        if self.one_coords is None:
            raise InvalidConfigError("algebra span lacks a unit")
        self._check_closure()
        seen = []
        for s in s_matrices:
            c = self.r_coords(s)
            if c is None:
                raise InvalidConfigError("generating set leaves the algebra span")
            if c not in seen:
                seen.append(c)
        if self.one_coords not in seen:
            raise InvalidConfigError("generating set must contain the unit")
        self.s_coords = tuple(seen)
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
        for a in self.rbasis:
            for b in self.rbasis:
                if self.r_coords(a.mul(b)) is None:
                    raise InvalidConfigError("algebra basis span is not closed under products")

    def _check_s_generates(self):
        d = self.mdim * self.mdim
        mats = [self.r_matrix(c) for c in self.s_coords]
        span = Subspace.from_vectors(self.ctx, d, [flatten_matrix(m) for m in mats])
        grown = 0
        while grown < len(mats):  # until a pass over the products adds none
            grown = len(mats)
            for a, b in itertools.product(mats[:grown], repeat=2):
                prod = a.mul(b)
                v = flatten_matrix(prod)
                if not span.contains(v):
                    span = Subspace.from_vectors(self.ctx, d, span.basis + (v,))
                    mats.append(prod)
        if span.dim != self.rdim:
            raise InvalidConfigError("S generates a proper subalgebra")

    def _check_annihilators(self):
        # x in R annihilates every probe iff the stacked action rows kill x
        rows = [[c for t in self.t_vectors for c in b.apply(t)] for b in self.rbasis]
        basis, _ = rref(rows, self.ctx)
        if len(basis) != self.rdim:
            raise InvalidConfigError("annihilator condition unsatisfiable for this T")

    def _check_commutators(self, comm):
        """[x, u] = x.u on basis transversals, and [u, v] = 1 in Gamma_2;
        `comm(g, h)` is the label of [g, h]."""
        zr = (0,) * self.rdim
        zm = (0,) * self.mdim
        units = Matrix.identity(self.ctx, self.mdim).rows
        for x, b in zip(Matrix.identity(self.ctx, self.rdim).rows, self.rbasis):
            for u in units:
                if comm((x, zm, zm), (zr, u, zm)) != (zr, zm, tuple(b.apply(u))):
                    raise PropertyViolationError("commutator does not realize the action")
        for u in units:
            for v in units:
                if comm((zr, u, zm), (zr, v, zm)) != self.identity_label():
                    raise PropertyViolationError("second filtration term is not abelian")

    def _check_gamma1_table(self):
        """The commutator checks on every pair of Gamma_1's checked table."""
        labels = list(self.labels())
        full = Subspace.full(self.ctx, self.rdim)
        table = self._checked_law_table(full, labels, factors=range(len(labels)))
        G = self._gamma1 = smallgrp.SmallGroup(labels, self.mul_label, columns=table)
        comm = G.commutators(range(G.n), range(G.n))
        self._check_commutators(lambda g, h: labels[comm[G.index_of(g), G.index_of(h)]])
        nm = self.p**self.mdim  # the indices below nm make up Gamma_3, below nm^2 Gamma_2
        if (comm >= nm).any():
            raise PropertyViolationError("a commutator escapes the third term")
        if comm[: nm * nm, : nm * nm].any():
            raise PropertyViolationError("second filtration term is not abelian")

    # -- algebra ------------------------------------------------------

    def r_coords(self, mat: Matrix):
        """Coordinates of a matrix in the rbasis, or None when outside R."""
        return self._solver.coords(flatten_matrix(mat))

    def r_matrix(self, coords) -> Matrix:
        m = Matrix.zero(self.ctx, self.mdim, self.mdim)
        for c, b in zip(coords, self.rbasis):
            if c:
                m = m.add(b.scale(c))
        return m

    def act(self, x_coords, u):
        rows = self._rows_cache.get(x_coords)
        if rows is None:
            rows = self.r_matrix(x_coords).rows
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

    def gamma1_group(self, cap=GROUP_ORDER_CAP) -> smallgrp.SmallGroup:
        if self.order > cap:
            raise CapExceededError("group order %d over cap %d" % (self.order, cap))
        full = Subspace.full(self.ctx, self.rdim)
        return self.group_on(full, name="%s nursery Gamma_1" % self.kind)

    def group_on(self, subspace: Subspace, name="kind") -> smallgrp.SmallGroup:
        """The group of the triples with x in the subspace, in `labels` order:
        cut from Gamma_1 when the constructor kept it (`SmallGroup.cut`), else
        up to SUBGROUP_ORDER_CAP elements on `_checked_law_table`'s table,
        compared with mul_label on the products of the generators with each
        other, the identity and the last element, and above it on label products."""
        xs = [tuple(v) for v in subspace.enumerate_vectors()]
        if self._gamma1 is not None:  # (x, u, w) is at code(x) |M|^2 + code(u) |M| + code(w)
            codes = np.array(xs) @ self.p ** np.arange(self.rdim - 1, -1, -1)
            nm2 = self.p ** (2 * self.mdim)
            return self._gamma1.cut(np.add.outer(codes * nm2, np.arange(nm2)).ravel(), name=name)
        labels = list(self.labels(x_vectors=xs))
        n = len(labels)
        if n > smallgrp.SUBGROUP_ORDER_CAP:
            return smallgrp.SmallGroup(labels, self.mul_label, name=name)
        table = self._checked_law_table(subspace, labels, factors=(0, n - 1))
        return smallgrp.SmallGroup(labels, self.mul_label, name=name, columns=table)

    def _checked_law_table(self, subspace: Subspace, labels, factors):
        """`_law_table(subspace)` once `smallgrp.check_law_table` has tied it to
        mul_label on `labels`, probing with the generators (v_k, 0, 0),
        (0, e_k, 0) and (0, 0, e_k) and the indices in `factors`."""
        nm = self.p**self.mdim
        gens = [nm * nm * self.p**k for k in range(subspace.dim)]
        gens += [step * self.p**k for k in range(self.mdim) for step in (nm, 1)]
        return smallgrp.check_law_table(self._law_table(subspace), labels, self.mul_label,
                                        gens, factors)

    def _law_table(self, subspace: Subspace):
        """[n, n] int16 array whose row j holds the index of i*j for each i.

        The index of (x, u, w) is (ix |M| + iu) |M| + iw, where ix is the
        base-p code of x's coefficients in the subspace basis and iu, iw
        are the codes of u and w (first digit most significant, the order
        of `enumerate_vectors` and `labels`).  The law reads three small
        tables: codes of x + x', of u + u' and of x.u'.
        """
        p, md = self.p, self.mdim
        vdig, vadd = _digit_sums(p, subspace.dim)
        mdig, madd = _digit_sums(p, md)
        nv, nm = len(vdig), len(mdig)
        basis = np.array(subspace.basis, dtype=np.int64).reshape(subspace.dim, self.rdim)
        R = np.array([b.rows for b in self.rbasis], dtype=np.int64)
        xmats = np.einsum("vk,kl,lab->vab", vdig, basis, R) % p
        xu = np.einsum("vab,ub->vua", xmats, mdig) % p @ p ** np.arange(md - 1, -1, -1)
        vadd, madd, xu = (a.astype(np.int16) for a in (vadd, madd, xu))
        # axes (jx, ju, jw, ix, iu, iw): (x_i + x_j, u_i + u_j, w_i + w_j + x_i.u_j)
        w_part = madd[madd.reshape(1, 1, nm, 1, 1, nm), xu.T.reshape(1, nm, 1, nv, 1, 1)]
        table = (vadd.reshape(nv, 1, 1, nv, 1, 1) * nm + madd.reshape(1, nm, 1, 1, nm, 1)) * nm
        n = nv * nm * nm
        return (table + w_part).reshape(n, n)

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
    """A subgroup Gamma_2 <= Q <= Gamma_1 cut out by a subspace V of R."""

    def __init__(self, nursery: ModuleNursery, subspace: Subspace):
        self.nursery = nursery
        self.subspace = subspace
        self._group = None

    @property
    def order(self) -> int:
        n = self.nursery
        return n.p ** (self.subspace.dim + 2 * n.mdim)

    def labels(self):
        xs = [tuple(v) for v in self.subspace.enumerate_vectors()]
        return self.nursery.labels(x_vectors=xs)

    def group(self, cap=GROUP_ORDER_CAP) -> smallgrp.SmallGroup:
        if self.order > cap:
            raise CapExceededError("kind order %d over cap %d" % (self.order, cap))
        if self._group is None:
            name = "%s kind dim %d" % (self.nursery.kind, self.subspace.dim)
            self._group = self.nursery.group_on(self.subspace, name=name)
        return self._group

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


def random_kind(nursery: ModuleNursery, ell: int, rng, relaxed=False) -> Kind:
    """A uniform dimension-ell kind; anchored to contain S unless relaxed."""
    span = Subspace.zero(nursery.ctx, nursery.rdim) if relaxed else nursery.s_subspace()
    if ell < span.dim or ell > nursery.rdim:
        raise InvalidConfigError("no kinder of dimension %d here" % ell)
    p = nursery.p
    while span.dim < ell:
        v = tuple(rng.randrange(p) for _ in range(nursery.rdim))
        if not span.contains(v):
            span = Subspace.from_vectors(nursery.ctx, nursery.rdim, span.basis + (v,))
    return kind_from_subspace(nursery, span, relaxed=relaxed)


def derived_equals_gamma3(kind: Kind) -> bool:
    """Whether [Q,Q] is all of Gamma_3, i.e. V.M spans M."""
    n = kind.nursery
    cols = [col for xc in kind.subspace.basis for col in zip(*n.r_matrix(xc).rows)]
    return Subspace.from_vectors(n.ctx, n.mdim, cols).dim == n.mdim


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
    for t in n.t_vectors:  # a probe at a time: above the table cap a bracket is label products
        comm = G.commutators(x_idx, [G.index_of(mu[t])])[:, 0].tolist()
        x_idx = [x for x, c in zip(x_idx, comm) if c == G.identity]
    if len(x_idx) != gamma2_size:
        raise PropertyViolationError("recovered second term has order %d, expected %d: the mu probes "
                                     "leave a nontrivial common annihilator" % (len(x_idx), gamma2_size))

    one_idx = G.index_of(rho[n.one_coords])
    y_idx = G.span_idx(G.commutators([one_idx], x_idx)[0].tolist())
    if len(y_idx) != n.p**n.mdim:
        raise PropertyViolationError("bracketing with rho(1) missed the third term")
    z_idx = G.span_idx(G.commutators(x_idx, x_idx).ravel().tolist())
    if len(z_idx) != 1:
        raise PropertyViolationError("the recovered second term is not abelian")

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
            solved[cols] = n.r_coords(Matrix(n.ctx, list(zip(*cols))))
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
# counting bounds


def _gl_order(nn: int, q: int) -> int:
    out = 1
    for i in range(nn):
        out *= q**nn - q**i
    return out


def bound_log(formula: str, **params) -> float:
    """Exact base-p exponents of the counting bounds, clamped at 0."""
    if formula == "nursery_count":
        r, ell, s, m, t = need(params, "r", "ell", "s", "m", "t")
        return float(max(0, (ell - s) * (r - ell) - ell * s - m * t))
    if formula == "coro_ud_lower":
        a, e, ell = need(params, "a", "e", "ell")
        return float(max(0, (ell - 3) * (a * a * e - ell) - 3 * ell - a * a * e))
    if formula == "orbit_upper":
        a, b, c, e, p = need(params, "a", "b", "c", "e", "p")
        if min(a, b, c, e) < 1:
            raise InvalidConfigError("block sizes and degree must be positive")
        q = p**e
        if a > c >= 1:
            order = e * _gl_order(a, q) * _gl_order(b, q) * _gl_order(c, q) // (q - 1)
        elif a == c > 1:
            order = 2 * e * _gl_order(a, q) ** 2 * _gl_order(b, q) // (q - 1)
        elif a == c == 1:
            sp = q ** (b * b)
            for i in range(1, b + 1):
                sp *= q ** (2 * i) - 1
            order = e * (q - 1) * sp
        else:
            raise InvalidConfigError("orbit bound takes the blocks with a >= c")
        return math.log(order, p)
    raise InvalidConfigError("unknown bound formula %r" % formula)


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
    subspaces, where the bound has no claim.  Each kind is built and
    classified in turn; its group is kept only if it represents its class.
    """
    base = Subspace.zero(nursery.ctx, nursery.rdim) if relaxed else nursery.s_subspace()
    if ell < base.dim or ell > nursery.rdim:
        raise InvalidConfigError("no kinder of dimension %d here" % ell)
    total = gaussian_binomial(nursery.rdim - base.dim, ell - base.dim, nursery.p)
    if total > max_kinder:
        raise CapExceededError("%d kinder over cap %d" % (total, max_kinder))
    order, cap = nursery.p ** (ell + 2 * nursery.mdim), min(max_order, smallgrp.SUBGROUP_ORDER_CAP)
    if order > cap:  # fingerprints read the complete table
        raise CapExceededError("kind order %d over cap %d" % (order, cap))

    spaces = list(enumerate_superspaces(base, ell))
    require(len(spaces) == total, "enumerated %d kinder, expected %d" % (len(spaces), total))
    fps = []
    def group(v):
        G = kind_from_subspace(nursery, v, relaxed=relaxed).group(cap=max_order)
        fps.append(G.fingerprint())
        return G
    classes, _ = smallgrp.iso_classes(map(group, spaces))
    table = []
    for members in classes:
        fp, basis = fps[members[0]], spaces[members[0]].basis
        table.append({"members": len(members), "order": fp.order, "exponent": fp.exponent,
                      "center_order": fp.center_order, "derived_orders": list(fp.derived_orders),
                      "representative_basis": [list(row) for row in basis]})

    bound = None
    if not relaxed:
        bound = bound_log("nursery_count", r=nursery.rdim, ell=ell, s=len(nursery.s_coords),
                          m=nursery.mdim, t=len(nursery.t_vectors))
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


def _action_matrix(pf: FieldCtx, images) -> Matrix:
    # images[j] = flattened image of the j-th standard basis vector
    return Matrix(pf, [list(row) for row in zip(*images)])


def _matrix_kind(a: int, c: int, ctx: FieldCtx) -> ModuleNursery:
    if a < 1 or c < 1:
        raise InvalidConfigError("block sizes must be positive")
    pf = make_field(ctx.p, 1)
    e = ctx.e
    # the unit vectors of the flattened a x c and a x a matrices over GF(p)
    mvecs, rvecs = Matrix.identity(pf, a * c * e).rows, Matrix.identity(pf, a * a * e).rows
    munits = [unflatten_matrix(v, ctx, a, c) for v in mvecs]

    def left_action(x: Matrix) -> Matrix:
        return _action_matrix(pf, [flatten_matrix(x.mul(u)) for u in munits])

    rbasis = [left_action(unflatten_matrix(v, ctx, a, a)) for v in rvecs]

    omega = ctx.primitive if ctx.order > 2 else 1
    ident = Matrix.identity(ctx, a)
    corner = Matrix(ctx, [[omega if i == j == 0 else 0 for j in range(a)] for i in range(a)])
    # the cyclic shift sending row i to row i+1 (so with the corner unit it
    # reaches every matrix position)
    cycle = Matrix(ctx, [[1 if j == (i + 1) % a else 0 for j in range(a)] for i in range(a)])
    s_matrices = [left_action(ident), left_action(corner), left_action(cycle)]
    t_vectors = mvecs[::e]  # the entries' constant coordinates
    meta = {"a": a, "c": c, "field": "GF(%d^%d)" % (ctx.p, ctx.e)}
    return ModuleNursery("matrix", rbasis, s_matrices, t_vectors, meta=meta)


def _field_action_nursery(kind, K: FieldCtx, scale: int, s_elements, meta) -> ModuleNursery:
    # R = M = K with x.u = scale*x*u; the matrix picture absorbs the twist
    pf = make_field(K.p, 1)
    basis = [K.from_vector(v) for v in Matrix.identity(pf, K.e).rows]

    def mult_matrix(g: int) -> Matrix:
        images = [K.to_vector(K.mul(K.mul(scale, g), b)) for b in basis]
        return _action_matrix(pf, images)

    rbasis = [mult_matrix(g) for g in basis]
    s_matrices = [mult_matrix(g) for g in s_elements]
    t_vectors = [K.to_vector(1)]
    return ModuleNursery(kind, rbasis, s_matrices, t_vectors, meta=meta)


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

    def mult_matrix(g: int) -> Matrix:
        images = []
        for v in skew:
            coords = skew_solver.coords(F.to_vector(F.mul(g, v)))
            if coords is None:
                raise InvalidConfigError("fixed field does not preserve the skew space")
            images.append(coords)
        return _action_matrix(pf, images)

    rbasis = [mult_matrix(g) for g in fixed]
    s_matrices = [mult_matrix(1)]
    if e > 1:
        # norm of a multiplicative generator: generates the fixed field
        s_matrices.append(mult_matrix(F.pow(F.primitive, 1 + p**e)))
    t_vectors = [tuple(1 if i == 0 else 0 for i in range(e))]
    meta = {"field": "GF(%d^%d)" % (p, 2 * e), "fixed_degree": e}
    return ModuleNursery("unitary", rbasis, s_matrices, t_vectors, meta=meta)


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
