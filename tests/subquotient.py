"""Subgroups and quotients as SmallGroups of their own, and readers of a
group's invariants, for the tests.

The library classifies subgroups on their parent's table and never builds
either; the tests use them as references: a subgroup's fingerprint on its
own restricted table, and an abelianisation read off an explicit quotient.
A B2 kind (s restricted to a code) is built on label products, for the
tests of `twisted.b2_labels` on a group the library never builds.  The
readers (an element's invariants, the centre, the derived series, the
exponent, whether G is abelian) read `SmallGroup.fingerprint`, which the
library needs only whole.  `conjugacy_classes` partitions subgroups by
conjugating with every element, and `recorded_classes` checks the lattice's
classes on it.  `LabelProducts` reads a group's products off its label law
alone, the reference for the paths that read its table.  `law_table` is a
nursery's group law evaluated from its algebra array R on every pair at
once, the reference for the tables the library composes from label products.
"""

import numpy as np

from kinderlab.errors import InvalidConfigError
from kinderlab.linalg import Subspace, digits
from kinderlab.smallgrp import SmallGroup


def subgroup(G: SmallGroup, idx_subset) -> SmallGroup:
    """The subgroup of G on the given indices, in that order.

    With a complete table on G, the subgroup's table is its restriction.
    """
    labs = [G.labels[i] for i in idx_subset]
    if G._T is None:
        return SmallGroup(labs, G._mul_label)
    pos = np.full(G.n, -1, np.int16)
    pos[list(idx_subset)] = range(len(labs))
    cols = pos[G._T[np.ix_(idx_subset, idx_subset)]]
    if (cols < 0).any():
        raise InvalidConfigError("subset is not closed under the group law")
    return SmallGroup(labs, G._mul_label, columns=cols)


class LabelProducts:
    """G's products by its label law alone, never its table: i*j, powers,
    inverses, orders and closures, on G's indices."""

    def __init__(self, G: SmallGroup):
        self.G, self.identity = G, G.identity

    def mul_idx(self, i: int, j: int) -> int:
        G = self.G
        return G.index_of(G._mul_label(G.labels[i], G.labels[j]))

    def powers(self, x: int) -> list:
        """[x^0, x^1, ..., x^order], the last the identity again."""
        out = [self.identity, x]
        while out[-1] != self.identity:
            out.append(self.mul_idx(out[-1], x))
        return out

    def inverse_idx(self, x: int) -> int:
        return self.powers(x)[-2]

    def order_of(self, x: int) -> int:
        return len(self.powers(x)) - 1

    def closure_idx(self, seeds) -> tuple:
        seeds = list(seeds)
        seen = {self.identity, *seeds}
        queue = list(seen)
        for x in queue:
            for g in seeds:
                if (y := self.mul_idx(x, g)) not in seen:
                    seen.add(y)
                    queue.append(y)
        return tuple(sorted(seen))


def conjugate(G: SmallGroup, x: int, g: int) -> int:
    """The index of g^-1 x g."""
    return G.mul_idx(G.mul_idx(G.inverse_idx(g), x), g)


def conjugacy_classes(G: SmallGroup, subs) -> list:
    """The conjugacy classes of `subs` (sorted index tuples, a union of
    classes of subgroups of G) as sets, in the order of their first members
    in subs: each is its first member conjugated by every element of G."""
    T, at = G.table(), np.arange(G.n)
    C = T[at[:, None], T[:, [G.inverse_idx(g) for g in at]].T]  # C[g, x] = g^-1 x g
    placed, classes = set(), []
    for s in subs:
        if s not in placed:
            classes.append(set(map(tuple, np.sort(C[:, s], axis=1).tolist())))
            placed |= classes[-1]
    return classes


def recorded_classes(G: SmallGroup) -> dict:
    """{representative: its conjugacy class} of the class representatives
    that `all_subgroups` recorded on G, each class from `conjugacy_classes`:
    the classes partition the lattice, with one recorded representative
    each, of the recorded class size."""
    out = {}
    for c in conjugacy_classes(G, sorted(G._sub_gens, key=lambda t: (len(t), t))):
        [rep] = [t for t in c if t in G._sub_classes]
        out[rep] = c
    assert {rep: len(c) for rep, c in out.items()} == G._sub_classes
    return out


def _digit_sums(p: int, d: int):
    """The base-p digits of 0 .. p^d - 1 (first digit most significant) and
    the [p^d, p^d] table of the codes of their digitwise sums mod p."""
    dig = digits(0, p**d, p, d).T
    return dig, (dig[:, None, :] + dig[None, :, :]) % p @ p ** np.arange(d - 1, -1, -1)


def law_table(N, subspace: Subspace) -> np.ndarray:
    """[n, n] int16 array whose row j holds the index of i*j for each i, in
    the group of the triples of the nursery N with x in the subspace.

    The index of (x, u, w) is (ix |M| + iu) |M| + iw, where ix is the
    base-p code of x's coefficients in the subspace basis and iu, iw
    are the codes of u and w (first digit most significant, the order
    of `enumerate_vectors` and `ModuleNursery.labels`).  The law reads three
    small tables, made from N.R alone: codes of x + x', of u + u' and of x.u'.
    """
    p, md = N.p, N.mdim
    vdig, vadd = _digit_sums(p, subspace.dim)
    mdig, madd = _digit_sums(p, md)
    nv, nm = len(vdig), len(mdig)
    basis = np.array(subspace.basis, dtype=np.int64).reshape(subspace.dim, N.rdim)
    xmats = np.einsum("vk,kl,lab->vab", vdig, basis, N.R) % p
    xu = np.einsum("vab,ub->vua", xmats, mdig) % p @ p ** np.arange(md - 1, -1, -1)
    vadd, madd, xu = (a.astype(np.int16) for a in (vadd, madd, xu))
    # axes (jx, ju, jw, ix, iu, iw): (x_i + x_j, u_i + u_j, w_i + w_j + x_i.u_j)
    w_part = madd[madd.reshape(1, 1, nm, 1, 1, nm), xu.T.reshape(1, nm, 1, nv, 1, 1)]
    table = (vadd.reshape(nv, 1, 1, nv, 1, 1) * nm + madd.reshape(1, nm, 1, 1, nm, 1)) * nm
    n = nv * nm * nm
    return (table + w_part).reshape(n, n)


def quotient(G: SmallGroup, normal_idx) -> SmallGroup:
    """G modulo a normal subgroup given as an index collection."""
    nset = set(normal_idx)
    coset_of = {}
    reps = []
    for i in range(G.n):
        if i in coset_of:
            continue
        members = sorted(G.mul_idx(i, k) for k in nset)
        rep = members[0]
        reps.append(rep)
        for m in members:
            if m in coset_of and coset_of[m] != rep:
                raise InvalidConfigError("subset is not normal")
            coset_of[m] = rep

    def qmul(a, b):
        return coset_of[G.mul_idx(a, b)]
    return SmallGroup(sorted(reps), qmul)


def b2_kind(b2, code) -> SmallGroup:
    """The subgroup of a `twisted.B2Group` between Gamma_2 and the whole group
    in which s ranges over a code (an F_2 subspace of the field), on label
    products, in `B2Group.labels` order."""
    F = b2.ctx
    if code.ambient_dim != F.e or code.ctx.order != 2:
        raise InvalidConfigError("kind code must be an F_2 subspace of the field")
    svals = [F.from_vector(v) for v in code.enumerate_vectors()]
    labels = [(r, s, z1, z2) for r in F.elements() for s in svals
              for z1 in F.elements() for z2 in F.elements()]
    return SmallGroup(labels, b2.mul, name="B2 kind dim %d" % code.dim)


def gamma_quotient(gamma) -> SmallGroup:
    """(Sym_3)^k modulo its odd-order normal subgroup, of an `altcodes.GammaK`."""
    return quotient(gamma.group, gamma.gamma2_idx)


def element_invariant(G: SmallGroup, i: int):
    """(order, conjugacy class size) of element i."""
    G.fingerprint()
    return G._elem_inv[i]


def center_idx(G: SmallGroup) -> tuple:
    return tuple(i for i in range(G.n) if element_invariant(G, i)[1] == 1)


def derived_series_orders(G: SmallGroup) -> tuple:
    return G.fingerprint().derived_orders


def is_abelian(G: SmallGroup) -> bool:
    return G.fingerprint().center_order == G.n


def exponent(G: SmallGroup) -> int:
    return G.fingerprint().exponent
