"""Subgroups and quotients as SmallGroups of their own, and readers of a
group's invariants, for the tests.

The library classifies subgroups on their parent's table and never builds
either; the tests use them as references: a subgroup's fingerprint on its
own restricted table, and an abelianisation read off an explicit quotient.
A B2 kind (s restricted to a code) is built on label products, for the
tests of `twisted.b2_labels` on a group the library never builds.  The readers (an element's invariants, the centre, the derived series, the
exponent, whether G is abelian) read `SmallGroup.fingerprint`, which the library
needs only whole.  `LabelProducts` reads a group's products off its label law
alone, the reference for the paths that read its table.
"""

import numpy as np

from kinderlab.errors import InvalidConfigError
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
