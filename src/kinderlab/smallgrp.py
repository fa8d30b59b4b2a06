"""Concrete finite groups small enough to enumerate, with subgroup and
isomorphism-class census tooling.

A SmallGroup wraps an explicit element list plus a multiplication callable on
labels.  Everything downstream works on integer indices.  Products are kept
in one column-major table: column j holds i*j for every i.  By default the
columns fill lazily, one product at a time, so a group of 2^14 elements that
is only ever multiplied by a few generators never pays for n^2 products.
`table()` completes every column (groups up to SUBGROUP_ORDER_CAP only) as
one int16 [n, n] array, whose rows the Python paths read as lists; the
subgroup lattice needs it, and `sigma_counts` classifies every subgroup on
it, each kept as its sorted index tuple, without a SmallGroup of its own.
One power walk over the array gives every element's order, inverse and
powers, for `order_of`, `inverse_idx`, the invariants and the lattice.

The subgroup lattice is built by cyclic extension (Neubueser 1960) on the
complete table, with joins of cyclic subgroups to finish groups that are not
solvable.

Invariants (element orders, class sizes, centre, derived series,
abelianisation) come from one numpy pass over the array for any number of
subgroups: `sigma_counts` runs it once for the whole lattice, and a lone
group's `fingerprint` is the same pass over [G].

The isomorphism test is a backtracking search over generator images, pruned
by element invariants, with the homomorphism property enforced incrementally
during closure.  It maps one member list onto another, on one table (two
subgroups of G) or two (two whole groups).  When the search exhausts, the
groups really are non-isomorphic; a found map is verified on every
(element, generator) pair, which is sufficient by induction on word length.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from . import arith
from .errors import CapExceededError, InvalidConfigError, PropertyViolationError, require

SUBGROUP_ORDER_CAP = 2048
ISO_ORDER_CAP = 512
_SUBGROUP_COUNT_CAP = 100000
_ISO_NODE_BUDGET = 5 * 10**6
_BATCH_CELLS = 1 << 20


def _lists(T) -> list:
    """T's rows as lists, sharing the int objects of range(n) above 256, up to
    which CPython shares them: tolist() makes one per entry, 4.5x the memory."""
    return (T if len(T) <= 257 else np.array(range(len(T)), dtype=object)[T]).tolist()


class SmallGroup:
    """A finite group on explicit labels.

    `columns`, when given, is the complete table on this label order, an
    [n, n] int16 array (columns[j][i] is the index of i*j) kept as the
    group's own: `subgroup` restricts it from a parent, and a family with an
    integer encoding evaluates its law on every pair at once
    (`check_law_table`).  Whoever builds it checks it.  The identity is read
    from its diagonal, and orders and inverses from its power walk (`_walk`);
    without a complete table they are found one product at a time.
    """

    def __init__(self, labels, mul, name=None, columns=None):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self.name = name
        self._idx = {lab: i for i, lab in enumerate(self.labels)}
        if len(self._idx) != self.n:
            raise InvalidConfigError("duplicate labels")
        self._mul_label = mul
        self._T = None if columns is None else np.asarray(columns, np.int16)
        # column j: i*j for each i, -1 where not computed yet; None until used
        self._cols = [None] * self.n if columns is None else _lists(self._T)
        self._orders = None
        self._inverses = None
        self._elem_inv = None
        self._gens = None
        self._fp = None
        if columns is not None:
            idempotents = [i for i in range(self.n) if self._cols[i][i] == i]
        else:
            # direct label products: mul_idx here would allocate a column per element
            idempotents = [
                i for i, lab in enumerate(self.labels) if self._mul_label(lab, lab) == lab
            ]
        if len(idempotents) != 1:
            raise InvalidConfigError("element set is not a group (idempotents: %d)" % len(idempotents))
        self.identity = idempotents[0]

    # -- construction helpers

    @classmethod
    def from_generators(cls, mul, gens, cap=SUBGROUP_ORDER_CAP, name=None):
        """Closure of the given labels under mul (BFS, deterministic order)."""
        seen = dict.fromkeys(gens)
        queue = list(seen)
        for x in queue:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    if len(seen) >= cap:
                        raise CapExceededError("closure exceeded cap %d" % cap)
                    seen[y] = None
                    queue.append(y)
        labels = list(seen)
        try:
            labels.sort()
        except TypeError:
            pass
        return cls(labels, mul, name=name)

    def index_of(self, label) -> int:
        return self._idx[label]

    def mul_idx(self, i: int, j: int) -> int:
        """The index of i*j.

        A product missing from the table is a label product.  It starts a
        column for j only up to SUBGROUP_ORDER_CAP; above it, one product per
        element on the right would fill n columns of n entries, so columns are
        started only by `_column` (closure steps, element orders).
        """
        col = self._cols[j]
        if col is not None:
            v = col[i]
            if v >= 0:
                return v
        elif self.n <= SUBGROUP_ORDER_CAP:
            col = self._cols[j] = [-1] * self.n
        v = self._idx[self._mul_label(self.labels[i], self.labels[j])]
        if col is not None:
            col[i] = v
        return v

    def _column(self, j: int) -> list:
        col = self._cols[j]
        if col is None:
            col = self._cols[j] = [-1] * self.n
        return col

    def table(self) -> list:
        """The complete multiplication table: table()[j][i] is the index of i*j.

        Built on first call as the int16 array T, T[j] = table()[j].  Only
        the columns of a generating set, picked in index order, cost label
        products; every other is a composition of known ones, T[x*g] =
        T[g][T[x]], since i*(x*g) = (i*x)*g.
        """
        if self._T is None:
            if self.n > SUBGROUP_ORDER_CAP:
                raise CapExceededError(
                    "group order %d over table cap %d" % (self.n, SUBGROUP_ORDER_CAP))
            idx, labels, mul = self._idx, self.labels, self._mul_label
            T, known = np.empty((self.n, self.n), np.int16), bytearray(self.n)
            T[self.identity], known[self.identity] = range(self.n), 1
            gens = []
            for j, b in enumerate(labels):
                if known[j]:
                    continue
                gens.append((j, [idx[mul(a, b)] for a in labels]))
                T[j], known[j] = gens[-1][1], 1
                queue = [i for i in range(self.n) if known[i]]
                for x in queue:
                    for g, cg in gens:
                        y = cg[x]
                        if not known[y]:
                            T[g].take(T[x], out=T[y])
                            known[y] = 1
                            queue.append(y)
            self._T, self._cols = T, _lists(T)
        return self._cols

    @functools.cached_property
    def _walk(self):
        """(orders, inverses, S) of every element, S[k, x] = x^k for k up to
        the exponent: one power walk over the complete table, which
        order_of, inverse_idx, subset_invariants and cyclic extension read."""
        self.table()
        at = np.arange(self.n)
        S, row, flat = [np.full(self.n, self.identity), at], at * self.n, self._T.ravel()
        ident = at.astype(flat.dtype).tobytes()
        while len(S) < 3 or S[-1].tobytes() != ident:  # until x^k = x for every x
            S.append(flat.take(row + S[-1]))  # x^(k+1) = T[x, x^k]
        S = np.array(S[:-1], np.int16)
        orders = (S[1:] == self.identity).argmax(axis=0) + 1
        return orders, S[orders - 1, at], S

    def inverse_idx(self, i: int) -> int:
        if self._inverses is None:
            self._inverses = [-1] * self.n if self._T is None else self._walk[1].tolist()
        if self._inverses[i] < 0:
            y, z = self.identity, i
            while z != self.identity:
                y, z = z, self.mul_idx(z, i)
            self._inverses[i] = y
        return self._inverses[i]

    def order_of(self, i: int) -> int:
        if self._orders is None:
            self._orders = [0] * self.n if self._T is None else self._walk[0].tolist()
        if not self._orders[i]:
            col = self._column(i)
            k = 1
            x = i
            while x != self.identity:
                y = col[x]
                x = y if y >= 0 else self.mul_idx(x, i)
                k += 1
            self._orders[i] = k
        return self._orders[i]

    def element_orders(self):
        return [self.order_of(i) for i in range(self.n)]

    def commutator_idx(self, i: int, j: int) -> int:
        a = self.mul_idx(self.inverse_idx(i), self.inverse_idx(j))
        return self.mul_idx(self.mul_idx(a, i), j)

    def conjugate_idx(self, i: int, g: int) -> int:
        """g^-1 * i * g"""
        return self.mul_idx(self.mul_idx(self.inverse_idx(g), i), g)

    # -- structural subsets (all as sorted index tuples)

    def closure_idx(self, seeds) -> tuple:
        seeds = list(dict.fromkeys(seeds)) or [self.identity]
        seen = set(seeds)
        queue = list(seeds)
        steps = [(g, self._column(g)) for g in seeds]
        for x in queue:
            for g, col in steps:
                y = col[x]
                if y < 0:
                    y = self.mul_idx(x, g)
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        seen.add(self.identity)
        return tuple(sorted(seen))

    def generating_set(self) -> tuple:
        """A small generating set, greedy by closure growth (`_generators`)."""
        if self._gens is None:
            self._gens = _generators(self, range(self.n), self.element_orders())
        return self._gens

    def center_idx(self) -> tuple:
        return tuple(i for i in range(self.n) if self.element_invariant(i)[1] == 1)

    def derived_series_orders(self) -> tuple:
        return self.fingerprint().derived_orders

    def subgroup(self, idx_subset) -> "SmallGroup":
        """The subgroup on the given indices, in that order.

        With a complete table here, the subgroup's table is its restriction.
        """
        labs = [self.labels[i] for i in idx_subset]
        if self._T is None:
            return SmallGroup(labs, self._mul_label)
        pos = np.full(self.n, -1, np.int16)
        pos[list(idx_subset)] = range(len(labs))
        cols = pos[self._T[np.ix_(idx_subset, idx_subset)]]
        if (cols < 0).any():
            raise InvalidConfigError("subset is not closed under the group law")
        return SmallGroup(labs, self._mul_label, columns=cols)

    def quotient(self, normal_idx) -> "SmallGroup":
        """Quotient by a normal subgroup given as an index collection."""
        nset = set(normal_idx)
        coset_of = {}
        reps = []
        for i in range(self.n):
            if i in coset_of:
                continue
            members = sorted(self.mul_idx(i, k) for k in nset)
            rep = members[0]
            reps.append(rep)
            for m in members:
                if m in coset_of and coset_of[m] != rep:
                    raise InvalidConfigError("subset is not normal")
                coset_of[m] = rep
        def qmul(a, b):
            return coset_of[self.mul_idx(a, b)]
        return SmallGroup(sorted(reps), qmul)

    def is_abelian(self) -> bool:
        return self.fingerprint().center_order == self.n

    def exponent(self) -> int:
        return self.fingerprint().exponent

    # -- invariants

    def element_invariant(self, i: int):
        """(order, conjugacy class size) of element i."""
        if self._elem_inv is None:
            self.fingerprint()
        return self._elem_inv[i]

    def fingerprint(self) -> "IsoFingerprint":
        """The subset invariants of [G]: needs the table, so n <= SUBGROUP_ORDER_CAP."""
        if self._fp is None:
            [(self._fp, self._elem_inv)] = self.subset_invariants([range(self.n)])
        return self._fp

    def subset_invariants(self, subsets) -> list:
        """(IsoFingerprint, [(order, class size) per member]) of each subgroup.

        One numpy pass over the group's array T, T[j, i] = i*j, and its power
        walk serves all the subgroups (sorted index tuples).  A self-join of
        H's members gives the commutators [i, j] = (ji)^-1 ij and |C_H(j)| =
        #{i : ij = ji}; j's class has |H| / |C_H(j)| elements, 1 in Z(H).  H'
        is looked up among the subgroups, or closed by squaring and appended
        so that its own H' follows.  xH' has order the least k >= 1 with x^k
        in H', a divisor of n.  Batches hold about _BATCH_CELLS entries (a
        squaring, |H'|^2).
        """
        n, R = self.n, max(1, _BATCH_CELLS // self.n)
        (orders, inv, S), T = self._walk, self._T

        def members(batch):  # (row, element) of every member, in order
            rr = np.repeat(np.arange(len(batch)), [len(s) for s in batch])
            return rr, np.fromiter(itertools.chain.from_iterable(batch), np.int64, len(rr))

        subs = [tuple(s) for s in subsets]
        count, index, link, cents = len(subs), {s: r for r, s in enumerate(subs)}, [], []
        while len(link) < len(subs):
            end = len(subs)
            for r0 in range(len(link), end, R):
                batch, by_size = subs[r0:min(r0 + R, end)], {}
                for r, s in enumerate(batch):
                    by_size.setdefault(len(s), []).append(r)
                D, cent = np.zeros((len(batch), n), bool), np.zeros((len(batch), n), np.int16)
                for m, rs in by_size.items():
                    H, rs = np.array([batch[r] for r in rs]), np.array(rs)
                    step, width = max(1, _BATCH_CELLS // (m * m)), min(m, max(1, _BATCH_CELLS // m))
                    for b0 in range(0, len(rs), step):
                        J, at = H[b0:b0 + step, None, :], rs[b0:b0 + step, None]
                        for i0 in range(0, m, width):
                            I = H[b0:b0 + step, i0:i0 + width, None]
                            ij, ji = T[J, I], T[I, J]  # p*q = T[q, p]
                            D[at[..., None], T[ij, inv[ji]]] = True
                            cent[at, J[:, 0]] += (ij == ji).sum(axis=1, dtype=np.int16)
                cents.append(((mem := members(batch)), cent[mem]))
                for row in D:
                    X = row.nonzero()[0]
                    while (key := tuple(X.tolist())) not in index and len(Y := np.unique(T[np.ix_(X, X)])) > len(X):
                        X = Y
                    link.append(index.setdefault(key, len(subs)))
                    if link[-1] == len(subs):
                        subs.append(key)

        def series(r):  # |H|, |H'|, ... until H^(k+1) = H^(k)
            return (len(subs[r]),) + (series(link[r]) if len(subs[link[r]]) < len(subs[r]) else ())

        def per_row(rr, vals, rows):  # [(value, count), ...] per row, by value
            base = int(vals.max()) + 1
            c = np.bincount(rr * base + vals)
            u, out = c.nonzero()[0], [[] for _ in range(rows)]
            for code, cnt in zip(u.tolist(), c[u].tolist()):
                out[code // base].append((code % base, cnt))
            return out

        out = []
        for r0, ((rr, xx), cent) in zip(range(0, count, R), cents):
            batch = subs[r0:min(r0 + R, count)]
            Dm = np.zeros((len(batch), n), bool)
            Dm[members([subs[link[r]] for r in range(r0, r0 + len(batch))])] = True
            first = np.zeros(len(rr), np.int64)
            for k in [k for k in range(1, len(S)) if n % k == 0]:
                first[Dm[rr, S[k, xx]] & (first == 0)] = k
            codes, at = np.unique(orders[xx] * (n + 1) + np.array([len(s) for s in batch])[rr] // cent,
                                  return_inverse=True)
            pairs = [divmod(v, n + 1) for v in codes.tolist()]  # (order, class size), one tuple each
            flat, off = [pairs[i] for i in at.tolist()], 0
            for r, hist, profile, ab in zip(range(r0, r0 + len(batch)), *(
                    per_row(rr, v, len(batch)) for v in (orders[xx], at, first))):
                m, profile = len(subs[r]), tuple((pairs[v], c) for v, c in profile)
                out.append((IsoFingerprint(
                    order=m, order_hist=tuple(hist), derived_orders=series(r),
                    center_order=sum(c for (_, z), c in profile if z == 1),
                    abelian_hist=tuple((v, c // len(subs[link[r]])) for v, c in ab),
                    exponent=math.lcm(*(o for o, _ in hist)), class_profile=profile,
                ), flat[off:off + m]))
                off += m
        return out

    def __repr__(self):
        return "SmallGroup(n=%d%s)" % (self.n, ", %s" % self.name if self.name else "")


@dataclass(frozen=True)
class IsoFingerprint:
    order: int
    order_hist: tuple
    center_order: int
    derived_orders: tuple
    abelian_hist: tuple
    exponent: int
    class_profile: tuple


def check_law_table(table, labels, mul, gens, factors=()):
    """`table` ([n, n] ints, row j holding the index of i*j for each i, on
    `labels`), once it is tied to the label product `mul`.

    Each row must be a permutation; the table must agree with mul on the
    products of each index g in `gens` with each generator and each index in
    `factors`, in either order; and Light's test must hold for each g:
    (i g) j = i (g j) for all i, j.  With every index in `factors`, the last
    two make the table associative and, mul being associative, equal to it
    on every pair, as long as `gens` generate the group.  Otherwise
    PropertyViolationError is raised.
    """
    n = len(labels)
    if table.shape != (n, n):
        raise InvalidConfigError("a law table of shape %s on %d labels" % (table.shape, n))
    if not (np.sort(table, axis=1) == np.arange(n, dtype=table.dtype)).all():
        raise PropertyViolationError("a column of the vectorised law is not a permutation")
    factors = sorted(set(gens).union(factors))
    for g in gens:
        right, left = table[g].tolist(), table[:, g].tolist()  # a*g and g*a at a
        for a in factors:
            if labels[right[a]] != mul(labels[a], labels[g]) or \
                    labels[left[a]] != mul(labels[g], labels[a]):
                raise PropertyViolationError("the vectorised law disagrees with mul_label")
    # take() permutes the columns of a C-order table far faster than table[:, perm]
    if not all((table.take(table[g], axis=1) == table[table[:, g]]).all() for g in gens):
        raise PropertyViolationError("the vectorised law is not associative")
    return table


# ---------------------------------------------------------------------------
# isomorphism search

class _Members(NamedTuple):
    """A subgroup of `group` as its sorted member indices, with each member's
    (order, class size) in the subgroup, as `subset_invariants` gives them."""
    group: SmallGroup
    members: Sequence
    inv: list


def _whole(G: SmallGroup) -> _Members:
    G.fingerprint()
    return _Members(G, range(G.n), G._elem_inv)


def _generators(G: SmallGroup, members, orders) -> tuple:
    """A small generating set of the subgroup on `members` (in index order,
    `orders` theirs), greedy by closure growth on G: the member of highest
    order (the first among equals), then whichever of the first 48 members
    outside the closure grows it most, then redundant generators dropped,
    since the isomorphism search branches once per generator."""
    m = len(members)
    if m == 1:
        return ()
    gens = [members[max(range(m), key=lambda k: (orders[k], -k))]]
    current = set(G.closure_idx(gens))
    while len(current) < m:
        best, best_size = None, -1
        for cand in [i for i in members if i not in current][:48]:
            size = len(G.closure_idx(gens + [cand]))
            if size > best_size:
                best, best_size = cand, size
            if size == m:
                break
        gens.append(best)
        current = set(G.closure_idx(gens))
    changed = True
    while changed and len(gens) > 1:
        changed = False
        for k in range(len(gens)):
            trial = gens[:k] + gens[k + 1:]
            if len(G.closure_idx(trial)) == m:
                gens, changed = trial, True
                break
    return tuple(gens)


def _search(A: _Members, gens, B: _Members):
    """An isomorphism from A onto B, as the image of each of A's members, or
    None when there is none (the search space is exhausted).

    Each generator in turn is sent to a member of B with its invariants, and
    the map is closed on the tables over the generators fixed so far: x*g
    goes to f(x)f(g), a clash or a repeated image undoing the choice.  The
    closure is incremental: members mapped before g was fixed are closed
    under g alone, since they are closed under the earlier generators, and
    members mapped since then under every fixed generator.  Raises
    CapExceededError when the search visits _ISO_NODE_BUDGET nodes first.
    """
    wanted = [A.inv[A.members.index(g)] for g in gens]
    candidates = [list(itertools.compress(B.members, map(w.__eq__, B.inv))) for w in wanted]
    if not all(candidates):
        return None
    TA, TB, eA, eB = A.group.table(), B.group.table(), A.group.identity, B.group.identity
    gmap, hmap = [-1] * A.group.n, [-1] * B.group.n
    gmap[eA], hmap[eB] = eB, eA
    mapped, budget = [eA], [_ISO_NODE_BUDGET]

    def close(depth: int, start: int) -> bool:  # mapped[:start] is closed under gens[:depth]
        active = [(TA[g], TB[gmap[g]]) for g in gens[:depth + 1]]
        newest, qi = active[-1:], 0
        while qi < len(mapped):
            x = mapped[qi]
            fx = gmap[x]
            for ca, cb in newest if qi < start else active:
                y, fy = ca[x], cb[fx]
                if gmap[y] < 0:
                    if hmap[fy] >= 0:
                        return False
                    gmap[y], hmap[fy] = fy, y
                    mapped.append(y)
                elif gmap[y] != fy:
                    return False
            qi += 1
        return True

    def undo(start: int):
        for y in mapped[start:]:
            hmap[gmap[y]] = -1
            gmap[y] = -1
        del mapped[start:]

    def dfs(depth: int) -> bool:
        if depth == len(gens):
            return len(mapped) == len(A.members)
        g, start = gens[depth], len(mapped)
        forced = gmap[g] >= 0  # by an earlier level's closure: no choice left
        for h in [gmap[g]] if forced else candidates[depth]:
            if not forced:
                if hmap[h] >= 0:
                    continue
                budget[0] -= 1
                if budget[0] < 0:
                    raise CapExceededError("isomorphism search budget exhausted")
                gmap[g], hmap[h] = h, g
                mapped.append(g)
            if close(depth, start) and dfs(depth + 1):
                return True
            undo(start)
        return False

    return [gmap[x] for x in A.members] if dfs(0) else None


def _is_isomorphism(A: _Members, gens, B: _Members, image) -> bool:
    """Whether `image` (of each of A's members) is a bijection onto B's
    members that takes the identity to the identity and x*g to
    image(x)*image(g) for every member x and generator g; that suffices, by
    induction on word length, when `gens` generate A."""
    if len(image) != len(A.members) or sorted(image) != list(B.members):
        return False
    TA, TB, f = A.group.table(), B.group.table(), [-1] * A.group.n
    for x, y in zip(A.members, image):
        f[x] = y
    return f[A.group.identity] == B.group.identity and all(
        f[TA[g][x]] == TB[f[g]][f[x]] for g in gens for x in A.members)


def find_isomorphism(G: SmallGroup, H: SmallGroup):
    """An explicit isomorphism G -> H as an index list, or None.

    None means proven non-isomorphic (search space exhausted).  Raises
    CapExceededError when the search visits _ISO_NODE_BUDGET nodes first.
    """
    if G.n != H.n or G.fingerprint() != H.fingerprint():
        return None
    return _search(_whole(G), G.generating_set(), _whole(H))


def verify_isomorphism(G: SmallGroup, H: SmallGroup, mapping) -> bool:
    """Check mapping on every (element, generator) product; that suffices."""
    return _is_isomorphism(_whole(G), G.generating_set(), _whole(H), mapping)


# ---------------------------------------------------------------------------
# subgroup lattice and census

def all_subgroups(G: SmallGroup, cap_order=SUBGROUP_ORDER_CAP, cap_count=_SUBGROUP_COUNT_CAP):
    """Every subgroup of G as sorted index tuples, smallest first.

    Cyclic extension (Neubueser 1960; GAP's LatticeByCyclicExtension): a
    solvable U > 1 has a normal subgroup V of prime index p, and U = V<x>
    for any x of p-power order in U but not in V; such an x normalizes V
    and has x^p in V.  So the lattice grows layer by layer from the trivial
    group: each V is extended by every x of prime-power order p^a with x
    not in V, x^p in V and x normalizing V, and V<x> is the union of the
    cosets V x^k, k < p, read off the table without a closure.  An x inside
    a V<x'> already found from V gives V<x'> again and is skipped.  The
    layers reach G exactly when G is solvable.  Otherwise only the
    non-solvable subgroups are missing, and joins with the cyclic
    subgroups, from everything found, complete the lattice.  Either way the
    p-subgroup counts must obey Frobenius and Sylow (`_require_p_counts`).
    """
    if G.n > cap_order:
        raise CapExceededError("group order %d over enumeration cap %d" % (G.n, cap_order))
    subs = {}  # subgroup -> generators

    def add(sub, gens):
        if len(subs) >= cap_count:
            raise CapExceededError("subgroup count cap %d hit" % cap_count)
        subs[sub] = gens

    _cyclic_extension(G, subs, add)
    if tuple(range(G.n)) not in subs:
        _join_completion(G, subs, add)
    _require_p_counts(G.n, subs)
    return sorted(subs, key=lambda t: (len(t), t))


def _cyclic_extension(G: SmallGroup, subs: dict, add):
    """The layers of cyclic extension from the trivial group, through add.

    V's extenders, the x of order p^a > 1 with x not in V, x^p in V and
    x^-1 g x in V for each generator g of V, are one mask ANDed from C-level
    gathers of V's membership bytes, each generator's conjugates made once."""
    cols, (orders, inverse, S) = G.table(), G._walk
    n, e, ords, inv = G.n, G.identity, orders.tolist(), inverse.tolist()
    prime = {o: f[0][0] for o in set(ords) if len(f := arith.factorize(o)) == 1}
    ext = [x for x in range(n) if ords[x] in prime]

    def gather(images):  # two trailing identities keep itemgetter's result a tuple
        get = operator.itemgetter(*images, e, e)
        return lambda in_v: int.from_bytes(bytes(get(in_v)), "little")

    inside, pth = gather(ext), gather(S[[prime[ords[x]] for x in ext], ext].tolist())
    conj = {}  # generator g -> the gather at x^-1 g x for each extender x

    add((e,), ())
    layer = [((e,), ())]
    while layer:
        fresh = []
        for V, gens in layer:
            in_v = bytearray(n)
            for v in V:
                in_v[v] = 1
            ok = pth(in_v) & ~inside(in_v)
            for g in gens:
                if g not in conj:
                    conj[g] = gather([cols[x][cols[g][inv[x]]] for x in ext])
                ok &= conj[g](in_v)
            covered = bytearray(in_v)
            for x in itertools.compress(ext, ok.to_bytes(len(ext) + 2, "little")):
                if covered[x]:
                    continue
                mask = bytearray(in_v)
                for k in range(1, prime[ords[x]]):
                    cy = cols[S[k, x]]
                    for v in V:
                        w = cy[v]
                        mask[w] = covered[w] = 1
                W = tuple(itertools.compress(range(n), mask))
                if W in subs:
                    continue
                add(W, gens + (x,))
                fresh.append((W, gens + (x,)))
        layer = fresh


def _join_completion(G: SmallGroup, subs: dict, add):
    """Joins of everything found with the cyclic subgroups, until none is new."""
    cyclic = {}
    for i in range(G.n):
        cyclic.setdefault(G.closure_idx([i]), (i,))
    cyclic_items = sorted(cyclic.items(), key=lambda kv: (len(kv[0]), kv[0]))
    frontier = list(subs)
    while frontier:
        fresh = []
        for S in frontier:
            sset = set(S)
            sgens = subs[S]
            for C, cgens in cyclic_items:
                if cgens[0] in sset:
                    continue
                gens = tuple(dict.fromkeys(sgens + cgens))
                J = G.closure_idx(gens)
                if J not in subs:
                    add(J, gens)
                    fresh.append(J)
        frontier = fresh


def _require_p_counts(n: int, subs):
    """Frobenius (1895): for every p^k dividing n, the subgroups of order p^k
    number 1 mod p.  Sylow: the Sylow p-subgroups number a divisor of n/p^a."""
    counts = Counter(len(s) for s in subs)
    for p, a in arith.factorize(n):
        for k in range(1, a + 1):
            require(counts[p**k] % p == 1, "%d subgroups of order %d^%d, not 1 mod %d"
                    % (counts[p**k], p, k, p))
        require(n // p**a % counts[p**a] == 0, "%d Sylow %d-subgroups do not divide %d"
                % (counts[p**a], p, n // p**a))


def _classify(fps, search, check):
    """Isomorphism classes of the objects 0, 1, ... with fingerprints `fps`.

    Objects are compared only within a fingerprint, each with the
    representative of every class found so far there: search(r, k) returns
    a map from r onto k or None, and a map that check(r, k, map) rejects
    raises PropertyViolationError.  Returns (classes, witnesses) as
    `iso_classes` does.
    """
    buckets = {}
    for k, fp in enumerate(fps):
        buckets.setdefault(fp, []).append(k)
    classes, witnesses = [], {}
    for fp in sorted(buckets, key=lambda f: (f.order, f.order_hist, f.class_profile)):
        reps = []  # indices into classes
        for k in buckets[fp]:
            for ci in reps:
                mapping = search(classes[ci][0], k)
                if mapping is not None:
                    if not check(classes[ci][0], k, mapping):
                        raise PropertyViolationError("search returned a non-isomorphism")
                    classes[ci].append(k)
                    witnesses[k] = mapping
                    break
            else:
                reps.append(len(classes))
                classes.append([k])
    classes.sort(key=lambda c: c[0])
    return classes, witnesses


def iso_classes(groups):
    """Partition groups into isomorphism classes.

    Returns (classes, witnesses): classes is a list of index lists, each led
    by its representative; witnesses maps a member index to a verified
    mapping list from the class representative onto that member.
    """
    return _classify([g.fingerprint() for g in groups],
                     lambda r, k: find_isomorphism(groups[r], groups[k]),
                     lambda r, k, mapping: verify_isomorphism(groups[r], groups[k], mapping))


def sigma_counts(G: SmallGroup, cap_order=SUBGROUP_ORDER_CAP, iso_order_cap=ISO_ORDER_CAP):
    """(number of subgroups, number of isomorphism types of subgroups).

    The subgroups stay index tuples on G's table: their invariants come from
    one `subset_invariants` pass, and each isomorphism is searched for and
    verified on G's table, from one member list to another.
    """
    if G.n > iso_order_cap:  # G is one of its own subgroups
        raise CapExceededError("a subgroup exceeds the iso cap %d" % iso_order_cap)
    subs = all_subgroups(G, cap_order=cap_order)
    invariants = G.subset_invariants(subs)
    parts = [_Members(G, s, inv) for s, (_, inv) in zip(subs, invariants)]
    @functools.cache
    def gens_of(r):  # a class representative's generators, chosen once
        return _generators(G, subs[r], [o for o, _ in parts[r].inv])

    classes, _ = _classify([fp for fp, _ in invariants],
                           lambda r, k: _search(parts[r], gens_of(r), parts[k]),
                           lambda r, k, image: _is_isomorphism(parts[r], gens_of(r), parts[k], image))
    sigma = len(subs)
    sigma_iso = len(classes)
    require(sigma_iso <= sigma, "more isomorphism types than subgroups")
    if math.log2(sigma) > arith.wall_log_bound(G.n) + 1e-9:
        raise PropertyViolationError("subgroup count violates the generation bound")
    return sigma, sigma_iso


# ---------------------------------------------------------------------------
# stock constructions for tests and oracles

def _pcompose(a, b):
    # apply b first, then a
    return tuple(a[x] for x in b)


def perm_parity(p) -> int:
    seen = [False] * len(p)
    parity = 0
    for i in range(len(p)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = p[j]
            length += 1
        parity ^= (length - 1) & 1
    return parity


def symmetric_group(n: int) -> SmallGroup:
    return SmallGroup(sorted(itertools.permutations(range(n))), _pcompose, name="Sym%d" % n)


def alternating_group(n: int) -> SmallGroup:
    labs = [p for p in itertools.permutations(range(n)) if perm_parity(p) == 0]
    return SmallGroup(sorted(labs), _pcompose, name="Alt%d" % n)


def cyclic_group(n: int) -> SmallGroup:
    return SmallGroup(range(n), lambda a, b: (a + b) % n, name="C%d" % n)


def dihedral_group(n: int) -> SmallGroup:
    """Dihedral group of order 2n (symmetries of the n-gon)."""
    if n < 3:
        raise InvalidConfigError("dihedral groups need n >= 3")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((n - i) % n for i in range(n))
    return SmallGroup.from_generators(_pcompose, [rot, ref], name="D%d" % (2 * n))


def direct_product(G: SmallGroup, H: SmallGroup) -> SmallGroup:
    labels = [(a, b) for a in G.labels for b in H.labels]
    gm, hm = G._mul_label, H._mul_label
    return SmallGroup(labels, lambda x, y: (gm(x[0], y[0]), hm(x[1], y[1])))


def unitriangular_group(d: int, ctx) -> SmallGroup:
    """Upper unitriangular d x d matrices over the given field."""
    from .linalg import Matrix

    positions = [(i, j) for i in range(d) for j in range(i + 1, d)]
    labels = []
    for vals in itertools.product(range(ctx.order), repeat=len(positions)):
        rows = [[1 if i == j else 0 for j in range(d)] for i in range(d)]
        for (i, j), v in zip(positions, vals):
            rows[i][j] = v
        labels.append(tuple(tuple(r) for r in rows))
    def mul(a, b):
        return Matrix(ctx, a).mul(Matrix(ctx, b)).rows
    return SmallGroup(labels, mul, name="U%d(GF%d)" % (d, ctx.order))
