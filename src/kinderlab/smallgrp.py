"""Concrete finite groups small enough to enumerate, with subgroup and
isomorphism-class census tooling.

A SmallGroup wraps an explicit element list plus a multiplication callable on
labels.  Everything downstream works on integer indices.  The group's order
alone decides where a product comes from.  Up to SUBGROUP_ORDER_CAP every
product is read from one complete column-major table, an int16 [n, n] array
(column j holds i*j for every i), built by `table()` on first use; the
Python paths read its columns as lists made on first use (`_column`).  Above
the cap every product is a label product and no column is ever started, so
a group of 2^14 elements that is only ever closed under a few generators
never pays for n^2 products.  Subgroups are sorted index tuples on the
array.  One power walk over the array gives every element's order, inverse
and powers, for `order_of`, `inverse_idx`, the invariants, the lattice and
`commutators`, the library's one bracket (a gather on the array).

The subgroup lattice is built by cyclic extension (Neubueser 1960) on the
complete table, from the trivial group and, when the order rule certifies
it, from the perfect core G^(oo); joins of cyclic subgroups finish only the
groups the rule does not certify.  Each subgroup found is registered with
its whole conjugacy class, the orbit under conjugations verified on the
table to be automorphisms, so only class representatives are extended, and
`sigma_counts` classifies one subgroup per class.

Invariants (element orders, class sizes, centre, derived series,
abelianisation) come from one numpy pass over the array for any number of
subgroups: `sigma_counts` runs it once for the whole lattice, and a lone
group's `fingerprint` is the same pass over [G].  It forms no |H|^2
products: H' is generated by the [x, g], x in H and g in a generating set
of H (their subgroup N is normal, as [x, g]^h = [xh, g][h, g]^-1, and H/N
is abelian, as every generator is central in it).  The lattice records
generators of each subgroup it finds; any other subset is generated by its
own members.  Centraliser orders are one float32 product of the
membership rows with the commuting mask.

The isomorphism test is a backtracking search over generator images, each
from a candidate list the caller gives (the members with its element
invariants, or the nursery census's one image), with the homomorphism
property enforced incrementally during closure.  It maps one member list
onto another, on one table (two subgroups of G) or two (two whole groups).
When the search exhausts, no map sends the generators among their
candidates; a found map is verified on every (element, generator) pair,
which is sufficient by induction on word length.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections import Counter
from typing import NamedTuple, Sequence

import numpy as np

from . import arith
from .errors import CapExceededError, InvalidConfigError, PropertyViolationError, require

SUBGROUP_ORDER_CAP = 2048
GROUP_ORDER_CAP = 1 << 14  # the largest whole group built on label products (nursery, B2)
ISO_ORDER_CAP = 512
_SUBGROUP_COUNT_CAP = 100000
_ISO_NODE_BUDGET = 5 * 10**6
_BATCH_CELLS = 1 << 20
# the orders of the non-abelian simple groups up to SUBGROUP_ORDER_CAP
_SIMPLE_ORDERS = (60, 168, 360, 504, 660, 1092)


# the int objects of range(n), which columns share above 256 (CPython shares
# those up to 256): tolist() makes one per entry, 4.5x the memory
_INTS = np.array(range(SUBGROUP_ORDER_CAP), dtype=object)


class SmallGroup:
    """A finite group on explicit labels, with two stores of products.

    Up to SUBGROUP_ORDER_CAP elements, the complete table, which `table()`
    builds on first use; `columns` is passed only by `cut`, a subgroup's
    table gathered from its parent's.  Orders and inverses come from its
    power walk (`_walk`), and the Python paths read column j as the list
    `_column(j)`.  Above the cap, label products, one at a time.
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
        self._cols = [None] * self.n  # column j of the table as a list, None until read
        self._order_inv = self._elem_inv = self._gens = self._fp = None
        self._sub_gens, self._sub_classes = {}, {}  # from all_subgroups
        if columns is not None:
            idempotents = np.flatnonzero(self._T.diagonal() == np.arange(self.n)).tolist()
        else:  # label products: mul_idx here would build the table
            idempotents = [i for i, lab in enumerate(self.labels) if self._mul_label(lab, lab) == lab]
        if len(idempotents) != 1:
            raise InvalidConfigError("element set is not a group (idempotents: %d)" % len(idempotents))
        self.identity = idempotents[0]

    # -- construction helpers

    @classmethod
    def from_generators(cls, mul, gens, name=None):
        """Closure of the given labels under mul (BFS, deterministic order), of
        at most SUBGROUP_ORDER_CAP elements."""
        seen = dict.fromkeys(gens)
        queue = list(seen)
        for x in queue:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    if len(seen) >= SUBGROUP_ORDER_CAP:
                        raise CapExceededError("closure exceeded cap %d" % SUBGROUP_ORDER_CAP)
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
        """The index of i*j: column j of the table (`_column`) up to
        SUBGROUP_ORDER_CAP, a label product above it."""
        if self.n > SUBGROUP_ORDER_CAP:
            return self._idx[self._mul_label(self.labels[i], self.labels[j])]
        return self._column(j)[i]

    def _column(self, j: int) -> list:
        """Column j of the complete table as a list, made on first use."""
        col = self._cols[j]
        if col is None:
            T = self.table()
            col = self._cols[j] = (T[j] if self.n <= 257 else _INTS[T[j]]).tolist()
        return col

    def table(self) -> np.ndarray:
        """The complete multiplication table, an int16 [n, n] array T: T[j, i]
        is the index of i*j.

        Built on first call.  Only the columns of a generating set, picked
        in index order, cost label products; every other is a composition of
        known ones, T[x*g] = T[g][T[x]], since i*(x*g) = (i*x)*g.
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
            self._T = T
        return self._T

    def cut(self, members, name=None) -> "SmallGroup":
        """The subgroup on `members` (indices, in the order given), its table
        gathered from this group's (built if need be): PropertyViolationError
        unless every product lands among the members.  Above SUBGROUP_ORDER_CAP,
        where no table exists, its products are label products."""
        at = np.asarray(members, np.intp)
        labels = [self.labels[i] for i in at.tolist()]
        if self.n > SUBGROUP_ORDER_CAP:
            return SmallGroup(labels, self._mul_label, name=name)
        pos = np.full(self.n, -1, np.int16)
        pos[at] = np.arange(len(at))
        table = pos[self.table()[at][:, at]]  # about 2x faster than T[np.ix_(at, at)]
        require(table.min() >= 0, "a product leaves the %s" % (name or "subgroup"))
        return SmallGroup(labels, self._mul_label, name=name, columns=table)

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

    def _order_inverse(self, i: int) -> tuple:
        """(order, inverse) of i, from the power walk up to SUBGROUP_ORDER_CAP;
        above it by walking x -> x*i on label products, kept per element."""
        if self._order_inv is None:
            self._order_inv = [None] * self.n if self.n > SUBGROUP_ORDER_CAP else list(
                zip(*(a.tolist() for a in self._walk[:2])))
        if self._order_inv[i] is None:
            k, y, x = 1, self.identity, i
            while x != self.identity:
                y, x, k = x, self.mul_idx(x, i), k + 1
            self._order_inv[i] = k, y
        return self._order_inv[i]

    def inverse_idx(self, i: int) -> int:
        return self._order_inverse(i)[1]

    def order_of(self, i: int) -> int:
        return self._order_inverse(i)[0]

    def element_orders(self) -> list:
        if self.n > SUBGROUP_ORDER_CAP:
            return [self.order_of(i) for i in range(self.n)]
        return self._walk[0].tolist()

    def commutator_idx(self, i: int, j: int) -> int:
        """[i, j] = (ji)^-1 ij: an inverse only when i and j do not commute."""
        ij, ji = self.mul_idx(i, j), self.mul_idx(j, i)
        return self.identity if ij == ji else self.mul_idx(self.inverse_idx(ji), ij)

    def commutators(self, xs, ys) -> np.ndarray:
        """The [len(xs), len(ys)] indices of [x, y] = x^-1 y^-1 x y = (yx)^-1 xy:
        T[T[y, x], inv[T[x, y]]], one gather in the int16 of the complete table
        T (T[j, i] = i*j, inverses from `_walk`); above SUBGROUP_ORDER_CAP,
        `commutator_idx` per pair, on label products."""
        if self.n > SUBGROUP_ORDER_CAP:
            return np.array([[self.commutator_idx(x, y) for y in ys] for x in xs],
                            np.int64).reshape(len(xs), len(ys))
        T, x, y = self.table(), np.asarray(xs, np.int16)[:, None], np.asarray(ys, np.int16)
        return T[T[y, x], self._walk[1][T[x, y]]]

    def commute(self, xs, ys) -> np.ndarray:
        """The bool [len(xs), len(ys)] mask of xy == yx: T[y, x] == T[x, y] on the
        complete table, two label products per pair above SUBGROUP_ORDER_CAP."""
        if self.n > SUBGROUP_ORDER_CAP:
            return np.array([[self.mul_idx(x, y) == self.mul_idx(y, x) for y in ys] for x in xs],
                            bool).reshape(len(xs), len(ys))
        T, x, y = self.table(), np.asarray(xs, np.int16)[:, None], np.asarray(ys, np.int16)
        return T[y, x] == T[x, y]

    # -- structural subsets (all as sorted index tuples)

    def closure_idx(self, seeds) -> tuple:
        seeds = list(dict.fromkeys(seeds)) or [self.identity]
        seen, queue, big = set(seeds), list(seeds), self.n > SUBGROUP_ORDER_CAP
        steps = [(g, None if big else self._column(g)) for g in seeds]
        for x in queue:
            for g, col in steps:
                y = self.mul_idx(x, g) if col is None else col[x]
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        seen.add(self.identity)
        return tuple(sorted(seen))

    def span_idx(self, elements) -> tuple:
        """The subgroup the elements generate, closed only on those that enlarge it."""
        return _span(self, elements)[0]

    def span_gens(self, elements) -> tuple:
        """The elements that enlarged the span as `span_idx` closed it: generators of it."""
        return _span(self, elements)[1]

    def generating_set(self) -> tuple:
        """A small generating set, greedy by closure growth (`_generators`)."""
        if self._gens is None:
            self._gens = _generators(self, range(self.n), self.element_orders())
        return self._gens

    # -- invariants

    def fingerprint(self) -> "IsoFingerprint":
        """The subset invariants of [G]: needs the table, so n <= SUBGROUP_ORDER_CAP."""
        if self._fp is None:
            [(self._fp, self._elem_inv)] = self.subset_invariants([range(self.n)])
        return self._fp

    def subset_invariants(self, subsets) -> list:
        """(IsoFingerprint, [(order, class size) per member]) of each subgroup.

        One numpy pass over the group's array T, T[j, i] = i*j, and its power
        walk serves all the subgroups (sorted index tuples).  H' is the
        subgroup N that `_commutator_rows`' [x, g], g in a generating set of
        H, generate: N is normal, as [x, g]^h = [xh, g][h, g]^-1, and H/N is
        abelian, as each g is central in it.  The row is squared until it is
        one of the subgroups or closed, and then appended, so that its own H'
        follows.  |C_H(x)| is one float32 product (exact below 2^24) of the
        membership rows with the commuting mask T == T^T; x's class has
        |H| / |C_H(x)| elements, 1 in Z(H).  xH' has order the least k with
        x^k in H'.  Batches hold _BATCH_CELLS // n subgroups.
        """
        n, R = self.n, max(1, _BATCH_CELLS // self.n)
        (orders, _, S), T, flat = self._walk, self._T, self._T.ravel()  # p*q = flat[q*n + p]
        ks = np.array([k for k in range(1, len(S)) if (len(S) - 1) % k == 0])  # divisors of the exponent
        subs = [tuple(s) for s in subsets]
        count, index, link, derived = len(subs), {s: r for r, s in enumerate(subs)}, [], []
        while len(link) < len(subs):
            end = len(subs)
            for r0 in range(len(link), end, R):
                D = _commutator_rows(self, subs[r0:min(r0 + R, end)])
                derived.append(D)  # its rows become H' below, squared in place
                rows, cols = D.nonzero()
                cut, keys, cols = np.bincount(rows, minlength=len(D)).cumsum().tolist(), cols.tolist(), \
                    cols.astype(np.int32)
                for Y, a, b in zip(D, [0] + cut, cut):
                    X, key = cols[a:b], tuple(keys[a:b])
                    while key not in index:  # not a subgroup yet: square it, in D's row
                        for i in range(0, len(X), w := max(1, _BATCH_CELLS // len(X))):
                            Y[flat[X[i:i + w, None] * n + X]] = True
                        if Y.sum() == len(X):
                            break
                        X = Y.nonzero()[0].astype(np.int32)
                        key = tuple(X.tolist())
                    link.append(index.setdefault(key, len(subs)))
                    if link[-1] == len(subs):
                        subs.append(key)

        @functools.cache
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
        for r0, in_d in zip(range(0, count, R), derived):
            batch = subs[r0:r0 + len(in_d)]
            sizes = np.array([len(s) for s in batch])
            rr = np.repeat(np.arange(len(batch)), sizes)
            xx = np.fromiter(itertools.chain.from_iterable(batch), np.int32, len(rr))
            M = np.zeros((len(batch), n), np.float32)
            M[rr, xx] = 1
            cent = (M @ (T == T.T).astype(np.float32))[rr, xx].astype(np.int64)  # |C_H(x)|
            first = ks[in_d[rr[:, None], S[ks][:, xx].T].argmax(axis=1)]  # the order of xH'
            codes, at = np.unique(orders[xx] * (n + 1) + sizes[rr] // cent, return_inverse=True)
            pairs = [divmod(v, n + 1) for v in codes.tolist()]  # (order, class size), one tuple each
            each, off = [pairs[i] for i in at.tolist()], 0
            for r, hist, profile, ab in zip(range(r0, r0 + len(batch)), *(
                    per_row(rr, v, len(batch)) for v in (orders[xx], at, first))):
                m, profile = len(subs[r]), tuple((pairs[v], c) for v, c in profile)
                out.append((IsoFingerprint(
                    order=m, order_hist=tuple(hist), derived_orders=series(r),
                    center_order=sum(c for (_, z), c in profile if z == 1),
                    abelian_hist=tuple((v, c // len(subs[link[r]])) for v, c in ab),
                    exponent=math.lcm(*(o for o, _ in hist)), class_profile=profile,
                ), each[off:off + m]))
                off += m
        return out

    def __repr__(self):
        return "SmallGroup(n=%d%s)" % (self.n, ", %s" % self.name if self.name else "")


def _span(G: SmallGroup, elements):
    """(the subgroup the elements generate, those that enlarged it): `span_idx`."""
    sub, inside, seeds = (G.identity,), {G.identity}, []
    for c in elements:
        if c not in inside:
            seeds.append(c)
            sub = G.closure_idx(seeds)
            inside = set(sub)
    return sub, tuple(seeds)


def _commutator_rows(G: SmallGroup, batch) -> np.ndarray:
    """A membership row per subgroup H in batch (sorted index tuples) of e and
    every [x, g] = x^-1 g^-1 x g, x in H and g in H's generators: those
    `all_subgroups` recorded, or else H's members.  The (x, g) pairs of all
    rows are numbered in one sequence, each member once per generator of its
    row, and gathered in runs of at most _BATCH_CELLS // 8 (8-byte indices)."""
    n, flat, inv = G.n, G._T.ravel(), G._walk[1].astype(np.intp)  # p*q = flat[q*n + p]
    gens = [G._sub_gens.get(s, s) for s in batch]
    m, k = (np.array([len(t) for t in ts], np.intp) for ts in (batch, gens))
    rr = np.repeat(np.arange(len(batch)), m)
    xs = np.fromiter(itertools.chain.from_iterable(batch), np.intp, len(rr))
    gs = np.fromiter(itertools.chain.from_iterable(gens), np.intp, k.sum())
    ks = k[rr]
    start = np.cumsum(ks) - ks  # a member's first pair
    first = (np.cumsum(k) - k)[rr] - start  # plus a pair's number: its generator's place in gs
    D = np.zeros((len(batch), n), bool)
    D[:, G.identity] = True
    step = max(1, _BATCH_CELLS // 8 // max(1, k.max()))  # members a run
    for a in range(0, len(xs), step):
        x, r = np.repeat(xs[a:a + step], ks[a:a + step]), np.repeat(rr[a:a + step], ks[a:a + step])
        g = gs[np.repeat(first[a:a + step], ks[a:a + step]) + start[a] + np.arange(len(x))]
        c = x * n + inv[g]  # at g^-1 x
        c = g * n + flat[c]  # at g^-1 x g
        D[r, flat[flat[c].astype(np.intp) * n + inv[x]]] = True  # x^-1 g^-1 x g = [x, g]
    return D


class IsoFingerprint(NamedTuple):
    order: int
    order_hist: tuple
    center_order: int
    derived_orders: tuple
    abelian_hist: tuple
    exponent: int
    class_profile: tuple


# ---------------------------------------------------------------------------
# isomorphism search

class _Members(NamedTuple):
    """A subgroup of `group` as its sorted member indices, with each member's
    (order, class size) in the subgroup, as `subset_invariants` gives them,
    or None where the caller gives `_search` its candidates."""
    group: SmallGroup
    members: Sequence
    inv: list | None


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
    for g in list(gens):  # a generator the others need stays needed as others go
        if len(gens) > 1 and len(G.closure_idx([h for h in gens if h != g])) == m:
            gens.remove(g)
    return tuple(gens)


def _candidates(A: _Members, gens, B: _Members) -> list:
    """For each generator of A, the members of B with its invariants."""
    wanted = [A.inv[A.members.index(g)] for g in gens]
    return [list(itertools.compress(B.members, map(w.__eq__, B.inv))) for w in wanted]


def _search(A: _Members, gens, B: _Members, candidates):
    """An isomorphism from A onto B that sends each generator to one of its
    `candidates` (a list of B's members per generator), as the image of each
    of A's members, or None when there is none (the search space is
    exhausted).  A and B's `inv` are not read.

    Each generator in turn is sent to one of its candidates, and the map is
    closed on the tables over the generators fixed so far: x*g goes to
    f(x)f(g), a clash or a repeated image undoing the choice.  The closure
    is incremental: members mapped before g was fixed are closed under g
    alone, since they are closed under the earlier generators, and members
    mapped since then under every fixed generator.  Each choice takes the
    pair of columns (g in A, its image in B) once.  Raises CapExceededError
    when the search visits _ISO_NODE_BUDGET nodes first.
    """
    if not all(candidates):
        return None
    GA, GB, eA, eB = A.group, B.group, A.group.identity, B.group.identity
    gmap, hmap = [-1] * GA.n, [-1] * GB.n
    gmap[eA], hmap[eB] = eB, eA
    mapped, budget = [eA], [_ISO_NODE_BUDGET]

    def close(active, start: int) -> bool:  # mapped[:start] is closed under all but the last
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

    def dfs(depth: int, fixed: list) -> bool:  # fixed: the column pairs of gens[:depth]
        if depth == len(gens):
            return len(mapped) == len(A.members)
        g, start = gens[depth], len(mapped)
        forced, ca = gmap[g] >= 0, GA._column(g)  # forced by an earlier level's closure
        for h in [gmap[g]] if forced else candidates[depth]:
            if not forced:
                if hmap[h] >= 0:
                    continue
                budget[0] -= 1
                if budget[0] < 0:
                    raise CapExceededError("isomorphism search budget exhausted")
                gmap[g], hmap[h] = h, g
                mapped.append(g)
            active = fixed + [(ca, GB._column(h))]
            if close(active, start) and dfs(depth + 1, active):
                return True
            undo(start)
        return False

    found, dfs = dfs(0, []), None  # a recursive closure is a cycle: it would hold both groups until gc
    return [gmap[x] for x in A.members] if found else None


def _is_isomorphism(A: _Members, gens, B: _Members, image) -> bool:
    """Whether `image` (of each of A's members) is a bijection onto B's
    members that takes the identity to the identity and x*g to
    image(x)*image(g) for every member x and generator g; that suffices, by
    induction on word length, when `gens` generate A."""
    if len(image) != len(A.members) or sorted(image) != list(B.members):
        return False
    f = [-1] * A.group.n
    for x, y in zip(A.members, image):
        f[x] = y
    cols = [(A.group._column(g), B.group._column(f[g])) for g in gens]
    return f[A.group.identity] == B.group.identity and all(
        f[ca[x]] == cb[f[x]] for ca, cb in cols for x in A.members)


def find_isomorphism(G: SmallGroup, H: SmallGroup):
    """An explicit isomorphism G -> H as an index list, or None.

    None means proven non-isomorphic (search space exhausted); a map found
    is verified, PropertyViolationError if it fails.  Raises
    CapExceededError when the search visits _ISO_NODE_BUDGET nodes first.
    """
    if G.n != H.n or G.fingerprint() != H.fingerprint():
        return None
    A, B = (_Members(X, range(X.n), X._elem_inv) for X in (G, H))
    gens = G.generating_set()
    mapping = _search(A, gens, B, _candidates(A, gens, B))
    if mapping is not None and not _is_isomorphism(A, gens, B, mapping):
        raise PropertyViolationError("search returned a non-isomorphism")
    return mapping


def verify_isomorphism(G: SmallGroup, H: SmallGroup, mapping) -> bool:
    """Check mapping on every (element, generator) product; that suffices."""
    A, B = (_Members(X, range(X.n), None) for X in (G, H))
    return _is_isomorphism(A, G.generating_set(), B, mapping)


# ---------------------------------------------------------------------------
# subgroup lattice and census

def all_subgroups(G: SmallGroup):
    """Every subgroup of G as sorted index tuples, smallest first.

    Cyclic extension (Neubueser 1960; GAP's LatticeByCyclicExtension): if V
    is normal of prime index p in U, then U = V<x> for any x of p-power
    order in U but not in V; such an x normalizes V and has x^p in V.  So
    each V of a layer is extended by every such x (V<x> is the cosets V x^k,
    k < p, read off the table), skipping an x inside a V<x'> already found.
    From the trivial group the layers reach every solvable subgroup, and
    any other H from its perfect residual H^(oo) <= P = G^(oo).  If no
    proper divisor of |P| is a multiple of a non-abelian simple order
    (_SIMPLE_ORDERS), every proper subgroup of P is solvable, so H^(oo) = P:
    a second extension, from P, finishes the lattice (Alt5, Sym5,
    PSL(2,7)).  Where the rule does not certify P (SL(2,5), Alt6), joins
    with the cyclic subgroups complete it.

    Each subgroup found is registered with its whole conjugacy class
    (`_conjugacy_class`, under conjugations checked on the table to be
    automorphisms), so the stages go on only from class representatives;
    they still reach every class, as U = V<x> gives U^g = V^g<x^g> (likewise
    for joins).  Every path ends with the p-subgroup counts
    (`_require_p_counts`) and the class sizes, each dividing |G|, adding up
    to the subgroup count.  G keeps every subgroup's generators and each
    representative's class size.  G's table caps it at SUBGROUP_ORDER_CAP.
    """
    subs, classes = {}, {}  # subgroup -> generators; representative -> class size
    T, inv, hs = G.table(), G._walk[1], np.array(G.span_gens(range(G.n)), np.intp)
    pi = T[hs[:, None], T[:, inv[hs]].T]  # pi[i, x] = h_i^-1 x h_i
    if not (pi[:, T[hs]] == T[pi[:, hs, None], pi[:, None]]).all():  # pi(x h') = pi(x) pi(h')
        raise PropertyViolationError("a conjugation is not a homomorphism of the group")
    conj = pi[(pi != np.arange(G.n)).any(axis=1)].tolist()  # a central h acts trivially

    def add(sub, gens):
        orbit = _conjugacy_class(sub, gens, conj)
        if len(subs) + len(orbit) > _SUBGROUP_COUNT_CAP:
            raise CapExceededError("subgroup count cap %d hit" % _SUBGROUP_COUNT_CAP)
        subs.update(orbit)
        classes[sub] = len(orbit)

    _cyclic_extension(G, subs, add)
    if tuple(range(G.n)) not in subs:
        P, gens = _perfect_core(G)
        if any(len(P) % d == 0 for s in _SIMPLE_ORDERS for d in range(s, len(P), s)):
            _join_completion(G, subs, add)
        else:
            add(P, gens)
            _cyclic_extension(G, subs, add, [(P, gens)])
    _require_p_counts(G.n, subs)
    sizes = list(classes.values())
    require(sum(sizes) == len(subs) and not any(G.n % c for c in sizes), "conjugacy classes hold "
            "%d subgroups, not %d, or a class size does not divide %d" % (sum(sizes), len(subs), G.n))
    G._sub_gens, G._sub_classes = subs, classes
    return sorted(subs, key=lambda t: (len(t), t))


def _conjugacy_class(sub, gens, conj) -> dict:
    """{conjugate: its generators} of sub's class, sub first: a breadth-first
    walk under the conjugations `conj` (lists, x -> h^-1 x h), each
    conjugate's generators mapped by the same conjugation as its members.
    An h that keeps U's generators inside U fixes U, as U^h has |U| members."""
    orbit, queue = {sub: gens}, [sub]
    for U in queue:
        inside = set(U)
        for h in conj:
            images = tuple(map(h.__getitem__, orbit[U]))
            if inside.issuperset(images):
                continue
            V = tuple(sorted(map(h.__getitem__, U)))
            if V not in orbit:
                orbit[V] = images
                queue.append(V)
    return orbit


def _perfect_core(G: SmallGroup):
    """(G^(oo), generators of it): down the derived series, each term spanned
    by the [x, g], x in the term before and g in that term's generators."""
    P, gens = _span(G, range(G.n))
    while True:
        Q, seeds = _span(G, G.commutators(P, gens).ravel().tolist())
        if len(Q) == len(P):
            return P, gens
        P, gens = Q, seeds


def _cyclic_extension(G: SmallGroup, subs: dict, add, layer=None):
    """The layers of cyclic extension through add, from `layer` ((subgroup,
    generators) pairs already added), or else from the trivial group.  V's
    extenders, the x of order p^a > 1 with x not in V, x^p in V and
    x^-1 g x in V for each generator g of V, are one mask ANDed from C-level
    gathers of V's membership bytes, each generator's conjugates made once."""
    col, (orders, inverse, S) = G._column, G._walk
    n, e, ords, inv = G.n, G.identity, orders.tolist(), inverse.tolist()
    prime = {o: f[0][0] for o in set(ords) if len(f := arith.factorize(o)) == 1}
    ext = [x for x in range(n) if ords[x] in prime]

    def gather(images):  # two trailing identities keep itemgetter's result a tuple
        get = operator.itemgetter(*images, e, e)
        return lambda in_v: int.from_bytes(bytes(get(in_v)), "little")

    inside, pth = gather(ext), gather(S[[prime[ords[x]] for x in ext], ext].tolist())
    conj = {}  # generator g -> the gather at x^-1 g x for each extender x

    if layer is None:
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
                    cg = col(g)
                    conj[g] = gather([col(x)[cg[inv[x]]] for x in ext])
                ok &= conj[g](in_v)
            covered = bytearray(in_v)
            for x in itertools.compress(ext, ok.to_bytes(len(ext) + 2, "little")):
                if covered[x]:
                    continue
                mask = bytearray(in_v)
                for k in range(1, prime[ords[x]]):
                    cy = col(S[k, x])
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
            sset, sgens = set(S), subs[S]
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
    """(classes, witnesses), as `iso_classes` returns them, of the objects 0,
    1, ... with fingerprints `fps` (any iterable), classified in index order.

    Each object is compared with the representative of every earlier class
    with its fingerprint, oldest first: search(r, k) returns a map from r
    onto k or None, and a map that check(r, k, map) rejects raises
    PropertyViolationError.
    """
    classes, witnesses, reps = [], {}, {}  # reps: fingerprint -> indices into classes
    for k, fp in enumerate(fps):
        for ci in reps.setdefault(fp, []):
            mapping = search(classes[ci][0], k)
            if mapping is not None:
                if not check(classes[ci][0], k, mapping):
                    raise PropertyViolationError("search returned a non-isomorphism")
                classes[ci].append(k)
                witnesses[k] = mapping
                break
        else:
            reps[fp].append(len(classes))
            classes.append([k])
    return classes, witnesses


def iso_classes(groups):
    """Partition groups (any iterable) into isomorphism classes.

    Returns (classes, witnesses): classes is a list of index lists, each led
    by its representative; witnesses maps a member index to a verified
    mapping list from the class representative onto that member.  Only the
    representatives and the group being classified are held (a member is let
    go once its map is verified), so a generator of groups is never held whole.
    """
    held, seen = {}, itertools.count()

    def hold(G):  # map() keeps no reference to the group before
        held[next(seen)] = G
        return G.fingerprint()

    return _classify(map(hold, groups), lambda r, k: find_isomorphism(held[r], held[k]),
                     lambda r, k, mapping: verify_isomorphism(held[r], held.pop(k), mapping))


def sigma_counts(G: SmallGroup, iso_order_cap=ISO_ORDER_CAP):
    """(number of subgroups, number of isomorphism types of subgroups).

    Conjugate subgroups are isomorphic, so only the class representatives
    `all_subgroups` records are classified, as index tuples on G's table:
    the invariants come from one `subset_invariants` pass, and each
    isomorphism is searched for and verified from one member list to another.
    """
    if G.n > iso_order_cap:  # G is one of its own subgroups
        raise CapExceededError("a subgroup exceeds the iso cap %d" % iso_order_cap)
    sigma, reps = len(all_subgroups(G)), list(G._sub_classes)
    invariants = G.subset_invariants(reps)
    parts = [_Members(G, s, inv) for s, (_, inv) in zip(reps, invariants)]
    @functools.cache
    def gens_of(r):  # a class representative's generators, chosen once
        return _generators(G, reps[r], [o for o, _ in parts[r].inv])

    def search(r, k):
        return _search(parts[r], gens_of(r), parts[k], _candidates(parts[r], gens_of(r), parts[k]))

    classes, _ = _classify([fp for fp, _ in invariants], search,
                           lambda r, k, image: _is_isomorphism(parts[r], gens_of(r), parts[k], image))
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
