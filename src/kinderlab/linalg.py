"""Exact dense linear algebra over a FieldCtx.

Matrices are immutable tuples of tuples of element codes.  Subspaces are held
in reduced row echelon form, so equal subspaces compare equal and hash equal.
Everything here is plain Gaussian elimination on the field's row kernels:
`rref`, `_reduce` and `Subspace.enumerate_vectors` step by `axpy` (x - f*y),
and `Matrix.mul` takes each entry as one `dot`.  The numpy fast path at the
bottom is `batch_rank`: one vectorized elimination over a [T, r, c] stack of
matrices, laid out by the batch shape, in integer arithmetic mod p over
prime fields and through the field's lookup tables, pivot rows normalised,
over GF(p^e) up to order TABLE_ORDER_CAP.  `ranks` is the one entry point
to it, and the one place that sends a field outside that range to `rref`;
`np_rank` is its T = 1 case.
"""

from __future__ import annotations

import itertools
import random

import numpy as np

from .errors import CapExceededError, InvalidConfigError, PropertyViolationError
from .gf import TABLE_ORDER_CAP, FieldCtx

ENUM_CAP = 10**7


class Matrix:
    """An nrows x ncols matrix.  ncols is taken from the rows when there are
    any; a matrix without rows needs it given, or it is 0 x 0."""

    __slots__ = ("ctx", "rows", "nrows", "ncols")

    def __init__(self, ctx: FieldCtx, rows, ncols=None):
        rows = tuple(tuple(r) for r in rows)
        if ncols is None:
            ncols = len(rows[0]) if rows else 0
        if any(len(r) != ncols for r in rows):
            raise InvalidConfigError("ragged matrix rows")
        self.ctx = ctx
        self.rows = rows
        self.nrows = len(rows)
        self.ncols = ncols

    @classmethod
    def identity(cls, ctx, n):
        return cls(ctx, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def random(cls, ctx, nrows, ncols, rng: random.Random):
        return cls(ctx, [[rng.randrange(ctx.order) for _ in range(ncols)] for _ in range(nrows)],
                   ncols)

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __getitem__(self, ij):
        return self.rows[ij[0]][ij[1]]

    def neg(self):
        f = self.ctx.neg
        return Matrix(self.ctx, [[f(a) for a in r] for r in self.rows], self.ncols)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise InvalidConfigError("shape mismatch %s @ %s" % (self.shape, other.shape))
        dot, cols = self.ctx.dot, list(zip(*other.rows)) if other.rows else [()] * other.ncols
        return Matrix(self.ctx, [[dot(r, c) for c in cols] for r in self.rows], other.ncols)

    def transpose(self):
        return Matrix(self.ctx, zip(*self.rows) if self.rows else [()] * self.ncols, self.nrows)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.ctx == other.ctx
                and self.shape == other.shape and self.rows == other.rows)

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.e, self.shape, self.rows))

    def __repr__(self):
        return "Matrix(%dx%d over GF(%d^%d))" % (self.nrows, self.ncols, self.ctx.p, self.ctx.e)


def rref(rows, ctx: FieldCtx):
    """Reduced row echelon form. Returns (nonzero rows as tuples, pivot columns)."""
    mat = [list(r) for r in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if mat else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = ctx.inv(mat[r][c])
        if inv != 1:
            mat[r] = [ctx.mul(inv, a) for a in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                mat[i] = ctx.axpy(mat[i], mat[i][c], mat[r])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def _reduce(work: list, rows, ctx: FieldCtx) -> list:
    """work minus f * row for each (pivot, row) in turn, f being work's entry
    at the pivot by then; a row is skipped where f is 0."""
    for c, row in rows:
        if work[c]:
            work = ctx.axpy(work, work[c], row)
    return work


class CoordSolver:
    """Coordinates with respect to a fixed independent family of rows.

    Row-reduces [rows | I] once; `coords` then expresses any vector in the
    original family (not the echelon one) or returns None.
    """

    def __init__(self, rows, ctx: FieldCtx):
        if not rows:
            raise InvalidConfigError("an empty family spans no space to take coordinates in")
        n = len(rows[0])
        k = len(rows)
        aug = []
        for i, row in enumerate(rows):
            tail = [0] * k
            tail[i] = 1
            aug.append(list(row) + tail)
        basis, pivots = rref(aug, ctx)
        if len(basis) != k or any(piv >= n for piv in pivots):
            raise InvalidConfigError("coordinate rows are linearly dependent")
        self.ctx = ctx
        self.n = n
        self.k = k
        self.rows = tuple(zip(pivots, basis))

    def coords(self, vec):
        ctx = self.ctx
        work = _reduce(list(vec) + [0] * self.k, self.rows, ctx)
        if any(work[: self.n]):
            return None
        return tuple(ctx.neg(x) for x in work[self.n :])


class Subspace:
    """A subspace of ctx^ambient_dim held as a canonical RREF basis."""

    __slots__ = ("ctx", "ambient_dim", "basis", "pivots")

    def __init__(self, ctx: FieldCtx, ambient_dim: int, basis, pivots=None):
        self.ctx = ctx
        self.ambient_dim = ambient_dim
        self.basis = tuple(tuple(r) for r in basis)
        if pivots is None:
            pivots = tuple(next(j for j, a in enumerate(row) if a) for row in self.basis)
        self.pivots = tuple(pivots)

    @classmethod
    def from_vectors(cls, ctx, ambient_dim, vectors):
        vectors = [tuple(v) for v in vectors]
        if any(len(v) != ambient_dim for v in vectors):
            raise InvalidConfigError("vector length != ambient dimension")
        basis, pivots = rref(vectors, ctx)
        return cls(ctx, ambient_dim, basis, pivots)

    @classmethod
    def _from_rref(cls, ctx, ambient_dim, basis, pivots):
        """From an RREF basis that is already a tuple of row tuples, kept as is."""
        space = object.__new__(cls)
        space.ctx, space.ambient_dim, space.basis, space.pivots = ctx, ambient_dim, basis, pivots
        return space

    @classmethod
    def zero(cls, ctx, ambient_dim):
        return cls(ctx, ambient_dim, [], [])

    @classmethod
    def full(cls, ctx, ambient_dim):
        return cls(ctx, ambient_dim, Matrix.identity(ctx, ambient_dim).rows, range(ambient_dim))

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Residue of vec modulo the subspace (zero iff vec is a member)."""
        return tuple(_reduce(list(vec), zip(self.pivots, self.basis), self.ctx))

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def enumerate_vectors(self):
        n = self.ctx.order**self.dim
        if n > ENUM_CAP:
            raise CapExceededError("subspace has %d vectors, cap %d" % (n, ENUM_CAP))
        axpy, neg, field = self.ctx.axpy, self.ctx.neg, range(self.ctx.order)
        vecs = [[0] * self.ambient_dim]  # the span of the rows so far, first coefficient slowest
        for row in self.basis:
            vecs = [axpy(v, neg(c), row) if c else v for v in vecs for c in field]
        yield from map(tuple, vecs)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and self.ctx == other.ctx
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return "Subspace(dim %d of GF(%d^%d)^%d)" % (self.dim, self.ctx.p, self.ctx.e, self.ambient_dim)


def rank_nullspace(m: Matrix):
    """(rank, row space, null space) of m, the latter two canonical."""
    basis, pivots = rref(m.rows, m.ctx)
    rank = len(basis)
    rowspace = Subspace(m.ctx, m.ncols, basis, pivots)
    ctx = m.ctx
    free = [j for j in range(m.ncols) if j not in pivots]
    null_vecs = []
    for j in free:
        vec = [0] * m.ncols
        vec[j] = 1
        for row, c in zip(basis, pivots):
            vec[c] = ctx.neg(row[j])
        null_vecs.append(vec)
    nullspace = Subspace.from_vectors(ctx, m.ncols, null_vecs)
    if nullspace.dim != m.ncols - rank:
        raise InvalidConfigError("rank-nullity bookkeeping failed")  # pragma: no cover
    return rank, rowspace, nullspace


def gaussian_binomial(n: int, l: int, q: int) -> int:
    """Number of l-dimensional subspaces of an n-dimensional space over GF(q)."""
    if l < 0 or l > n:
        return 0
    num = 1
    den = 1
    for i in range(l):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    if num % den:
        raise PropertyViolationError("Gaussian binomial is not an integer")  # pragma: no cover
    return num // den


def digits(start: int, stop: int, base: int, width: int):
    """The base-`base` digits of start..stop-1, most significant first, as a
    [width, k] array, the k numbers innermost: the one mixed-radix
    enumerator.  int32 while stop fits it (numpy divides int32 by a scalar
    about 2.7 times as fast as int64), int64 up to 2^63, refused beyond, so
    no range wraps.  One division by the scalar base per digit."""
    if stop > 1 << 63:
        raise InvalidConfigError("digits of numbers up to %d exceed int64" % stop)
    x = np.arange(start, stop, dtype=np.int32 if stop <= 1 << 31 else np.int64)
    out = np.empty((width, len(x)), dtype=x.dtype)
    for j in range(width - 1, -1, -1):
        quot = x // base
        out[j] = x - quot * base
        x = quot
    return out


def rref_bases(ambient_dim: int, l: int, order: int, size: int = 1 << 12):
    """Every l-dimensional subspace of GF(order)^ambient_dim once, as its RREF
    basis: (pivots, [T, l, ambient_dim] int64 array of bases) for each pivot
    pattern in lexicographic order, T at most `size`.  Within a pattern the
    free entries, row by row, count up in mixed radix, the first most
    significant."""
    for pivots in itertools.combinations(range(ambient_dim), l):
        free = [(i, j) for i in range(l) for j in range(pivots[i] + 1, ambient_dim)
                if j not in pivots]
        rows, cols = [f[0] for f in free], [f[1] for f in free]
        n = order ** len(free)
        for lo in range(0, n, size):
            hi = min(n, lo + size)
            out = np.zeros((hi - lo, l, ambient_dim), dtype=np.int64)
            out[:, range(l), pivots] = 1
            out[:, rows, cols] = digits(lo, hi, order, len(free)).T
            yield pivots, out


def enumerate_subspaces(ambient_dim: int, l: int, ctx: FieldCtx):
    """Yield every l-dimensional subspace exactly once, in `rref_bases` order."""
    total = gaussian_binomial(ambient_dim, l, ctx.order)
    if total > ENUM_CAP:
        raise CapExceededError("%d subspaces exceed cap %d" % (total, ENUM_CAP))
    for pivots, bases in rref_bases(ambient_dim, l, ctx.order):
        # every row a tuple once, and each basis l consecutive ones
        rows = map(tuple, bases.reshape(len(bases) * l, ambient_dim).tolist())
        for basis in zip(*[rows] * l) if l else [()] * len(bases):
            yield Subspace._from_rref(ctx, ambient_dim, basis, pivots)


def enumerate_superspaces(sub: Subspace, l: int):
    """Yield the l-dimensional subspaces containing sub (lift from the quotient)."""
    n, d = sub.ambient_dim, sub.dim
    if l < d or l > n:
        return
    ctx = sub.ctx
    complement = [j for j in range(n) if j not in sub.pivots]
    for qspace in enumerate_subspaces(len(complement), l - d, ctx):
        vecs = list(sub.basis)
        for row in qspace.basis:
            lifted = [0] * n
            for idx, j in enumerate(complement):
                lifted[j] = row[idx]
            vecs.append(lifted)
        yield Subspace.from_vectors(ctx, n, vecs)


# ---------------------------------------------------------------------------
# field element matrix <-> prime field vector flattening.
# Convention used everywhere: entries row-major, each entry expanded into its
# e coefficient coordinates, lowest degree first.

def unflatten_matrix(vec, ctx: FieldCtx, nrows: int, ncols: int) -> Matrix:
    e = ctx.e
    if len(vec) != nrows * ncols * e:
        raise InvalidConfigError("flattened length mismatch")
    rows = []
    k = 0
    for _ in range(nrows):
        row = []
        for _ in range(ncols):
            row.append(ctx.from_vector(vec[k : k + e]))
            k += e
        rows.append(row)
    return Matrix(ctx, rows, ncols)


# ---------------------------------------------------------------------------
# numpy fast path used by the Monte Carlo loops and hom_dim

# below this p every product of two residues, and their difference, fits in
# int64, so prime-field elimination stays exact
PRIME_CAP = 1 << 31


def _eliminator(ctx: FieldCtx):
    """(working dtype, combine) where combine(x, pv, f, prow) sets x to
    pv*x - f*prow, divided by pv over GF(p^e), entrywise in ctx, on arrays of
    element codes, in place; f may be a view of x."""
    if ctx.e == 1:
        p = ctx.p
        if p >= PRIME_CAP:
            raise InvalidConfigError("p = %d is too large for exact int64 elimination" % p)
        # the narrowest type that holds +-(p-1)^2; y - y // p * p is the
        # residue mod p, and numpy divides by a scalar much faster than % does
        dtype = next(t for t, bits in ((np.int16, 15), (np.int32, 31), (np.int64, 63))
                     if (p - 1) ** 2 < 1 << bits)

        def combine(x, pv, f, prow):  # two temporaries; x is written once
            y, t = x * pv, f * prow
            y -= t
            np.floor_divide(y, p, out=t)
            t *= p
            np.subtract(y, t, out=x)

        return dtype, combine
    # order <= TABLE_ORDER_CAP, else InvalidConfigError; neg and inv are 1-d already
    add1, mul1, neg, inv = (t.ravel() for t in ctx.table_arrays())
    q = np.full(1, ctx.order, dtype=np.int32)  # no scalar: codes * q (< 2^18) are int32 on numpy 1.x too

    def combine(x, pv, f, prow):
        pn = mul1[inv[pv] * q + prow]  # each pivot row over its pivot, once
        if ctx.p == 2:  # x - y is x ^ y
            x ^= mul1[f * q + pn]
        else:
            x[...] = add1[x * q + mul1[neg[f] * q + pn]]

    return np.int16, combine


def batch_rank(arr, ctx: FieldCtx):
    """int64 ranks of a [T, r, c] array of element codes, one per instance.

    Elimination of the whole stack, column by column: in each instance the
    first row with a nonzero entry is the pivot row, and every row becomes
    pivot * row - entry * pivot row, divided by the pivot over GF(p^e).  That
    clears the column and turns the pivot row itself to zero, so it can never
    be picked again and no rows move.  InvalidConfigError for p >= PRIME_CAP
    or a non-prime order above TABLE_ORDER_CAP.

    The layout follows the batch shape.  numpy runs every step as loops over
    the innermost axis, which in a [T, rows, cols] stack is one row, as short
    as 3 entries in the exhaustive span grid.  So a batch with at least as
    many instances as a row has entries is eliminated as a [rows, cols, T]
    copy, where every step runs over all instances at once (4.8 times as fast
    as the other layout on 2048 x [4, 3] over GF(3), 2.2 times on
    100 x [27, 18]).  A shorter batch keeps [T, rows, cols]: with few
    instances innermost, the long rows would become strided loops, and
    8 x [144, 72] over GF(5) runs 2.4 times slower that way.

    With the instances innermost, no step copies the stack or indexes it by
    (row, instance) pairs.  The pivot search is one max-reduction over the
    rows of (column != 0) * weight, where row r weighs R - r (int8 weights
    while R < 128): it gives R minus the first nonzero row, as argmax would,
    and 0 where an instance has none.  The stack has a last row R of ones,
    so one flat `take` reads each instance's pivot row; an instance without
    a pivot reads row R, pivot 1, and keeps its rows, its column being zero.
    """
    dtype, combine = _eliminator(ctx)
    a = np.asarray(arr)
    if a.ndim != 3:
        raise InvalidConfigError("batch_rank needs a [T, rows, cols] array")
    if a.shape[2] > a.shape[1]:
        a = a.transpose(0, 2, 1)  # loop over the shorter side
    T, R, C = a.shape
    rank = np.zeros(T, dtype=np.int64)
    if not (T and R and C):
        return rank
    if T >= C:
        stack = np.empty((R + 1, C, T), dtype=dtype)
        stack[:R], stack[R] = a.transpose(1, 2, 0), 1
        a, flat = stack[:R], stack.reshape(-1)
        weight = np.arange(R, 0, -1, dtype=np.int8 if R < 128 else np.int32)[:, None]
        last, row = np.arange(R * C * T, (R + 1) * C * T).reshape(C, T), np.intp(C * T)
        pivots = [np.zeros(T, dtype=weight.dtype)]  # w of each column, counted at the end
        for col in range(C):
            w = ((a[:, col] != 0) * weight).max(axis=0)  # R - pivot row, 0 without one
            if not w.any():
                continue
            sub = a[:, col:]
            prow = flat.take(last[col:] - w * row)  # row R - w, from column col on
            combine(sub, prow[0], sub[:, :1], prow)
            pivots.append(w)
        return (np.array(pivots) != 0).sum(axis=0)
    a, inst = np.array(a, dtype=dtype, order="C"), np.arange(T)
    for col in range(C):
        nz = a[:, :, col] != 0
        has = nz.any(axis=1)
        if not has.any():
            continue
        sub = a[:, :, col:]
        prow = sub[inst, nz.argmax(axis=1)]
        pv = prow[:, 0] + ~has
        combine(sub, pv[:, None, None], sub[:, :, :1], prow[:, None, :])
        rank += has
    return rank


def ranks(arr, ctx: FieldCtx):
    """int64 ranks of a [T, r, c] array of element codes, one per instance:
    one batch_rank where the field fits it (p < PRIME_CAP, or an order the
    lookup tables cover), the rref rank of each instance otherwise."""
    if ctx.p < PRIME_CAP if ctx.e == 1 else ctx.order <= TABLE_ORDER_CAP:
        return batch_rank(arr, ctx)
    a = np.asarray(arr)
    if a.ndim != 3:
        raise InvalidConfigError("ranks needs a [T, rows, cols] array")
    return np.array([len(rref(m, ctx)[0]) for m in a.tolist()], dtype=np.int64)


def np_rank(mat, ctx: FieldCtx) -> int:
    """Rank of one 2-d array of element codes: `ranks` with T = 1."""
    a = np.asarray(mat)
    if a.size == 0:
        return 0
    return int(ranks(a[None], ctx)[0])


def fp_matmul(x, y, p: int):
    """x @ y mod p, exact: int64 while the inner sums fit, Python ints beyond."""
    if (p - 1) ** 2 * x.shape[-1] < 1 << 63:
        return x @ y % p
    return (x.astype(object) @ y.astype(object) % p).astype(np.int64)


def batch_neg(arr, ctx: FieldCtx):
    """Entrywise negation of an array of element codes (digitwise mod p), in
    the array's dtype: int64, or Python ints for orders beyond it.  The lowest
    digit of -x is -x mod p, so a prime field takes no pass of the loop."""
    p = ctx.p
    out = -arr % p
    place = 1
    for _ in range(ctx.e - 1):
        place *= p
        out += (-(arr // place) % p) * place
    return out
