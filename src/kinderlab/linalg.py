"""Exact dense linear algebra over a FieldCtx.

Matrices are immutable tuples of tuples of element codes.  Subspaces are held
in reduced row echelon form, so equal subspaces compare equal and hash equal.
Everything here is plain Gaussian elimination.  The numpy fast path at the
bottom is `batch_rank`: one vectorized elimination over a [T, r, c] stack of
matrices, laid out by the batch shape, in integer arithmetic mod p over
prime fields and through the field's lookup tables over GF(p^e) up to order
512.  `np_rank` is its T = 1 case, and `ranks` is the one place that sends
a field outside that range to `rref`.
"""

from __future__ import annotations

import itertools
import random

from .errors import CapExceededError, InvalidConfigError, PropertyViolationError
from .gf import FieldCtx

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
    def zero(cls, ctx, nrows, ncols):
        return cls(ctx, [[0] * ncols for _ in range(nrows)], ncols)

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

    def add(self, other):
        f = self.ctx.add
        return Matrix(self.ctx, [[f(a, b) for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)],
                      self.ncols)

    def neg(self):
        f = self.ctx.neg
        return Matrix(self.ctx, [[f(a) for a in r] for r in self.rows], self.ncols)

    def scale(self, c):
        f = self.ctx.mul
        return Matrix(self.ctx, [[f(c, a) for a in r] for r in self.rows], self.ncols)

    def mul(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise InvalidConfigError("shape mismatch %s @ %s" % (self.shape, other.shape))
        ctx = self.ctx
        cols = list(zip(*other.rows)) if other.rows else [()] * other.ncols
        out = []
        for row in self.rows:
            new = []
            for col in cols:
                acc = 0
                for a, b in zip(row, col):
                    if a and b:
                        acc = ctx.add(acc, ctx.mul(a, b))
                new.append(acc)
            out.append(new)
        return Matrix(ctx, out, other.ncols)

    def transpose(self):
        return Matrix(self.ctx, zip(*self.rows) if self.rows else [()] * self.ncols, self.nrows)

    def apply(self, vec):
        """Matrix times column vector (vec given as a flat tuple)."""
        ctx = self.ctx
        out = []
        for row in self.rows:
            acc = 0
            for a, b in zip(row, vec):
                if a and b:
                    acc = ctx.add(acc, ctx.mul(a, b))
            out.append(acc)
        return tuple(out)

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
                f = mat[i][c]
                mat[i] = [ctx.sub(a, ctx.mul(f, b)) for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def _reduce(work: list, rows, ctx: FieldCtx) -> list:
    """Subtract f * row from work, in place, for each (pivot, row) in turn,
    f being work's entry at the pivot; zero entries are skipped."""
    sub, mul = ctx.sub, ctx.mul
    for c, row in rows:
        f = work[c]
        if f:
            for j, r in enumerate(row):
                if r:
                    work[j] = sub(work[j], mul(f, r))
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
    def zero(cls, ctx, ambient_dim):
        return cls(ctx, ambient_dim, [], [])

    @classmethod
    def full(cls, ctx, ambient_dim):
        return cls(
            ctx,
            ambient_dim,
            [[1 if i == j else 0 for j in range(ambient_dim)] for i in range(ambient_dim)],
            range(ambient_dim),
        )

    @property
    def dim(self):
        return len(self.basis)

    def reduce(self, vec):
        """Residue of vec modulo the subspace (zero iff vec is a member)."""
        return tuple(_reduce(list(vec), zip(self.pivots, self.basis), self.ctx))

    def contains(self, vec) -> bool:
        return not any(self.reduce(vec))

    def contains_subspace(self, other: "Subspace") -> bool:
        return all(self.contains(row) for row in other.basis)

    def enumerate_vectors(self, cap=ENUM_CAP):
        n = self.ctx.order**self.dim
        if n > cap:
            raise CapExceededError("subspace has %d vectors, cap %d" % (n, cap))
        ctx = self.ctx
        for coeffs in itertools.product(range(ctx.order), repeat=self.dim):
            vec = [0] * self.ambient_dim
            for c, row in zip(coeffs, self.basis):
                if c:
                    for j, b in enumerate(row):
                        if b:
                            vec[j] = ctx.add(vec[j], ctx.mul(c, b))
            yield tuple(vec)

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


class EchelonAccumulator:
    """Incremental span tracker: feed vectors, watch the rank grow."""

    def __init__(self, ctx: FieldCtx, ambient_dim: int):
        self.ctx = ctx
        self.ambient_dim = ambient_dim
        self.rows = []  # (pivot index, reduced row)

    @property
    def rank(self):
        return len(self.rows)

    def residue(self, vec):
        return _reduce(list(vec), self.rows, self.ctx)

    def add(self, vec) -> bool:
        """Returns True when vec enlarged the span."""
        vec = self.residue(vec)
        pivot = next((j for j, a in enumerate(vec) if a), None)
        if pivot is None:
            return False
        inv = self.ctx.inv(vec[pivot])
        if inv != 1:
            vec = [self.ctx.mul(inv, a) for a in vec]
        self.rows.append((pivot, vec))
        self.rows.sort(key=lambda t: t[0])
        return True


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


def enumerate_subspaces(ambient_dim: int, l: int, ctx: FieldCtx, cap=ENUM_CAP):
    """Yield every l-dimensional subspace exactly once, via RREF patterns."""
    total = gaussian_binomial(ambient_dim, l, ctx.order)
    if total > cap:
        raise CapExceededError("%d subspaces exceed cap %d" % (total, cap))
    if l == 0:
        yield Subspace.zero(ctx, ambient_dim)
        return
    order = ctx.order
    for pivots in itertools.combinations(range(ambient_dim), l):
        pivset = set(pivots)
        free = [
            (i, j)
            for i in range(l)
            for j in range(pivots[i] + 1, ambient_dim)
            if j not in pivset
        ]
        for values in itertools.product(range(order), repeat=len(free)):
            rows = [[0] * ambient_dim for _ in range(l)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield Subspace(ctx, ambient_dim, rows, pivots)


def enumerate_superspaces(sub: Subspace, l: int, cap=ENUM_CAP):
    """Yield the l-dimensional subspaces containing sub (lift from the quotient)."""
    n, d = sub.ambient_dim, sub.dim
    if l < d or l > n:
        return
    ctx = sub.ctx
    complement = [j for j in range(n) if j not in sub.pivots]
    for qspace in enumerate_subspaces(len(complement), l - d, ctx, cap):
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

def flatten_matrix(m: Matrix) -> tuple:
    out = []
    for row in m.rows:
        for a in row:
            out.extend(m.ctx.to_vector(a))
    return tuple(out)


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
    """(working dtype, combine) where combine(x, pv, f, prow) = pv*x - f*prow
    entrywise in ctx, on arrays of element codes."""
    import numpy as np

    if ctx.e == 1:
        p = ctx.p
        if p >= PRIME_CAP:
            raise InvalidConfigError("p = %d is too large for exact int64 elimination" % p)
        # the narrowest type that holds +-(p-1)^2; x - x // p * p is the
        # residue mod p, and numpy divides by a scalar much faster than % does
        dtype = next(t for t, bits in ((np.int16, 15), (np.int32, 31), (np.int64, 63))
                     if (p - 1) ** 2 < 1 << bits)

        def combine(x, pv, f, prow):
            y = x * pv - f * prow
            return y - y // p * p

        return dtype, combine
    add_t, mul_t, neg_t, _ = ctx.table_arrays()  # order <= 512, else InvalidConfigError
    q = np.int32(ctx.order)  # a numpy scalar, so int16 entries * q widen to int32
    add1, mul1 = add_t.ravel(), mul_t.ravel()

    def combine(x, pv, f, prow):
        idx = pv * q + x
        np.multiply(mul1[idx], q, out=idx)  # in place: these are the largest arrays
        idx += mul1[neg_t[f] * q + prow]
        return add1[idx]

    return np.int32, combine


def batch_rank(arr, ctx: FieldCtx):
    """int64 ranks of a [T, r, c] array of element codes, one per instance.

    Fraction-free elimination of the whole stack, column by column: in each
    instance the first row with a nonzero entry is the pivot row, and every
    row becomes pivot * row - entry * pivot row.  That clears the column and
    turns the pivot row itself to zero, so it can never be picked again and
    no rows move.  InvalidConfigError for p >= PRIME_CAP or a non-prime order
    above 512.

    The layout follows the batch shape.  numpy runs every step as loops over
    the innermost axis, which in a [T, rows, cols] stack is one row, as short
    as 3 entries in the exhaustive span grid.  So a batch with at least as
    many instances as a row has entries is eliminated as a [rows, cols, T]
    copy, where every step runs over all instances at once (about twice as
    fast on 2048 x [4, 3] and 100 x [27, 18]).  A shorter batch keeps
    [T, rows, cols]: with few instances innermost, the long rows would become
    strided loops, and 8 x [144, 72] runs 2-4 times slower that way.
    """
    import numpy as np

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
    inst = np.arange(T)
    if T >= C:
        a = np.array(a.transpose(1, 2, 0), dtype=dtype, order="C")
        for col in range(C):
            nz = a[:, col] != 0
            has = nz.any(axis=0)
            if not has.any():
                continue
            sub = a[:, col:]
            prow = np.ascontiguousarray(sub[nz.argmax(axis=0), :, inst].T)
            pv = prow[0] + ~has  # an instance without a pivot keeps its rows
            sub[...] = combine(sub, pv, sub[:, :1], prow)
            rank += has
        return rank
    a = np.array(a, dtype=dtype, order="C")
    for col in range(C):
        nz = a[:, :, col] != 0
        has = nz.any(axis=1)
        if not has.any():
            continue
        sub = a[:, :, col:]
        prow = sub[inst, nz.argmax(axis=1)]
        pv = prow[:, 0] + ~has
        sub[...] = combine(sub, pv[:, None, None], sub[:, :, :1], prow[:, None, :])
        rank += has
    return rank


def ranks(arr, ctx: FieldCtx):
    """int64 ranks of a [T, r, c] array of element codes, one per instance:
    one batch_rank where the field fits it (p < PRIME_CAP, or an order the
    lookup tables cover), the rref rank of each instance otherwise."""
    import numpy as np

    if ctx.p < PRIME_CAP if ctx.e == 1 else ctx.order <= 512:
        return batch_rank(arr, ctx)
    a = np.asarray(arr)
    if a.ndim != 3:
        raise InvalidConfigError("ranks needs a [T, rows, cols] array")
    return np.array([len(rref(m, ctx)[0]) for m in a.tolist()], dtype=np.int64)


def np_rank(mat, ctx: FieldCtx) -> int:
    """Rank of one 2-d array of element codes: batch_rank with T = 1."""
    import numpy as np

    a = np.asarray(mat)
    if a.size == 0:
        return 0
    return int(batch_rank(a[None], ctx)[0])


def batch_neg(arr, ctx: FieldCtx):
    """Entrywise negation of an int64 array of element codes (digitwise mod p)."""
    p = ctx.p
    out = arr * 0
    place = 1
    for _ in range(ctx.e):
        out += (-(arr // place) % p) * place
        place *= p
    return out
