"""Matrix systems, their hom spaces, block constructions, bimaps, and the
right nucleus.

A hom pair (A, B) for systems Phi (s x b) and Ups (a x t) satisfies
A Phi_i = sign * Ups_i B^t for every i.  The solution space is computed as
one flat linear system over the common field: a*s + b*t unknowns (entries of
A then B, row-major) and c*a*b equations.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .errors import CapExceededError, InvalidConfigError, PropertyViolationError
from .gf import FieldCtx, make_field
from .linalg import (CoordSolver, EchelonAccumulator, Matrix, Subspace, batch_neg, flatten_matrix,
                     rank_nullspace, ranks, rref, unflatten_matrix)

_ROOT_SEARCH_CAP = 1 << 20


class MatrixSystem:
    """An ordered list of equally shaped matrices over one field."""

    __slots__ = ("ctx", "shape", "mats")

    def __init__(self, ctx: FieldCtx, shape, mats):
        self.ctx = ctx
        self.shape = (int(shape[0]), int(shape[1]))
        mats = tuple(mats)
        for m in mats:
            if m.ctx != ctx:
                raise InvalidConfigError("system members over different fields")
            if m.shape != self.shape:
                raise InvalidConfigError("system members differ in shape")
        self.mats = mats

    @classmethod
    def from_matrices(cls, mats) -> "MatrixSystem":
        mats = list(mats)
        if not mats:
            raise InvalidConfigError("cannot infer shape from an empty system")
        return cls(mats[0].ctx, mats[0].shape, mats)

    @classmethod
    def random(cls, ctx, shape, c, rng) -> "MatrixSystem":
        return cls(ctx, shape, [Matrix.random(ctx, shape[0], shape[1], rng) for _ in range(c)])

    def __len__(self):
        return len(self.mats)

    def __iter__(self):
        return iter(self.mats)

    def __getitem__(self, i):
        return self.mats[i]

    def transpose(self) -> "MatrixSystem":
        return MatrixSystem(self.ctx, (self.shape[1], self.shape[0]), [m.transpose() for m in self.mats])

    def __repr__(self):
        return "MatrixSystem(%dx%d, c=%d, F%d)" % (*self.shape, len(self.mats), self.ctx.order)


@dataclass(frozen=True)
class HomSpace:
    """Pairs of matrices spanning a solution space, with both dimension counts."""

    ctx: FieldCtx
    basis: tuple  # of (A, B) Matrix pairs
    dim_k: int
    dim_fp: int

    @functools.cached_property
    def _echelon(self) -> EchelonAccumulator:
        """Echelon form of the basis, built on the first `contains`."""
        flat = [_flatten_pair(pa, pb) for pa, pb in self.basis]
        acc = EchelonAccumulator(self.ctx, len(flat[0]) if flat else 0)
        for v in flat:
            acc.add(v)
        return acc

    def contains(self, A: Matrix, B: Matrix) -> bool:
        return not any(self._echelon.residue(_flatten_pair(A, B)))


def _flatten_pair(A: Matrix, B: Matrix) -> tuple:
    out = []
    for row in A.rows:
        out.extend(row)
    for row in B.rows:
        out.extend(row)
    return tuple(out)


def _hom_equations(phi: MatrixSystem, ups: MatrixSystem, sign: int):
    """Rows of the flat system; unknowns are A (a x s) then B (b x t)."""
    if len(phi) != len(ups):
        raise InvalidConfigError("systems differ in length")
    if phi.ctx != ups.ctx:
        raise InvalidConfigError("systems over different fields")
    if sign not in (1, -1):
        raise InvalidConfigError("sign must be +1 or -1")
    ctx = phi.ctx
    s, b = phi.shape
    a, t = ups.shape
    na, nb = a * s, b * t
    rows = []
    for P, U in zip(phi.mats, ups.mats):
        for r in range(a):
            urow = U.rows[r]
            for j in range(b):
                row = [0] * (na + nb)
                for k in range(s):
                    row[r * s + k] = P.rows[k][j]
                for k in range(t):
                    # coefficient of B[j,k] is -sign * U[r,k]
                    row[na + (j * t + k)] = ctx.neg(urow[k]) if sign == 1 else urow[k]
                rows.append(row)
    return rows, (a, s, b, t)


def hom_equations_batch(P, U, sign: int, ctx: FieldCtx):
    """`_hom_equations` for T system pairs at once, as int64 code arrays.

    P is [T, c, s, b] and U is [T, c, a, t]; the result is [T, c*a*b, a*s + b*t]
    with the rows and unknowns in `_hom_equations` order.
    """
    import numpy as np

    if sign not in (1, -1):
        raise InvalidConfigError("sign must be +1 or -1")
    T, c, s, b = P.shape
    a, t = U.shape[2:]
    na = a * s
    eqs = np.zeros((T, c, a, b, na + b * t), dtype=np.int64)
    for r in range(a):
        eqs[:, :, r, :, r * s : (r + 1) * s] = P.transpose(0, 1, 3, 2)
    coef = batch_neg(U, ctx) if sign == 1 else U
    for j in range(b):
        eqs[:, :, :, j, na + j * t : na + (j + 1) * t] = coef
    return eqs.reshape(T, c * a * b, na + b * t)


def _solution_pairs(ctx: FieldCtx, rows, left, right) -> list:
    """A basis of the solutions of the homogeneous system `rows` (all of the
    space when there are no rows), each solution split row-major into a
    left[0] x left[1] matrix and then a right[0] x right[1] matrix."""
    (ra, ca), (rb, cb) = left, right
    na = ra * ca
    if rows:
        vecs = rank_nullspace(Matrix(ctx, rows))[2].basis
    else:
        vecs = Subspace.full(ctx, na + rb * cb).basis
    return [
        (Matrix(ctx, [v[i * ca : (i + 1) * ca] for i in range(ra)], ca),
         Matrix(ctx, [v[na + i * cb : na + (i + 1) * cb] for i in range(rb)], cb))
        for v in vecs
    ]


def hom_space(phi: MatrixSystem, ups: MatrixSystem, sign: int = 1) -> HomSpace:
    """Basis of {(A,B) : A Phi_i = sign * Ups_i B^t for all i}."""
    ctx = phi.ctx
    rows, (a, s, b, t) = _hom_equations(phi, ups, sign)
    basis = _solution_pairs(ctx, rows, (a, s), (b, t))
    for A, B in basis:
        for P, U in zip(phi.mats, ups.mats):
            lhs = A.mul(P)
            rhs = U.mul(B.transpose())
            if sign == -1:
                rhs = rhs.neg()
            if lhs != rhs:
                raise PropertyViolationError("hom basis pair fails its defining equation")
    dim_k = len(basis)
    return HomSpace(ctx=ctx, basis=tuple(basis), dim_k=dim_k, dim_fp=ctx.e * dim_k)


def hom_dim(phi: MatrixSystem, ups: MatrixSystem, sign: int = 1, fast=True) -> int:
    """dim_K of the hom space without materializing a basis; fast=False
    takes the `rref` rank, the reference `linalg.ranks` is checked against."""
    rows, (a, s, b, t) = _hom_equations(phi, ups, sign)
    n_unknowns = a * s + b * t
    if not rows:
        return n_unknowns
    if fast:
        return n_unknowns - int(ranks([rows], phi.ctx)[0])
    return n_unknowns - len(rref(rows, phi.ctx)[0])


def end_space(phi: MatrixSystem) -> HomSpace:
    return hom_space(phi, phi, 1)


def lambda_build(phi: MatrixSystem) -> MatrixSystem:
    """Block systems [[0, P], [-P^t, 0]]; each member is antisymmetric."""
    ctx = phi.ctx
    a, b = phi.shape
    n = a + b
    out = []
    for P in phi.mats:
        rows = [[0] * n for _ in range(n)]
        for i in range(a):
            for j in range(b):
                rows[i][a + j] = P.rows[i][j]
                rows[a + j][i] = ctx.neg(P.rows[i][j])
        out.append(Matrix(ctx, rows))
    return MatrixSystem(ctx, (n, n), out)


# ---------------------------------------------------------------------------
# bimaps and the right nucleus

class Bimap:
    """A bilinear map given by structure constants: one left x right matrix
    per target coordinate."""

    __slots__ = ("ctx", "left_dim", "right_dim", "target_dim", "structure")

    def __init__(self, ctx, structure):
        structure = tuple(structure)
        if not structure:
            raise InvalidConfigError("need at least one target coordinate")
        self.ctx = ctx
        self.structure = structure
        self.left_dim = structure[0].nrows
        self.right_dim = structure[0].ncols
        self.target_dim = len(structure)
        for m in structure:
            if m.ctx != ctx or m.shape != (self.left_dim, self.right_dim):
                raise InvalidConfigError("inconsistent structure constants")

    @classmethod
    def from_function(cls, ctx, left_dim, right_dim, target_dim, f) -> "Bimap":
        """Tabulate f on basis pairs; f maps (left vec, right vec) to a target vec."""
        tables = [[[0] * right_dim for _ in range(left_dim)] for _ in range(target_dim)]
        for i in range(left_dim):
            ei = tuple(ctx.one if k == i else 0 for k in range(left_dim))
            for j in range(right_dim):
                ej = tuple(ctx.one if k == j else 0 for k in range(right_dim))
                out = f(ei, ej)
                if len(out) != target_dim:
                    raise InvalidConfigError("target dimension mismatch")
                for k in range(target_dim):
                    tables[k][i][j] = out[k]
        return cls(ctx, [Matrix(ctx, t) for t in tables])

    def evaluate(self, u, v) -> tuple:
        ctx = self.ctx
        if len(u) != self.left_dim or len(v) != self.right_dim:
            raise InvalidConfigError("argument dimension mismatch")
        out = []
        for S in self.structure:
            acc = 0
            for i, ui in enumerate(u):
                if not ui:
                    continue
                row = S.rows[i]
                part = 0
                for j, vj in enumerate(v):
                    if vj and row[j]:
                        part = ctx.add(part, ctx.mul(row[j], vj))
                acc = ctx.add(acc, ctx.mul(ui, part))
            out.append(acc)
        return tuple(out)

    def __repr__(self):
        return "Bimap(%d x %d -> %d, F%d)" % (
            self.left_dim, self.right_dim, self.target_dim, self.ctx.order)


def matrix_multiplication_bimap(ctx, a: int, c: int, d: int) -> Bimap:
    """The bimap M_{a x c}(K) x M_{c x d}(K) -> M_{a x d}(K) over the prime
    field, each space flattened as `linalg.flatten_matrix` does (row-major,
    each entry as its e coordinates; over a prime field, plain row-major)."""
    e = ctx.e

    def f(u, v):
        return flatten_matrix(unflatten_matrix(u, ctx, a, c).mul(unflatten_matrix(v, ctx, c, d)))

    return Bimap.from_function(make_field(ctx.p, 1), a * c * e, c * d * e, a * d * e, f)


def nucleus_equations(bm: Bimap, q) -> list:
    """The r*t rows of [q, g v] = h [q, v] (all v) for one left vector q.

    Unknowns are g (r x r, row-major) then h (t x t).  The rows are linear in
    q, which the batched nucleus experiment uses to assemble many at once.
    """
    ctx = bm.ctx
    r, t = bm.right_dim, bm.target_dim
    ng, nh = r * r, t * t
    # W[k][j'] = (q^t S_k)_{j'}
    W = []
    for S in bm.structure:
        wk = [0] * r
        for i, qi in enumerate(q):
            if not qi:
                continue
            srow = S.rows[i]
            for j2 in range(r):
                if srow[j2]:
                    wk[j2] = ctx.add(wk[j2], ctx.mul(qi, srow[j2]))
        W.append(wk)
    rows = []
    for j in range(r):
        for k in range(t):
            row = [0] * (ng + nh)
            for j2 in range(r):
                row[j2 * r + j] = W[k][j2]
            for m in range(t):
                row[ng + k * t + m] = ctx.neg(W[m][j])
            rows.append(row)
    return rows


def right_nucleus(bm: Bimap, left_sub: Subspace) -> HomSpace:
    """Pairs (g, h) with [q, g v] = h [q, v] for all q in left_sub and all v.

    g acts on the right space, h on the target.  The result is closed under
    composition and contains the identity pair; both facts are checked.
    """
    ctx = bm.ctx
    if left_sub.ambient_dim != bm.left_dim or left_sub.ctx != ctx:
        raise InvalidConfigError("left subspace does not match the bimap")
    r, t = bm.right_dim, bm.target_dim
    rows = [row for q in left_sub.basis for row in nucleus_equations(bm, q)]
    basis = _solution_pairs(ctx, rows, (r, r), (t, t))
    space = HomSpace(ctx=ctx, basis=tuple(basis), dim_k=len(basis), dim_fp=ctx.e * len(basis))
    ident = (Matrix.identity(ctx, r), Matrix.identity(ctx, t))
    if not space.contains(*ident):
        raise PropertyViolationError("nucleus lost the identity pair")
    for g1, h1 in basis:
        for g2, h2 in basis:
            if not space.contains(g1.mul(g2), h1.mul(h2)):
                raise PropertyViolationError("nucleus not closed under composition")
    return space


# ---------------------------------------------------------------------------
# explicit witness systems with scalar endomorphism ring

def _block_identity(ctx, m: int, n: int, offset: int) -> Matrix:
    rows = [[0] * n for _ in range(m)]
    for i in range(m):
        rows[i][offset + i] = 1
    return Matrix(ctx, rows)


def _embed_root(E: FieldCtx, K: FieldCtx) -> int:
    """A root in E of the defining polynomial of K (coefficients in F_p)."""
    if E.order > _ROOT_SEARCH_CAP:
        raise CapExceededError("extension too large for root search")
    coeffs = K.modulus
    for beta in range(E.order):
        acc = 0
        power = E.one
        for c in coeffs:
            if c:
                acc = E.add(acc, E.mul(c % E.p, power))
            power = E.mul(power, beta)
        if acc == 0:
            return beta
    raise PropertyViolationError("no root of the subfield polynomial found")


def witness_system(m: int, n: int, K: FieldCtx) -> MatrixSystem:
    """An explicit m x n system over K whose End is the scalars.

    For m == n this is {I, multiplication by a primitive element, the
    relative Frobenius} written in the power basis of a degree-m extension;
    for m < n it is the family of shifted identity blocks.
    """
    if not (1 <= m <= n):
        raise InvalidConfigError("need 1 <= m <= n")
    if m < n:
        mats = [_block_identity(K, m, n, 0)]
        for i in range(1, (n - 1) // m + 1):
            mats.append(_block_identity(K, m, n, 1 + m * (i - 1)))
        mats.append(_block_identity(K, m, n, n - m))
        return MatrixSystem(K, (m, n), mats)
    if m == 1:
        alpha = K.primitive if K.order > 2 else K.one
        return MatrixSystem(K, (1, 1), [
            Matrix(K, [[1]]), Matrix(K, [[alpha]]), Matrix(K, [[1]])])
    E = make_field(K.p, K.e * m)
    beta = _embed_root(E, K)
    alpha = E.primitive
    # F_p-coordinates in {alpha^i beta^j}: each run of e of them is one
    # K-coordinate in the K-basis {alpha^i}, as unflatten_matrix reads them
    fp_basis = [E.mul(E.pow(alpha, i), E.pow(beta, j)) for i in range(m) for j in range(K.e)]
    try:
        solver = CoordSolver([E.to_vector(x) for x in fp_basis], make_field(K.p, 1))
    except InvalidConfigError:
        raise PropertyViolationError("power basis is not an F_p-basis") from None

    def map_matrix(fn):
        # row j holds the coordinates of fn(alpha^j), so the map is its transpose
        z = [c for x in fp_basis[:: K.e] for c in solver.coords(E.to_vector(fn(x)))]
        return unflatten_matrix(z, K, m, m).transpose()
    ident = Matrix.identity(K, m)
    mult_alpha = map_matrix(lambda x: E.mul(alpha, x))
    sigma = map_matrix(lambda x: E.frobenius(x, K.e))
    return MatrixSystem(K, (m, m), [ident, mult_alpha, sigma])
