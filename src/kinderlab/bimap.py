"""Matrix systems, their hom spaces, block constructions and bimaps.

A hom pair (A, B) for systems Phi (s x b) and Ups (a x t) satisfies
A Phi_i = sign * Ups_i B^t for every i.  The solution space is computed as
one flat linear system over the common field: a*s + b*t unknowns (entries of
A then B, row-major) and c*a*b equations.

Every equation system here has one builder, on integer code arrays:
`hom_equations_batch` (for T system pairs; `hom_space` and `hom_dim` take
T = 1), `lambda_build`, and `nucleus_equations` (for n left vectors,
genericity's nucleus kind).  A bimap is over F_p, its structure constants
one read-only int64 [target, left, right] array; `nursery` reads its matrix
and field algebras from `matrix_multiplication_bimap`'s.  Code arrays are
int64, or Python ints (object) for fields of order above 2^63, so that
GF(2^70) stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapExceededError, InvalidConfigError, PropertyViolationError
from .gf import FieldCtx, make_field
from .linalg import (CoordSolver, Matrix, Subspace, batch_neg, fp_matmul, rank_nullspace, ranks, rref,
                     unflatten_matrix)

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


def _codes(phi: MatrixSystem):
    """[1, c, rows, cols] element codes: int64, or Python ints past int64."""
    dtype = np.int64 if phi.ctx.order <= 1 << 63 else object
    flat = [x for m in phi.mats for row in m.rows for x in row]
    return np.array(flat, dtype=dtype).reshape(1, len(phi), *phi.shape)


def hom_equations_batch(P, U, sign: int, ctx: FieldCtx):
    """The hom equations of T system pairs as one code array, in the dtype of
    P and U.

    P is [T, c, s, b] and U is [T, c, a, t]; the result is [T, c*a*b, a*s + b*t]:
    row (i, r, j) is entry (r, j) of A P_i - sign U_i B^t, the unknowns A
    (a x s) then B (b x t), each row-major.
    """
    if sign not in (1, -1):
        raise InvalidConfigError("sign must be +1 or -1")
    T, c, s, b = P.shape
    a, t = U.shape[2:]
    na = a * s
    eqs = np.zeros((T, c, a, b, na + b * t), dtype=np.result_type(P, U))
    for r in range(a):
        eqs[:, :, r, :, r * s : (r + 1) * s] = P.transpose(0, 1, 3, 2)
    coef = batch_neg(U, ctx) if sign == 1 else U
    for j in range(b):
        eqs[:, :, :, j, na + j * t : na + (j + 1) * t] = coef
    return eqs.reshape(T, c * a * b, na + b * t)


def _equations(phi: MatrixSystem, ups: MatrixSystem, sign: int):
    """The [c*a*b, a*s + b*t] hom equations of one system pair."""
    if len(phi) != len(ups):
        raise InvalidConfigError("systems differ in length")
    if phi.ctx != ups.ctx:
        raise InvalidConfigError("systems over different fields")
    P = _codes(phi)
    return hom_equations_batch(P, P if ups is phi else _codes(ups), sign, phi.ctx)[0]


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
    (s, b), (a, t) = phi.shape, ups.shape
    basis = _solution_pairs(ctx, _equations(phi, ups, sign).tolist(), (a, s), (b, t))
    # row r of A P_i against row r of sign U_i B^t, entry j being sign U_i[r] . B[j]
    dot = ctx.dot
    pairs = [(P.transpose().rows, (U if sign == 1 else U.neg()).rows) for P, U in zip(phi.mats, ups.mats)]
    for A, B in basis:
        for cols, urows in pairs:
            if any([dot(x, c) for c in cols] != [dot(u, y) for y in B.rows]
                   for x, u in zip(A.rows, urows)):
                raise PropertyViolationError("hom basis pair fails its defining equation")
    dim_k = len(basis)
    return HomSpace(ctx=ctx, basis=tuple(basis), dim_k=dim_k, dim_fp=ctx.e * dim_k)


def hom_dim(phi: MatrixSystem, ups: MatrixSystem, sign: int = 1, fast=True) -> int:
    """dim_K of the hom space without materializing a basis; fast=False
    takes the `rref` rank, the reference `linalg.ranks` is checked against."""
    eqs = _equations(phi, ups, sign)
    rank = int(ranks(eqs[None], phi.ctx)[0]) if fast else len(rref(eqs.tolist(), phi.ctx)[0])
    return eqs.shape[1] - rank


def end_space(phi: MatrixSystem) -> HomSpace:
    return hom_space(phi, phi, 1)


def lambda_build(P, ctx: FieldCtx):
    """The block matrices [[0, P], [-P^t, 0]] of a [..., c, a, b] code array,
    as [..., c, a+b, a+b]; each is antisymmetric."""
    a, b = P.shape[-2:]
    lam = np.zeros(P.shape[:-2] + (a + b, a + b), dtype=P.dtype)
    lam[..., :a, a:] = P
    lam[..., a:, :a] = batch_neg(np.swapaxes(P, -1, -2), ctx)
    return lam


# ---------------------------------------------------------------------------
# bimaps and the right nucleus

class Bimap:
    """A bilinear map over F_p given by its structure constants: the read-only
    int64 array [target, left, right] whose [:, i, j] is the image of the
    i-th left and the j-th right basis vector."""

    __slots__ = ("ctx", "structure", "target_dim", "left_dim", "right_dim")

    def __init__(self, ctx: FieldCtx, structure):
        structure = np.array(structure, dtype=np.int64)
        if ctx.e != 1 or structure.ndim != 3 or not len(structure):
            raise InvalidConfigError("need a [target, left, right] array over a prime field")
        structure.setflags(write=False)
        self.ctx, self.structure = ctx, structure
        self.target_dim, self.left_dim, self.right_dim = structure.shape

    def __repr__(self):
        return "Bimap(%d x %d -> %d, F%d)" % (
            self.left_dim, self.right_dim, self.target_dim, self.ctx.order)


def matrix_multiplication_bimap(ctx: FieldCtx, a: int, c: int, d: int) -> Bimap:
    """The bimap M_{a x c}(K) x M_{c x d}(K) -> M_{a x d}(K) over the prime
    field, each space flattened as `linalg.unflatten_matrix` reads it (row-major,
    each entry as its e coordinates; over a prime field, plain row-major).

    Units x^g at (r, s) and x^h at (s, k) multiply to x^g x^h at (r, k), so
    the constants are identity blocks times K's [e, e, e] product table."""
    e = ctx.e
    units = [ctx.from_vector(row) for row in np.eye(e, dtype=int).tolist()]
    table = np.array([[ctx.to_vector(ctx.mul(x, y)) for y in units] for x in units], dtype=np.int64)
    ident = [np.eye(n, dtype=np.int64) for n in (a, d, c)]
    S = np.einsum("rR,kK,sS,ghf->rkfRsgSKh", *ident, table)
    return Bimap(make_field(ctx.p, 1), S.reshape(a * d * e, a * c * e, c * d * e))


def nucleus_equations(bm: Bimap, Q):
    """The equations [q, g v] = h [q, v] (all v) of each row q of the
    [n, left] code array Q, as [n, r*t, r*r + t*t].

    Row (j, k) of a q is coordinate k of [q, g e_j] - h [q, e_j]; the unknowns
    are g (r x r, row-major) then h (t x t).  The rows are linear in q.
    """
    p, r, t = bm.ctx.p, bm.right_dim, bm.target_dim
    W = fp_matmul(Q, bm.structure.transpose(1, 0, 2).reshape(bm.left_dim, t * r), p)
    W = W.reshape(len(Q), t, r)  # W[q, k, j] = [q, e_j]_k
    g = np.einsum("nkx,jy->njkxy", W, np.eye(r, dtype=np.int64))
    h = np.einsum("nmj,kl->njklm", batch_neg(W, bm.ctx), np.eye(t, dtype=np.int64))
    return np.concatenate([g.reshape(len(Q), r * t, r * r), h.reshape(len(Q), r * t, t * t)], axis=2)


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
