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

`ClassTwoForm` holds the squaring map and commutator bimap of a class-2
group from its cocycle's structure constants, and `pseudo_isometry` decides
whether two such groups are isomorphic on those constants alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import smallgrp
from .errors import CapExceededError, InvalidConfigError, PropertyViolationError
from .gf import FieldCtx, make_field
from .linalg import (CoordSolver, Matrix, Subspace, batch_neg, digits, fp_matmul, rank_nullspace, ranks,
                     rref, unflatten_matrix)

_ROOT_SEARCH_CAP = 1 << 20
GL_BOUND = 1 << 15  # the largest GL(W) that `pseudo_isometry` enumerates
_CELLS = 1 << 22


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


# ---------------------------------------------------------------------------
# class-2 groups on their structure constants

@functools.cache
def _all_vectors(p: int, n: int):
    """Every vector of F_p^n as a read-only int64 [p^n, n] array, the vector
    with code c = sum v_i p^(n-1-i) at row c."""
    Y = digits(0, p**n, p, n).T.astype(np.int64)
    Y.setflags(write=False)
    return Y


@functools.cache
def _general_linear(p: int, d: int):
    """GL(d, p) as a read-only int64 [|GL|, d, d] array, refused
    (CapExceededError) above GL_BOUND elements."""
    size = math.prod(p**d - p**i for i in range(d))
    if size > GL_BOUND:
        raise CapExceededError("GL(%d, %d) has %d elements, over bound %d" % (d, p, size, GL_BOUND))
    mats = digits(0, p ** (d * d), p, d * d).T.reshape(p ** (d * d), d, d).astype(np.int64)
    mats = mats[ranks(mats, make_field(p, 1)) == d]
    mats.setflags(write=False)
    return mats


def _grow(Y, mask, y: int, p: int):
    """The membership mask over Y's rows of span(mask's rows, Y[y])."""
    S = Y[mask]
    new = (S[None] + np.arange(1, p)[:, None, None] * Y[y]) % p
    out = mask.copy()
    out[new.reshape(-1, Y.shape[1]) @ p ** np.arange(Y.shape[1] - 1, -1, -1)] = True
    return out


class ClassTwoForm:
    """The class-2 data of the group V x W, (v, w)(v', w') = (v + v', w + w'
    + phi(v, v')), over F_p, from phi's structure constants, an int64
    [n, n, d] array: the squaring map q(v) = phi(v, v), which is v's square
    at p = 2, and the commutator bimap b(v, v') = phi(v, v') - phi(v', v).
    W must be the Frattini subgroup: b's values span it, with q's at p = 2.

    Every vector v of V is typed by the rank of b(v, .), and at p = 2 by
    whether q(v) = 0; a pseudo-isometry keeps types.  `null` masks the
    subspace N of the v with b(v, .) = 0, and q(v) = 0 at p = 2, which
    splits off; `core` is dim V - dim N.  The
    `invariants`, bucket keys, are dim V, dim W and dim rad b, with the
    number of zeros of q at p = 2 and the histogram of the ranks at p odd.
    `basis` is V's basis for the search, each row in phi's coordinates: the
    first `core` rows span a complement of N, the non-radical and q != 0
    vectors first, and the last rows a basis of N.
    """

    def __init__(self, phi, p: int):
        phi = np.asarray(phi, dtype=np.int64)
        self.p, (self.n, _, self.d) = p, phi.shape
        n, d = self.n, self.d
        self.vectors = Y = _all_vectors(p, n)
        self.bracket = (phi - phi.transpose(1, 0, 2)) % p
        rank = ranks((Y @ self.bracket.reshape(n, n * d) % p).reshape(len(Y), n, d), make_field(p, 1))
        if p == 2:
            self.q = np.einsum("ai,ijk,aj->ak", Y, phi, Y) % p
            zeros = int((~self.q.any(axis=1)).sum())
            self.types = 2 * rank + self.q.any(axis=1)
        else:
            self.types = rank
        self.null = self.types == 0
        self.core = n - round(math.log(self.null.sum(), p))
        self.invariants = (n, d, round(math.log((rank == 0).sum(), p)),
                           zeros if p == 2 else tuple(np.bincount(rank).tolist()))

    def _picks(self, order, inspan, count: int) -> list:
        """`count` vectors (row indices), each the first in `order` outside
        the span of inspan's vectors and the picks before it."""
        picks = []
        for k in range(count):
            picks.append(order[np.argmax(~inspan[order])])
            if k + 1 < count:
                inspan = _grow(self.vectors, inspan, picks[-1], self.p)
        return picks

    @functools.cached_property
    def null_basis(self):
        """A basis of N, as rows."""
        start = np.zeros(len(self.vectors), bool)
        start[0] = True
        return self.vectors[self._picks(np.flatnonzero(self.null), start, self.n - self.core)]

    @functools.cached_property
    def basis(self):
        """The core rows, each the first vector, in order of preference (the
        non-radical first, then the larger types), outside the span of N and
        the rows before it; then `null_basis`."""
        rank = self.types // 2 if self.p == 2 else self.types
        order = np.lexsort((-self.types, rank == 0))
        return np.concatenate([self.vectors[self._picks(order, self.null, self.core)], self.null_basis])


def _agree(got, mine):
    """The bool [c, b] array of whether row c of `got` equals row b of
    `mine`, compared in chunks of at most _CELLS cells."""
    step = max(1, _CELLS // max(1, mine.size))
    return np.concatenate([(got[a:a + step, None] == mine[None]).all(axis=2)
                           for a in range(0, len(got), step)])


def pseudo_isometry(A: ClassTwoForm, B: ClassTwoForm):
    """(alpha, beta) with q_B(alpha v) = beta q_A(v) for every v at p = 2,
    and b_B(alpha v, alpha v') = beta b_A(v, v') at p odd, or None when
    there is none (the search space is exhausted).  alpha is the [n, n]
    array of the images of A's `basis`, in B's coordinates; beta is d x d.

    Backtracks over the images of A's core basis vectors, each among B's
    vectors of its type outside the span of the images so far.  It carries
    the set of beta in GL(W) that agree with every value fixed so far: the
    square of each core vector at p = 2, and its bracket with every earlier
    one.  Each level compares every candidate's row of values (as W codes)
    with every beta's at once.  N is mapped onto N, by a basis onto a basis.
    The `invariants` are for the caller to bucket by: the search itself
    compares only p, dim V, dim W and dim N.

    GL(W) is enumerated, up to GL_BOUND = 2^15 elements: dim W up to 4 at
    p = 2, 3 at p = 3, 2 at p up to 13, and 1 at larger p below 2^15.  A larger GL(W) raises
    CapExceededError, as does a search that visits smallgrp._ISO_NODE_BUDGET
    nodes.
    """
    p, n, d = A.p, A.n, A.d
    if (A.p, A.n, A.d, A.core) != (B.p, B.n, B.d, B.core):
        return None
    basis, core, wd = A.basis, A.core, p ** np.arange(d)
    values = np.einsum("ja,abk,ib->jik", basis, A.bracket, basis) % p  # [j, i] = b(e_j, e_i)
    codes = basis @ p ** np.arange(n - 1, -1, -1)
    if p == 2:
        values = np.concatenate([A.q[codes][None], values])  # [0, i] = q(e_i), [1 + j, i] = b(e_j, e_i)
    want = A.types[codes]
    Y, pools, images = B.vectors, [np.flatnonzero(B.types == t) for t in want[:core]], []
    flat = B.bracket.reshape(n, n * d)
    budget = [smallgrp._ISO_NODE_BUDGET]

    def level(i, betas, inspan, rows):  # rows[j, y]: the code of the j-th value fixed so far at y
        if i == core:
            return betas
        cands = pools[i][~inspan[pools[i]]]
        if len(rows) and len(cands):
            mine = np.einsum("bkl,jl->bjk", betas, values[:len(rows), i]) % p @ wd
            agree = _agree(rows[:, cands].T, mine)
            keep = agree.any(axis=1)
            cands, agree = cands[keep], agree[keep]
        for c, y in enumerate(cands.tolist()):
            budget[0] -= 1
            if budget[0] < 0:
                raise CapExceededError("isomorphism search budget exhausted")
            images.append(y)
            row = Y @ (Y[y] @ flat).reshape(n, d) % p @ wd  # the codes of b(y, .)
            found = level(i + 1, betas[agree[c]] if len(rows) else betas,
                          _grow(Y, inspan, y, p) if i + 1 < core else None, np.concatenate([rows, row[None]]))
            if found is not None:
                return found
            images.pop()
        return None

    start = np.zeros(len(Y), bool)
    start[0] = True
    betas = level(0, _general_linear(p, d), start, (B.q @ wd)[None] if p == 2 else np.zeros((0, len(Y)), np.int64))
    if betas is None:
        return None
    return np.concatenate([Y[images], B.null_basis]), betas[0]
