"""Hom pairs of matrix systems: identities, brute-force counts, nuclei."""

import functools
import itertools
import json
import random
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinderlab import acceptance
from kinderlab import bimap as bm
from kinderlab.errors import InvalidConfigError, PropertyViolationError
from kinderlab.gf import make_field, make_field_from_order
from kinderlab.linalg import Matrix, Subspace, rref, unflatten_matrix
import matrix_ops
from matrix_ops import flatten_matrix, flatten_pair, hom_span, matrix_scale, zero_matrix

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def test_end_of_identity_system():
    E = bm.end_space(bm.MatrixSystem(F2, (2, 2), [Matrix.identity(F2, 2)]))
    assert E.dim_k == 4 and E.dim_fp == 4


def test_empty_system():
    empty = bm.MatrixSystem(F2, (1, 1), [])
    assert bm.hom_space(empty, empty).dim_k == 2


def test_witness_frozen_shape():
    W12 = bm.witness_system(1, 2, F2)
    assert [m.rows for m in W12] == [((1, 0),), ((0, 1),), ((0, 1),)]
    assert bm.end_space(W12).dim_k == 1
    W23 = bm.witness_system(2, 3, F2)
    assert len(W23) == 3 and W23.shape == (2, 3)


@pytest.mark.parametrize("K", [F2, F3, F4], ids=["F2", "F3", "F4"])
def test_witness_end_scalar(K):
    for n in range(1, 4):
        for m in range(1, n + 1):
            W = bm.witness_system(m, n, K)
            assert bm.end_space(W).dim_k == 1
            assert bm.hom_dim(W, W) == 1


def test_witness_no_pm_transpose_homs():
    for K in (F2, F3):
        for m, n in ((1, 2), (1, 3), (3, 3)):
            W = bm.witness_system(m, n, K)
            for sign in (1, -1):
                assert bm.hom_space(W, W.transpose(), sign).dim_k == 0


def test_hom_basis_satisfies_equations():
    rng = random.Random(12)
    for K in (F2, F3, F4):
        phi = bm.MatrixSystem.random(K, (2, 3), 3, rng)
        ups = bm.MatrixSystem.random(K, (2, 2), 3, rng)
        for sign in (1, -1):
            H = bm.hom_space(phi, ups, sign)
            for A, B in H.basis:
                for P, U in zip(phi.mats, ups.mats):
                    left = A.mul(P)
                    right = U.mul(B.transpose())
                    if sign == -1:
                        right = right.neg()
                    assert left == right


def _reference_sides(phi, ups, sign):
    """Both sides of A Phi_i = sign Ups_i B^t, entries flattened: the left for
    every A and the right for every B, in `itertools.product` order, with one
    `Matrix` per candidate."""
    ctx = phi.ctx
    q = ctx.order
    s, b = phi.shape
    a, t = ups.shape
    lefts = []
    for entries in itertools.product(range(q), repeat=a * s):
        A = Matrix(ctx, [entries[i * s:(i + 1) * s] for i in range(a)], s)
        lefts.append(tuple(x for P in phi.mats for row in A.mul(P).rows for x in row))
    rights = []
    for entries in itertools.product(range(q), repeat=b * t):
        B = Matrix(ctx, [entries[i * t:(i + 1) * t] for i in range(b)], t)
        out = []
        for U in ups.mats:
            M = U.mul(B.transpose())
            if sign == -1:
                M = M.neg()
            out.extend(x for row in M.rows for x in row)
        rights.append(tuple(out))
    return lefts, rights


def _brute_hom_count(phi, ups, sign):
    """The reference count, which criterion 2's oracle
    (`acceptance._brute_hom_count`) is tested against."""
    lefts, rights = _reference_sides(phi, ups, sign)
    cnt = Counter(lefts)
    return sum(cnt.get(v, 0) for v in rights)


@pytest.mark.parametrize("q,shapes", [(2, ((1, 2, 1, 2), (2, 2, 2, 2))), (3, ((1, 2, 1, 2),))])
def test_hom_dim_vs_bruteforce(q, shapes):
    K = make_field(q, 1)
    rng = random.Random(q)
    for a, s, b, t in shapes:
        for sign in (1, -1):
            phi = bm.MatrixSystem.random(K, (s, b), 2, rng)
            ups = bm.MatrixSystem.random(K, (a, t), 2, rng)
            d = bm.hom_space(phi, ups, sign).dim_fp
            assert _brute_hom_count(phi, ups, sign) == q**d


# (a, s, b, t); b == t in some, so that B in place of B^t changes a count
# rather than only failing on shapes, and a * s = 8 in two
ORACLE_SHAPES = {
    2: ((1, 2, 1, 2), (2, 2, 2, 2), (4, 2, 1, 2), (2, 4, 2, 2), (1, 3, 2, 1), (3, 1, 1, 3)),
    3: ((1, 1, 1, 1), (1, 2, 1, 2), (2, 2, 2, 2), (1, 3, 2, 1), (2, 1, 1, 3)),
}


@pytest.mark.parametrize("q", sorted(ORACLE_SHAPES))
def test_array_hom_count_matches_reference(q):
    K = make_field(q, 1)
    rng = random.Random(40 + q)
    for a, s, b, t in ORACLE_SHAPES[q]:
        for c in (1, 2, 3):
            for sign in (1, -1):
                phi = bm.MatrixSystem.random(K, (s, b), c, rng)
                ups = bm.MatrixSystem.random(K, (a, t), c, rng)
                # the count is the same for both signs ((A, B) -> (A, -B)),
                # so the sides are compared value by value as well
                left, right = acceptance._hom_sides(phi, ups, sign)
                got = [list(map(tuple, side.reshape(len(side), -1).tolist())) for side in (left, right)]
                assert got == list(_reference_sides(phi, ups, sign)), (a, s, b, t, c, sign)
                want = _brute_hom_count(phi, ups, sign)
                assert acceptance._brute_hom_count(phi, ups, sign) == want, (a, s, b, t, c, sign)
                assert want == q ** bm.hom_space(phi, ups, sign).dim_fp


def test_array_hom_count_needs_a_prime_field():
    rng = random.Random(4)
    phi = bm.MatrixSystem.random(F4, (1, 1), 1, rng)
    with pytest.raises(InvalidConfigError):
        acceptance._brute_hom_count(phi, phi, 1)


@pytest.mark.parametrize("a,s,b,t", [(1, 1, 1, 0), (1, 0, 1, 1), (1, 1, 0, 1), (0, 1, 1, 1),
                                     (2, 0, 0, 2), (1, 2, 1, 0)])
def test_hom_space_with_a_zero_dimension(a, s, b, t):
    rng = random.Random(a + 2 * s + 4 * b + 8 * t)
    for K in (F2, F3):
        for sign in (1, -1):
            phi = bm.MatrixSystem.random(K, (s, b), 2, rng)
            ups = bm.MatrixSystem.random(K, (a, t), 2, rng)
            H = bm.hom_space(phi, ups, sign)
            assert H.dim_k == bm.hom_dim(phi, ups, sign) == bm.hom_dim(phi, ups, sign, fast=False)
            assert _brute_hom_count(phi, ups, sign) == K.order**H.dim_fp
            assert acceptance._brute_hom_count(phi, ups, sign) == K.order**H.dim_fp
            for A, B in H.basis:
                assert (A.shape, B.shape) == ((a, s), (b, t))
            _assert_hom_matches_reference(phi, ups, sign)


def test_scalar_pairs_in_end():
    rng = random.Random(3)
    for K in (F2, F3, F4):
        phi = bm.MatrixSystem.random(K, (2, 2), 3, rng)
        E = bm.end_space(phi)
        lam = rng.randrange(1, K.order)
        A = matrix_scale(Matrix.identity(K, 2), lam)
        assert hom_span(E).contains(flatten_pair(A, A))


def test_hom_functoriality():
    rng = random.Random(6)
    P = bm.MatrixSystem.random(F2, (2, 2), 2, rng)
    U = bm.MatrixSystem.random(F2, (2, 2), 2, rng)
    X = bm.MatrixSystem.random(F2, (2, 2), 2, rng)
    h1, h2, h3 = bm.hom_space(P, U), bm.hom_space(U, X), bm.hom_space(P, X)
    span = hom_span(h3)
    for A1, B1 in h1.basis:
        for A2, B2 in h2.basis:
            assert span.contains(flatten_pair(A2.mul(A1), B1.mul(B2)))


def test_dim_fp_scaling_extension_field():
    rng = random.Random(14)
    phi = bm.MatrixSystem.random(F4, (2, 2), 2, rng)
    E = bm.end_space(phi)
    assert E.dim_fp == 2 * E.dim_k


def test_hom_dim_fast_matches():
    rng = random.Random(21)
    for _ in range(10):
        phi = bm.MatrixSystem.random(F3, (2, 2), 2, rng)
        ups = bm.MatrixSystem.random(F3, (2, 2), 2, rng)
        assert bm.hom_dim(phi, ups, fast=True) == bm.hom_space(phi, ups).dim_k


@pytest.mark.parametrize("p", [191, 251])
def test_hom_dim_fast_matches_exact_at_large_primes(p):
    # the fast rank once ran in int16, and p^2 overflowed it from p = 191 up
    F = make_field(p, 1)
    rng = random.Random(p)
    for _ in range(40):
        phi = bm.MatrixSystem.random(F, (2, 2), 2, rng)
        ups = bm.MatrixSystem.random(F, (2, 2), 2, rng)
        for sign in (1, -1):
            assert bm.hom_dim(phi, ups, sign, fast=True) == bm.hom_dim(phi, ups, sign, fast=False)
        assert bm.hom_dim(phi, phi, fast=True) == bm.hom_dim(phi, phi, fast=False) >= 1


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([3, 5, 7, 9, 191]), m=st.integers(1, 3), n=st.integers(1, 3),
       s=st.integers(1, 3), transposed=st.booleans(), seed=st.integers(0, 2**32))
def test_hom_dim_equal_for_both_signs(q, m, n, s, transposed, seed):
    # (A, B) -> (A, -B) carries the solutions of A Phi_i = Ups_i B^t onto those
    # of A Phi_i = -Ups_i B^t, so the hom_pm_transpose pair is always "k,k"
    K = make_field_from_order(q)
    rng = random.Random(seed)
    phi = bm.MatrixSystem.random(K, (m, n), s, rng)
    ups = phi.transpose() if transposed else bm.MatrixSystem.random(K, (n, m), s, rng)
    for fast in (True, False):
        assert bm.hom_dim(phi, ups, 1, fast=fast) == bm.hom_dim(phi, ups, -1, fast=fast)


def _hom_equations(phi, ups, sign):
    """The reference rows of the flat hom system, one Python row at a time:
    unknowns are A (a x s) then B (b x t), row-major."""
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


def _codes(systems, dtype=np.int64):
    """[T, c, rows, cols] element codes of equally shaped systems."""
    phi = systems[0]
    return np.array([[m.rows for m in x] for x in systems], dtype=dtype).reshape(
        len(systems), len(phi), *phi.shape)


def _assert_hom_matches_reference(phi, ups, sign):
    """hom_space, hom_dim (both ranks) and hom_equations_batch against the
    reference rows."""
    ctx = phi.ctx
    rows, (a, s, b, t) = _hom_equations(phi, ups, sign)
    want = bm._solution_pairs(ctx, rows, (a, s), (b, t))
    H = bm.hom_space(phi, ups, sign)
    assert list(H.basis) == want
    dim = a * s + b * t - len(rref(rows, ctx)[0])
    assert H.dim_k == dim == bm.hom_dim(phi, ups, sign) == bm.hom_dim(phi, ups, sign, fast=False)
    dtype = np.int64 if ctx.order <= 1 << 63 else object
    got = bm.hom_equations_batch(_codes([phi], dtype), _codes([ups], dtype), sign, ctx)
    assert got.shape == (1, len(rows), a * s + b * t) and got[0].tolist() == rows


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_hom_equations_batch_matches_rows(q):
    F = make_field_from_order(q)
    rng = random.Random(q)
    for s, b, a, t, c in ((2, 3, 1, 2, 2), (3, 3, 3, 3, 1), (1, 2, 2, 1, 3)):
        pairs = [(bm.MatrixSystem.random(F, (s, b), c, rng), bm.MatrixSystem.random(F, (a, t), c, rng))
                 for _ in range(3)]
        P = _codes([phi for phi, _ in pairs])
        U = _codes([ups for _, ups in pairs])
        for sign in (1, -1):
            got = bm.hom_equations_batch(P, U, sign, F)
            for k, (phi, ups) in enumerate(pairs):
                assert got[k].tolist() == _hom_equations(phi, ups, sign)[0]


# fields whose codes leave int64 (GF(2^70): object arrays) or batch_rank's
# range (a prime just above PRIME_CAP: the rref fallback), and an odd
# extension field with three digits per code
EXACT_FIELDS = {"GF(2^70)": (2, 70), "p=2^31+11": (2147483659, 1), "GF(125)": (5, 3)}


@pytest.mark.parametrize("name", sorted(EXACT_FIELDS))
def test_hom_arrays_stay_exact_on_large_fields(name):
    K = make_field(*EXACT_FIELDS[name])
    rng = random.Random(name)
    for a, s, b, t, c in ((1, 2, 2, 1, 2), (2, 2, 2, 2, 1), (2, 1, 1, 2, 3)):
        phi = bm.MatrixSystem.random(K, (s, b), c, rng)
        for ups in (bm.MatrixSystem.random(K, (a, t), c, rng), phi.transpose()):
            for sign in (1, -1):
                _assert_hom_matches_reference(phi, ups, sign)
    # a system with a nonzero hom space: End of the identity system is M_2(K)
    ident = bm.MatrixSystem(K, (2, 2), [Matrix.identity(K, 2)])
    _assert_hom_matches_reference(ident, ident, 1)
    assert bm.end_space(ident).dim_k == 4


def _nucleus_reference(bimap, q) -> list:
    """The reference r*t rows of [q, g v] = h [q, v] for one left vector q,
    one field operation at a time; unknowns are g (r x r) then h (t x t)."""
    ctx = bimap.ctx
    r, t = bimap.right_dim, bimap.target_dim
    ng, nh = r * r, t * t
    W = []
    for S in bimap.structure.tolist():
        wk = [0] * r
        for i, qi in enumerate(q):
            for j2 in range(r):
                wk[j2] = ctx.add(wk[j2], ctx.mul(qi, S[i][j2]))
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


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 4, 5, 9]), shape=st.tuples(*[st.integers(1, 2)] * 3),
       n=st.integers(0, 4), seed=st.integers(0, 2**32))
def test_nucleus_equations_match_the_reference(q, shape, n, seed):
    mm = bm.matrix_multiplication_bimap(make_field_from_order(q), *shape)
    rng = random.Random(seed)
    Q = [[rng.randrange(mm.ctx.p) for _ in range(mm.left_dim)] for _ in range(n)]
    got = bm.nucleus_equations(mm, np.array(Q, dtype=np.int64).reshape(n, mm.left_dim))
    assert got.shape == (n, mm.right_dim * mm.target_dim, mm.right_dim ** 2 + mm.target_dim ** 2)
    assert got.tolist() == [_nucleus_reference(mm, q) for q in Q]


def test_nucleus_equations_linear_in_q():
    mm = bm.matrix_multiplication_bimap(F3, 2, 2, 1)
    rng = random.Random(3)
    for _ in range(10):
        u = [rng.randrange(3) for _ in range(mm.left_dim)]
        v = [rng.randrange(3) for _ in range(mm.left_dim)]
        w = [F3.add(x, y) for x, y in zip(u, v)]
        lhs, eu, ev = bm.nucleus_equations(mm, np.array([w, u, v])).tolist()
        rhs = [[F3.add(x, y) for x, y in zip(r1, r2)] for r1, r2 in zip(eu, ev)]
        assert lhs == rhs
        assert len(lhs) == mm.right_dim * mm.target_dim


def test_lambda_build_antisymmetric():
    rng = random.Random(7)
    phi = bm.MatrixSystem.random(F3, (2, 3), 4, rng)
    lam = bm.lambda_build(_codes([phi]), F3)
    assert lam.shape == (1, 4, 5, 5)
    for L in lam[0].tolist():
        assert Matrix(F3, L).transpose() == Matrix(F3, L).neg()


@pytest.mark.parametrize("q", [4, 9])
def test_lambda_build_matches_the_blocks_entrywise(q):
    K = make_field_from_order(q)
    rng = random.Random(q)
    a, b = 2, 3
    systems = [bm.MatrixSystem.random(K, (a, b), 3, rng) for _ in range(4)]
    got = bm.lambda_build(_codes(systems), K)
    for lam, phi in zip(got.tolist(), systems):
        for L, P in zip(lam, phi):
            want = [[0] * (a + b) for _ in range(a + b)]
            for i in range(a):
                for j in range(b):
                    want[i][a + j] = P[i, j]
                    want[a + j][i] = K.neg(P[i, j])
            assert L == want


def _evaluate(bimap, u, v) -> tuple:
    """The bimap on a pair of vectors, one field operation at a time."""
    ctx = bimap.ctx
    return tuple(
        functools.reduce(ctx.add, (ctx.mul(ctx.mul(ui, S[i][j]), vj)
                                   for i, ui in enumerate(u) for j, vj in enumerate(v)), 0)
        for S in bimap.structure.tolist())


def test_matrix_multiplication_bimap():
    mm = bm.matrix_multiplication_bimap(F2, 2, 2, 1)
    rng = random.Random(1)

    def direct(u, v):
        Xm = Matrix(F2, [u[0:2], u[2:4]])
        Ym = Matrix(F2, [v[0:1], v[1:2]])
        return tuple(x for row in Xm.mul(Ym).rows for x in row)

    for _ in range(50):
        u = tuple(rng.randrange(2) for _ in range(4))
        v = tuple(rng.randrange(2) for _ in range(2))
        assert _evaluate(mm, u, v) == direct(u, v)


@pytest.mark.parametrize("q", [4, 9])
def test_matrix_multiplication_bimap_flattens_to_the_prime_field(q):
    K = make_field_from_order(q)
    a, c, d = 2, 2, 1
    mm = bm.matrix_multiplication_bimap(K, a, c, d)
    assert mm.ctx == make_field(K.p, 1)
    assert (mm.left_dim, mm.right_dim, mm.target_dim) == (a * c * K.e, c * d * K.e, a * d * K.e)
    rng = random.Random(q)
    for _ in range(30):
        u = [rng.randrange(K.p) for _ in range(mm.left_dim)]
        v = [rng.randrange(K.p) for _ in range(mm.right_dim)]
        Z = unflatten_matrix(u, K, a, c).mul(unflatten_matrix(v, K, c, d))
        assert _evaluate(mm, u, v) == tuple(x for row in Z.rows for y in row for x in K.to_vector(y))


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_matrix_multiplication_constants_are_unit_products(q):
    K = make_field_from_order(q)
    for a, c, d in itertools.product(range(1, 4), repeat=3):
        mm = bm.matrix_multiplication_bimap(K, a, c, d)
        S, fp = mm.structure, mm.ctx
        assert S.dtype == np.int64 and not S.flags.writeable
        left = [unflatten_matrix(u, K, a, c) for u in Matrix.identity(fp, mm.left_dim).rows]
        right = [unflatten_matrix(v, K, c, d) for v in Matrix.identity(fp, mm.right_dim).rows]
        want = [[list(flatten_matrix(x.mul(y))) for y in right] for x in left]
        assert S.transpose(1, 2, 0).tolist() == want, (a, c, d)


def right_nucleus(bmap: bm.Bimap, left_sub: Subspace) -> bm.HomSpace:
    """Pairs (g, h) with [q, g v] = h [q, v] for all q in left_sub and all v.

    g acts on the right space, h on the target.  The result is closed under
    composition and contains the identity pair; both facts are checked
    against one echelon form of its span.
    """
    ctx = bmap.ctx
    if left_sub.ambient_dim != bmap.left_dim or left_sub.ctx != ctx:
        raise InvalidConfigError("left subspace does not match the bimap")
    r, t = bmap.right_dim, bmap.target_dim
    Q = np.array(left_sub.basis, dtype=np.int64).reshape(left_sub.dim, bmap.left_dim)
    rows = bm.nucleus_equations(bmap, Q).reshape(-1, r * r + t * t).tolist()
    basis = bm._solution_pairs(ctx, rows, (r, r), (t, t))
    space = bm.HomSpace(ctx=ctx, basis=tuple(basis), dim_k=len(basis), dim_fp=ctx.e * len(basis))
    span = hom_span(space)
    if not span.contains(flatten_pair(Matrix.identity(ctx, r), Matrix.identity(ctx, t))):
        raise PropertyViolationError("nucleus lost the identity pair")
    for g1, h1 in basis:
        for g2, h2 in basis:
            if not span.contains(flatten_pair(g1.mul(g2), h1.mul(h2))):
                raise PropertyViolationError("nucleus not closed under composition")
    return space


def test_right_nucleus():
    mm = bm.matrix_multiplication_bimap(F2, 2, 2, 1)
    nuc = right_nucleus(mm, Subspace.full(F2, mm.left_dim))
    assert nuc.dim_k == 1
    nuc0 = right_nucleus(mm, Subspace.zero(F2, mm.left_dim))
    assert nuc0.dim_k == mm.right_dim**2 + mm.target_dim**2


def test_system_validation():
    with pytest.raises(InvalidConfigError):
        bm.MatrixSystem(F2, (2, 2), [Matrix.identity(F2, 3)])
    rng = random.Random(0)
    phi2 = bm.MatrixSystem.random(F2, (2, 2), 2, rng)
    phi3 = bm.MatrixSystem.random(F3, (2, 2), 2, rng)
    with pytest.raises(InvalidConfigError):
        bm.hom_space(phi2, phi3)


def test_hom_space_contains_builds_its_echelon_once(monkeypatch):
    built = []

    class Counting(Subspace):
        @classmethod
        def from_vectors(cls, *args):
            built.append(args)
            return super().from_vectors(*args)

    monkeypatch.setattr(matrix_ops, "Subspace", Counting)
    mm = bm.matrix_multiplication_bimap(F2, 2, 2, 1)
    nuc0 = right_nucleus(mm, Subspace.zero(F2, mm.left_dim))
    # the identity and dim^2 composites are all tested against one echelon form
    assert nuc0.dim_k == mm.right_dim**2 + mm.target_dim**2 and len(built) == 1
    nuc = right_nucleus(mm, Subspace.full(F2, mm.left_dim))
    assert nuc.dim_k == 1 and len(built) == 2
    gi, hi = Matrix.identity(F2, mm.right_dim), Matrix.identity(F2, mm.target_dim)
    span = hom_span(nuc)
    assert span.contains(flatten_pair(gi, hi)) and not span.contains(flatten_pair(gi, matrix_scale(hi, 0)))
    empty = hom_span(bm.HomSpace(ctx=F2, basis=(), dim_k=0, dim_fp=0))
    zero = (zero_matrix(F2, 2, 2), zero_matrix(F2, 1, 1))
    assert empty.contains(flatten_pair(*zero))
    assert not empty.contains(flatten_pair(Matrix.identity(F2, 2), zero[1]))


# witness_system(m, m, K) for each "q,m": its three matrices, row by row.
# Written from the commit that preceded the shared CoordSolver (aba0a8b),
# when the K-coordinates came from bimap's own inverse of the power basis.
WITNESS_GOLDEN = Path(__file__).parent / "data" / "witness_golden.json"


@pytest.mark.parametrize("key", sorted(json.loads(WITNESS_GOLDEN.read_text())))
def test_witness_system_matrices_frozen(key):
    q, m = map(int, key.split(","))
    W = bm.witness_system(m, m, make_field_from_order(q))
    assert [[list(r) for r in M.rows] for M in W] == json.loads(WITNESS_GOLDEN.read_text())[key]


def test_witness_power_basis_must_span(monkeypatch):
    # beta = 0 makes every alpha^i beta^j with j >= 1 zero
    monkeypatch.setattr(bm, "_embed_root", lambda E, K: 0)
    with pytest.raises(PropertyViolationError, match="power basis is not an F_p-basis"):
        bm.witness_system(2, 2, F4)
