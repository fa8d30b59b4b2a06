"""Hom pairs of matrix systems: identities, brute-force counts, nuclei."""

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
from kinderlab.linalg import Matrix, Subspace, unflatten_matrix

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


def test_end_of_identity_system():
    E = bm.end_space(bm.MatrixSystem.from_matrices([Matrix.identity(F2, 2)]))
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


def test_scalar_pairs_in_end():
    rng = random.Random(3)
    for K in (F2, F3, F4):
        phi = bm.MatrixSystem.random(K, (2, 2), 3, rng)
        E = bm.end_space(phi)
        lam = K.random_nonzero(rng)
        A = Matrix.identity(K, 2).scale(lam)
        assert E.contains(A, A)


def test_hom_functoriality():
    rng = random.Random(6)
    P = bm.MatrixSystem.random(F2, (2, 2), 2, rng)
    U = bm.MatrixSystem.random(F2, (2, 2), 2, rng)
    X = bm.MatrixSystem.random(F2, (2, 2), 2, rng)
    h1, h2, h3 = bm.hom_space(P, U), bm.hom_space(U, X), bm.hom_space(P, X)
    for A1, B1 in h1.basis:
        for A2, B2 in h2.basis:
            assert h3.contains(A2.mul(A1), B1.mul(B2))


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


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_hom_equations_batch_matches_rows(q):
    F = make_field_from_order(q)
    rng = random.Random(q)
    for s, b, a, t, c in ((2, 3, 1, 2, 2), (3, 3, 3, 3, 1), (1, 2, 2, 1, 3)):
        pairs = [(bm.MatrixSystem.random(F, (s, b), c, rng), bm.MatrixSystem.random(F, (a, t), c, rng))
                 for _ in range(3)]
        P = np.array([[m.rows for m in phi] for phi, _ in pairs])
        U = np.array([[m.rows for m in ups] for _, ups in pairs])
        for sign in (1, -1):
            got = bm.hom_equations_batch(P, U, sign, F)
            for k, (phi, ups) in enumerate(pairs):
                assert got[k].tolist() == bm._hom_equations(phi, ups, sign)[0]


def test_nucleus_equations_linear_in_q():
    mm = bm.matrix_multiplication_bimap(F3, 2, 2, 1)
    rng = random.Random(3)
    for _ in range(10):
        u = [rng.randrange(3) for _ in range(mm.left_dim)]
        v = [rng.randrange(3) for _ in range(mm.left_dim)]
        w = [F3.add(x, y) for x, y in zip(u, v)]
        lhs = bm.nucleus_equations(mm, w)
        rhs = [[F3.add(x, y) for x, y in zip(r1, r2)]
               for r1, r2 in zip(bm.nucleus_equations(mm, u), bm.nucleus_equations(mm, v))]
        assert lhs == rhs
        assert len(lhs) == mm.right_dim * mm.target_dim


def test_lambda_build_antisymmetric():
    rng = random.Random(7)
    phi = bm.MatrixSystem.random(F3, (2, 3), 4, rng)
    lam = bm.lambda_build(phi)
    assert lam.shape == (5, 5)
    for L in lam:
        assert L.transpose() == L.neg()


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
        assert mm.evaluate(u, v) == direct(u, v)


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
        assert mm.evaluate(u, v) == tuple(x for row in Z.rows for y in row for x in K.to_vector(y))


def test_right_nucleus():
    mm = bm.matrix_multiplication_bimap(F2, 2, 2, 1)
    nuc = bm.right_nucleus(mm, Subspace.full(F2, mm.left_dim))
    assert nuc.dim_k == 1
    nuc0 = bm.right_nucleus(mm, Subspace.zero(F2, mm.left_dim))
    assert nuc0.dim_k == mm.right_dim**2 + mm.target_dim**2


def test_system_validation():
    with pytest.raises(InvalidConfigError):
        bm.MatrixSystem(F2, (2, 2), [Matrix.identity(F2, 3)])
    with pytest.raises(InvalidConfigError):
        bm.MatrixSystem.from_matrices([])
    rng = random.Random(0)
    phi2 = bm.MatrixSystem.random(F2, (2, 2), 2, rng)
    phi3 = bm.MatrixSystem.random(F3, (2, 2), 2, rng)
    with pytest.raises(InvalidConfigError):
        bm.hom_space(phi2, phi3)


def test_hom_space_contains_builds_its_echelon_once(monkeypatch):
    built = []

    class Counting(bm.EchelonAccumulator):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(bm, "EchelonAccumulator", Counting)
    mm = bm.matrix_multiplication_bimap(F2, 2, 2, 1)
    nuc0 = bm.right_nucleus(mm, Subspace.zero(F2, mm.left_dim))
    # the identity and dim^2 composites are all tested against one echelon form
    assert nuc0.dim_k == mm.right_dim**2 + mm.target_dim**2 and len(built) == 1
    nuc = bm.right_nucleus(mm, Subspace.full(F2, mm.left_dim))
    assert nuc.dim_k == 1 and len(built) == 2
    gi, hi = Matrix.identity(F2, mm.right_dim), Matrix.identity(F2, mm.target_dim)
    assert nuc.contains(gi, hi) and not nuc.contains(gi, hi.scale(0))
    empty = bm.HomSpace(ctx=F2, basis=(), dim_k=0, dim_fp=0)
    zero = (Matrix.zero(F2, 2, 2), Matrix.zero(F2, 1, 1))
    assert empty.contains(*zero) and not empty.contains(Matrix.identity(F2, 2), zero[1])


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
