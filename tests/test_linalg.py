"""Matrices, subspaces, counting: numpy cross-checks and frozen counts."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinderlab.errors import InvalidConfigError
from kinderlab.gf import make_field, make_field_from_order
from kinderlab.linalg import (
    Matrix,
    Subspace,
    digits,
    enumerate_subspaces,
    enumerate_superspaces,
    gaussian_binomial,
    np_rank,
    rank_nullspace,
    rref,
    rref_bases,
    unflatten_matrix,
)
from matrix_ops import (contains_subspace, flatten_matrix, matrix_add, matrix_apply, matrix_scale,
                        zero_matrix)

F2 = make_field(2, 1)
F3 = make_field(3, 1)
F4 = make_field(2, 2)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_matrix_mul_vs_numpy(p):
    F = make_field(p, 1)
    rng = random.Random(p)
    for _ in range(25):
        a = Matrix.random(F, 3, 4, rng)
        b = Matrix.random(F, 4, 2, rng)
        got = np.array(a.mul(b).rows)
        want = (np.array(a.rows) @ np.array(b.rows)) % p
        assert (got == want).all()


def test_zero_dimensions_keep_their_shape():
    row = Matrix(F2, [()])
    assert row.shape == (1, 0) and row.transpose().shape == (0, 1)
    assert row.transpose().transpose() == row != Matrix(F2, [])
    empty = zero_matrix(F3, 0, 3)
    assert empty.shape == (0, 3) and empty.transpose().shape == (3, 0)
    assert empty.neg().shape == matrix_add(empty, empty).shape == (0, 3)
    assert zero_matrix(F3, 2, 0).mul(empty) == zero_matrix(F3, 2, 3)
    assert empty.transpose().mul(empty) == zero_matrix(F3, 3, 3)
    assert unflatten_matrix((), F4, 0, 2).shape == (0, 2)


def test_matrix_ops_extension_field():
    rng = random.Random(9)
    a = Matrix.random(F4, 3, 3, rng)
    b = Matrix.random(F4, 3, 3, rng)
    c = Matrix.random(F4, 3, 3, rng)
    assert a.mul(b.mul(c)) == a.mul(b).mul(c)
    assert a.mul(Matrix.identity(F4, 3)) == a
    assert a.transpose().transpose() == a
    assert a.mul(b).transpose() == b.transpose().mul(a.transpose())
    assert a.neg().neg() == a
    lam = rng.randrange(1, F4.order)
    assert matrix_scale(matrix_scale(a, lam), F4.inv(lam)) == a


@pytest.mark.parametrize("p", [2, 3])
def test_rank_nullspace(p):
    F = make_field(p, 1)
    rng = random.Random(p + 10)
    for _ in range(40):
        m = Matrix.random(F, rng.randint(1, 5), rng.randint(1, 5), rng)
        rank, rowspace, nullspace = rank_nullspace(m)
        assert rank == np_rank(m.rows, F)
        assert rowspace.dim == rank
        assert rank + nullspace.dim == m.shape[1]
        for row in m.rows:
            assert rowspace.contains(row)
        for v in nullspace.basis:
            assert all(x == 0 for x in matrix_apply(m, v))


def test_subspace_canonical():
    rng = random.Random(4)
    vecs = [(1, 0, 1, 0), (0, 1, 1, 1), (1, 1, 0, 1)]
    S = Subspace.from_vectors(F2, 4, vecs)
    for _ in range(10):
        mixed = []
        for _ in range(6):
            acc = (0, 0, 0, 0)
            for v in vecs:
                if rng.randrange(2):
                    acc = tuple((x + y) % 2 for x, y in zip(acc, v))
            mixed.append(acc)
        T = Subspace.from_vectors(F2, 4, mixed)
        if T.dim == S.dim:
            assert T.basis == S.basis


def test_subspace_membership():
    S = Subspace.from_vectors(F3, 3, [(1, 2, 0), (0, 0, 1)])
    assert S.dim == 2
    assert S.contains((2, 1, 1))
    assert not S.contains((1, 0, 0))
    assert contains_subspace(S, Subspace.from_vectors(F3, 3, [(1, 2, 1)]))
    assert contains_subspace(Subspace.full(F3, 3), S)
    assert contains_subspace(S, Subspace.zero(F3, 3))
    got = set(S.enumerate_vectors())
    assert len(got) == 9 and all(S.contains(v) for v in got)


def test_gaussian_binomial_frozen():
    assert gaussian_binomial(4, 2, 2) == 35
    assert gaussian_binomial(3, 1, 2) == 7
    assert gaussian_binomial(3, 1, 3) == 13
    assert gaussian_binomial(5, 2, 2) == 155
    assert gaussian_binomial(4, 0, 2) == 1
    assert gaussian_binomial(4, 4, 3) == 1
    # symmetry
    for n in range(6):
        for l in range(n + 1):
            assert gaussian_binomial(n, l, 2) == gaussian_binomial(n, n - l, 2)


@pytest.mark.parametrize("q,n", [(2, 3), (2, 4), (3, 3)])
def test_enumerate_subspaces_counts(q, n):
    F = make_field(q, 1)
    for l in range(n + 1):
        got = list(enumerate_subspaces(n, l, F))
        assert len(got) == gaussian_binomial(n, l, q)
        assert len({s.basis for s in got}) == len(got)
        assert all(s.dim == l for s in got)


def _product_loop_subspaces(n, l, order):
    """(pivots, basis rows) in the order of the itertools.product loop that
    enumerate_subspaces ran before it read rref_bases."""
    for pivots in itertools.combinations(range(n), l):
        free = [(i, j) for i in range(l) for j in range(pivots[i] + 1, n) if j not in pivots]
        for values in itertools.product(range(order), repeat=len(free)):
            rows = [[0] * n for _ in range(l)]
            for i, c in enumerate(pivots):
                rows[i][c] = 1
            for (i, j), v in zip(free, values):
                rows[i][j] = v
            yield pivots, rows


@settings(max_examples=40, deadline=None)
@given(q=st.sampled_from([2, 3, 4]), n=st.integers(0, 5), data=st.data())
def test_enumerate_subspaces_reads_the_shared_rref_bases(q, n, data):
    ell = data.draw(st.integers(0, n), label="ell")
    size = data.draw(st.integers(1, 64), label="size")
    F = make_field_from_order(q)
    shared = [(pivots, rows) for pivots, bases in rref_bases(n, ell, q, size)
              for rows in bases.tolist()]
    assert all(len(bases) <= size for _, bases in rref_bases(n, ell, q, size))
    got = [(s.pivots, [list(r) for r in s.basis]) for s in enumerate_subspaces(n, ell, F)]
    assert got == shared == list(_product_loop_subspaces(n, ell, q))
    assert len(got) == gaussian_binomial(n, ell, q)
    # each basis is already reduced, and its pivots are where rref puts them
    assert all(rref(rows, F) == (tuple(map(tuple, rows)), pivots) for pivots, rows in got)


def test_digits_are_exact_past_int32():
    lo = (1 << 31) - 3
    d = digits(lo, lo + 6, 10, 10)
    assert d.dtype == np.int64
    assert [int("".join(map(str, col))) for col in d.T.tolist()] == list(range(lo, lo + 6))
    assert digits(0, 27, 3, 3).dtype == np.int32
    assert digits(0, 27, 3, 3)[:, 11].tolist() == [1, 0, 2]
    with pytest.raises(InvalidConfigError):
        digits(0, 1 << 64, 2, 64)


def test_enumerate_superspaces():
    S = Subspace.from_vectors(F2, 4, [(1, 0, 0, 0)])
    ups = list(enumerate_superspaces(S, 2))
    assert len(ups) == gaussian_binomial(3, 1, 2) == 7
    for U in ups:
        assert U.dim == 2 and contains_subspace(U, S)


def test_flatten_roundtrip():
    rng = random.Random(2)
    m = Matrix.random(F3, 2, 3, rng)
    v = flatten_matrix(m)
    assert len(v) == 6
    assert unflatten_matrix(v, F3, 2, 3) == m
