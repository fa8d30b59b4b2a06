"""The row kernels `FieldCtx.axpy` and `FieldCtx.dot`, and the linalg loops
that run on them, against the per-entry references in `tests/matrix_ops.py`
(hypothesis).

The fields cover each branch of the kernels: GF(2) (XOR), primes small and
large (plain ints mod p, up to 2^31 - 1, whose products pass int64),
GF(4) and GF(8) (XOR through the log tables), GF(9) (the per-entry methods
over an odd characteristic) and GF(2^70), which has no tables.
"""

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinderlab.gf import make_field, make_field_from_order
from kinderlab.linalg import CoordSolver, Matrix, Subspace, rref
from matrix_ops import (coords_reference, enumerate_vectors_reference, matrix_mul_reference,
                        reduce_reference, rref_reference)

FIELDS = ([make_field(p, 1) for p in (2, 3, 5, 46349, 2**31 - 1)]
          + [make_field_from_order(q) for q in (4, 8, 9)] + [make_field(2, 70)])
KERNELS = settings(max_examples=100, deadline=None)


def _elements(F):
    # the extremes of large fields, where an unreduced product shows
    return st.one_of(st.integers(0, F.order - 1), st.sampled_from([0, 1, F.order - 1]))


def _rows(draw, F, nrows, ncols):
    elem = _elements(F)
    return [draw(st.lists(elem, min_size=ncols, max_size=ncols)) for _ in range(nrows)]


@st.composite
def matrices(draw, max_dim=5):
    """A field and a matrix of it, uniform or with repeated and zero rows."""
    F = draw(st.sampled_from(FIELDS))
    rows = _rows(draw, F, draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim)))
    if len(rows) > 1 and draw(st.booleans()):
        rows[-1] = list(rows[0])  # a dependent row
    if rows and draw(st.booleans()):
        rows[0] = [0] * len(rows[0])
    return F, rows


@given(st.data())
@KERNELS
def test_axpy_and_dot_equal_the_per_entry_arithmetic(data):
    F = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(0, 8))  # n = 0: empty rows
    x, y = _rows(data.draw, F, 2, n)
    f = data.draw(st.one_of(st.just(0), _elements(F)))
    expected = [F.sub(a, F.mul(f, b)) for a, b in zip(x, y)]
    got = F.axpy(x, f, y)
    assert got == expected and got is not x
    assert F.dot(x, y) == functools.reduce(F.add, [F.mul(a, b) for a, b in zip(x, y)], 0)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: "q=%d" % F.order)
def test_axpy_by_zero_copies_and_unequal_rows_raise(F):
    x, y = [1, 0, 1], [1, 1, 1]
    got = F.axpy(x, 0, y)
    assert got == x and got is not x
    assert F.axpy([], 1, []) == [] and F.dot([], []) == 0
    with pytest.raises(ValueError):
        F.axpy(x, 1, y[:2])


@given(matrices(max_dim=6))
@KERNELS
def test_rref_equals_the_reference(fm):
    F, rows = fm
    assert rref(rows, F) == rref_reference(rows, F)


@given(matrices(), st.data())
@KERNELS
def test_reduce_and_coords_equal_the_reference(fm, data):
    F, rows = fm
    n = len(rows[0]) if rows else data.draw(st.integers(0, 5))
    space = Subspace.from_vectors(F, n, rows)
    (vec,) = _rows(data.draw, F, 1, n)
    member = [functools.reduce(F.add, col, 0) for col in zip(*space.basis)] or [0] * n  # the basis summed
    for v in (vec, member):
        assert space.reduce(v) == reduce_reference(space, v)
    if space.dim:
        # a family that is not in echelon form: each basis row plus the first
        family = [space.basis[0]] + [[F.add(a, b) for a, b in zip(r, space.basis[0])]
                                     for r in space.basis[1:]]
        solver = CoordSolver(family, F)
        for v in (vec, member, family[-1]):
            assert solver.coords(v) == coords_reference(solver, v)
        assert solver.coords(member) is not None


@given(matrices(max_dim=4))
@KERNELS
def test_enumerate_vectors_equals_the_reference(fm):
    F, rows = fm
    n = len(rows[0]) if rows else 3
    space = Subspace.from_vectors(F, n, rows)
    while F.order ** space.dim > 1024:  # keep the smallest spaces of the large fields
        space = Subspace.from_vectors(F, n, space.basis[1:])
    assert list(space.enumerate_vectors()) == enumerate_vectors_reference(space)


@given(st.data())
@KERNELS
def test_matrix_mul_equals_the_reference(data):
    F = data.draw(st.sampled_from(FIELDS))
    r, k, c = (data.draw(st.integers(0, 4)) for _ in range(3))  # 0 x n, n x 0 and 0 x 0 too
    a = Matrix(F, _rows(data.draw, F, r, k), k)
    b = Matrix(F, _rows(data.draw, F, k, c), c)
    got = a.mul(b)
    assert got == matrix_mul_reference(a, b) and got.shape == (r, c)


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: "q=%d" % F.order)
def test_empty_shapes(F):
    assert rref([], F) == rref_reference([], F) == ((), ())
    assert rref([[], []], F) == ((), ())
    zero_rows = Matrix(F, [], 3)
    assert zero_rows.mul(Matrix(F, [[1] * 2] * 3)) == Matrix(F, [], 2)
    assert Matrix(F, [[]] * 2, 0).mul(zero_rows) == Matrix(F, [[0] * 3] * 2)
    space = Subspace.zero(F, 4)
    assert list(space.enumerate_vectors()) == enumerate_vectors_reference(space) == [(0,) * 4]
