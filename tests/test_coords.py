"""The shared elimination core: CoordSolver coordinates and the ranks fallback."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kinderlab import linalg
from kinderlab.errors import InvalidConfigError
from kinderlab.gf import make_field, make_field_from_order
from kinderlab.linalg import CoordSolver, Matrix, Subspace, ranks, rref

COORD_FIELDS = [make_field(p, 1) for p in (2, 3, 5, 191)] + [make_field_from_order(q) for q in (4, 9)]
BIG_PRIME = make_field(2147483659, 1)  # 2^31 + 11, the least prime above PRIME_CAP
RANK_FIELDS = COORD_FIELDS + [make_field_from_order(512), BIG_PRIME, make_field(2, 10)]


def _combine(F, coeffs, rows, n):
    out = [0] * n
    for c, row in zip(coeffs, rows):
        out = [F.add(a, F.mul(c, b)) for a, b in zip(out, row)]
    return out


@st.composite
def families(draw):
    """A field, a nonempty independent family of rows taken greedily from a
    random square matrix (not in echelon form), coefficients and a probe."""
    F = draw(st.sampled_from(COORD_FIELDS))
    n = draw(st.integers(1, 6))
    elem = st.integers(0, F.order - 1)
    vec = st.lists(elem, min_size=n, max_size=n)
    rows = []
    for v in draw(st.lists(vec, min_size=n, max_size=n)):
        if not Subspace.from_vectors(F, n, rows).contains(v):
            rows.append(v)
    assume(rows)
    coeffs = draw(st.lists(elem, min_size=len(rows), max_size=len(rows)))
    return F, n, rows, coeffs, draw(vec)


@settings(max_examples=200, deadline=None)
@given(families())
def test_coords_recover_the_coefficients(case):
    F, n, rows, coeffs, probe = case
    solver = CoordSolver(rows, F)
    assert solver.coords(_combine(F, coeffs, rows, n)) == tuple(coeffs)
    in_span = len(rref(rows + [probe], F)[0]) == len(rows)
    got = solver.coords(probe)
    if in_span:
        assert got is not None and _combine(F, got, rows, n) == list(probe)
    else:
        assert got is None


@pytest.mark.parametrize("F", COORD_FIELDS, ids=lambda F: "F%d" % F.order)
def test_coords_reject_dependent_rows(F):
    g = F.primitive if F.order > 2 else 1
    a, b = [1, 0, g], [0, g, 1]
    for rows in ([a, b, [F.add(x, F.mul(g, y)) for x, y in zip(a, b)]], [a, [0, 0, 0]], [a, a]):
        with pytest.raises(InvalidConfigError):
            CoordSolver(rows, F)


def test_coords_reject_an_empty_family():
    # an empty family once took n = 0 and returned the probe itself as its coordinates
    with pytest.raises(InvalidConfigError):
        CoordSolver([], make_field(2, 1))


@st.composite
def stacks(draw):
    F = draw(st.sampled_from(RANK_FIELDS))
    T, R, C = draw(st.integers(1, 4)), draw(st.integers(0, 5)), draw(st.integers(0, 5))
    elem = st.integers(0, F.order - 1)
    mats = []
    for _ in range(T):
        k = draw(st.integers(0, min(R, C)))
        block = lambda r, c: draw(st.lists(st.lists(elem, min_size=c, max_size=c), min_size=r, max_size=r))
        if k and draw(st.booleans()):  # rank at most k
            mats.append([list(r) for r in Matrix(F, block(R, k)).mul(Matrix(F, block(k, C))).rows])
        else:
            mats.append(block(R, C))
    return F, mats, (T, R, C)


@settings(max_examples=200, deadline=None)
@given(stacks())
def test_ranks_equal_the_rref_rank_on_both_branches(case):
    F, mats, shape = case
    arr = np.array(mats, dtype=np.int64).reshape(shape)
    assert ranks(arr, F).tolist() == [len(rref(m, F)[0]) for m in mats]


@pytest.mark.parametrize("F, batched", [(make_field(191, 1), True), (make_field_from_order(512), True),
                                        (BIG_PRIME, False), (make_field(2, 10), False)],
                         ids=["F191", "F512", "p2^31+11", "F1024"])
def test_ranks_choose_by_field(F, batched, monkeypatch):
    calls = []
    real = linalg.batch_rank
    monkeypatch.setattr(linalg, "batch_rank", lambda arr, ctx: calls.append(1) or real(arr, ctx))
    arr = np.array([[[1, 0], [0, 1]], [[1, 1], [1, 1]]], dtype=np.int64)
    assert ranks(arr, F).tolist() == [2, 1]
    assert bool(calls) is batched
    with pytest.raises(InvalidConfigError):  # a wrong shape is never mistaken for a field
        ranks(arr[0], F)
