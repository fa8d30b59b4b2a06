"""batch_rank against the exact rref rank, instance by instance (hypothesis)."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinderlab import bimap as bm
from kinderlab.errors import InvalidConfigError
from kinderlab.gf import make_field, make_field_from_order
from kinderlab.linalg import PRIME_CAP, Matrix, batch_neg, batch_rank, np_rank, rref

PRIMES = (2, 3, 5, 7, 191, 251, 257, 1009)
EXTENSION_ORDERS = (4, 8, 9, 16, 27, 243, 256, 512)
FIELDS = [make_field(p, 1) for p in PRIMES] + [make_field_from_order(q) for q in EXTENSION_ORDERS]


def _exact(mats, F):
    return [len(rref(m, F)[0]) for m in mats]


def _exact_distinct(arr, F):
    """_exact of a [T, r, c] array, each distinct matrix solved once."""
    mats, inverse = np.unique(arr.reshape(len(arr), -1), axis=0, return_inverse=True)
    ranks = _exact(mats.reshape((-1,) + arr.shape[1:]).tolist(), F)
    return [ranks[i] for i in inverse.ravel().tolist()]


def _deficient(arr):
    """Lower the rank of some instances of a [T, r, c] stack, in place, by
    moves that hold in every field: a repeated row, a zero column, rows
    repeating the first, all zero."""
    arr[::3, 1] = arr[::3, 0]
    arr[1::4, :, 2] = 0
    arr[2::5, 2:] = arr[2::5, :1]
    arr[3::7] = 0
    return arr


@st.composite
def batches(draw):
    """A field and T equally shaped matrices, each uniform or of bounded rank."""
    F = draw(st.sampled_from(FIELDS))
    T, R, C = draw(st.integers(1, 6)), draw(st.integers(0, 6)), draw(st.integers(0, 6))
    elem = st.integers(0, F.order - 1)

    def block(r, c):
        return draw(st.lists(st.lists(elem, min_size=c, max_size=c), min_size=r, max_size=r))

    mats = []
    for _ in range(T):
        k = draw(st.integers(0, min(R, C)))
        if draw(st.booleans()):
            mats.append(block(R, C))
        elif k == 0:
            mats.append([[0] * C for _ in range(R)])
        else:
            mats.append([list(r) for r in Matrix(F, block(R, k)).mul(Matrix(F, block(k, C))).rows])
    return F, np.array(mats, dtype=np.int64).reshape(T, R, C)


@settings(max_examples=300, deadline=None)
@given(batches())
def test_batch_rank_matches_rref(case):
    F, arr = case
    mats = arr.tolist()
    want = _exact(mats, F)
    assert batch_rank(arr, F).tolist() == want
    assert [np_rank(m, F) for m in mats] == want


@pytest.mark.parametrize("F", FIELDS, ids=lambda F: "F%d" % F.order)
def test_batch_rank_mixed_full_and_deficient(F):
    g = F.primitive if F.order > 2 else 1
    ident = [[1 if i == j else 0 for j in range(4)] for i in range(4)]
    rank1 = [[F.mul(g, x) for x in (1, g, 0, 1)] for _ in range(4)]
    rank2 = [ident[0], ident[1], [F.add(a, b) for a, b in zip(ident[0], ident[1])], [0] * 4]
    zero = [[0] * 4 for _ in range(4)]
    mats = [ident, rank1, rank2, zero, ident]
    assert batch_rank(np.array(mats), F).tolist() == [4, 1, 2, 0, 4] == _exact(mats, F)


# batch_rank eliminates a batch with at least as many instances as a row has
# entries (on the shorter side) with the instances innermost, and any other
# batch with them outermost; these shapes sit clearly on either side
LAYOUT_SHAPES = {"many": (300, 4, 6), "few": (3, 9, 8), "one": (1, 5, 5)}


@pytest.mark.parametrize("shape", sorted(LAYOUT_SHAPES), ids=str)
@pytest.mark.parametrize("F", FIELDS, ids=lambda F: "F%d" % F.order)
def test_batch_rank_on_both_layouts(F, shape):
    T, R, C = LAYOUT_SHAPES[shape]
    rng = np.random.default_rng(F.order * T)
    arr = _deficient(rng.integers(0, F.order, size=(T, R, C)))
    want = _exact(arr.tolist(), F)
    assert batch_rank(arr, F).tolist() == want
    assert batch_rank(arr.transpose(0, 2, 1), F).tolist() == want
    assert len(set(want)) > 1 or T == 1


# the exhaustive grids rank up to CHUNK_CELLS // 12 = 10922 instances of
# [4, 3] at a time, instances innermost
@pytest.mark.parametrize("shape", [(4, 3), (3, 3), (4, 4)], ids=str)
@pytest.mark.parametrize("q", [2, 3, 9, 191, 251])
def test_batch_rank_at_exhaustive_scale(q, shape):
    F = make_field_from_order(q)
    rng = np.random.default_rng(q * 100 + shape[0] * 10 + shape[1])
    arr = _deficient(rng.integers(0, q, size=(4096,) + shape))
    assert batch_rank(arr, F).tolist() == _exact_distinct(arr, F)


def test_batch_rank_past_the_int8_weights():
    # 130 rows take int32 pivot weights: the first row weighs 130, beyond
    # int8.  In every other instance only the last row is nonzero, so its
    # pivot lies at row 129.
    F = make_field(5, 1)
    rng = np.random.default_rng(130)
    arr = rng.integers(0, 5, size=(160, 130, 3))
    arr[::2, :129] = 0
    arr[1::6, :, 1] = 0
    want = _exact(arr.tolist(), F)
    assert want[::2].count(1) >= 70 and want[1::2].count(3) >= 40
    assert batch_rank(arr, F).tolist() == want


@pytest.mark.parametrize("q", [7, 4, 9])
def test_batch_rank_columns_without_pivots(q):
    # column 1 is zero everywhere, so no instance has a pivot there; column 3
    # is zero in half the instances and repeats column 0 in a tenth, so after
    # column 0 only the other two fifths still have a pivot in it
    F = make_field_from_order(q)
    rng = np.random.default_rng(q)
    arr = rng.integers(0, q, size=(50, 6, 4))
    arr[:, :, 1] = 0
    arr[::2, :, 3] = 0
    arr[1::10, :, 3] = arr[1::10, :, 0]
    want = _exact(arr.tolist(), F)
    assert set(want) == {2, 3}
    assert batch_rank(arr, F).tolist() == want  # T >= C: the instances innermost
    assert [r for i in range(0, 50, 2) for r in batch_rank(arr[i:i + 2], F).tolist()] == want


@pytest.mark.parametrize("shape", [(0, 3, 3), (2, 0, 4), (2, 4, 0), (3, 4, 5), (1, 1, 1)])
def test_batch_rank_empty_and_zero(shape):
    for F in (make_field(5, 1), make_field(2, 2)):
        assert batch_rank(np.zeros(shape, dtype=np.int64), F).tolist() == [0] * shape[0]
    assert np_rank([], make_field(5, 1)) == 0
    assert np_rank([[]], make_field(5, 1)) == 0


def test_batch_rank_rejects_what_it_cannot_hold():
    big_p = make_field(2147483659, 1)  # the least prime above 2^31
    assert big_p.p >= PRIME_CAP
    with pytest.raises(InvalidConfigError):
        batch_rank(np.ones((1, 2, 2), dtype=np.int64), big_p)
    with pytest.raises(InvalidConfigError):
        batch_rank(np.ones((1, 2, 2), dtype=np.int64), make_field(2, 10))
    with pytest.raises(InvalidConfigError):
        batch_rank(np.ones((2, 2), dtype=np.int64), make_field(3, 1))


def test_hom_dim_falls_back_to_exact_beyond_the_fast_path():
    rng = random.Random(5)
    for F in (make_field(2147483659, 1), make_field(2, 10)):
        phi = bm.MatrixSystem.random(F, (2, 2), 2, rng)
        ups = bm.MatrixSystem.random(F, (2, 2), 2, rng)
        assert bm.hom_dim(phi, ups, fast=True) == bm.hom_dim(phi, ups, fast=False)
        assert bm.hom_dim(phi, phi) >= 1


def test_np_rank_beyond_the_fast_path_agrees_with_rref():
    # batch_rank refuses this prime; np_rank answers through `ranks`, as rref does
    F = make_field(2147483659, 1)
    m = [[1, 2, 3], [4, 5, 6], [5, 7, 9]]
    assert np_rank(m, F) == len(rref(m, F)[0]) == 2


@pytest.mark.parametrize("F", FIELDS + [make_field(2, 10), make_field(3, 7), make_field(5, 3),
                                make_field(2, 70)], ids=lambda F: "F%d" % F.order)
def test_batch_neg_matches_field_negation(F):
    xs = np.array(sorted({0, 1, F.order - 1} | {(F.order * k) // 7 for k in range(7)}))
    assert batch_neg(xs, F).tolist() == [F.neg(int(x)) for x in xs]


def _echelon_stack(F, T=40, R=6, C=5):
    """T matrices of rank t % (C + 1): k echelon rows, then R - k combinations
    of them.  Entries cycle through the largest codes, q - 1 down to 2, so
    no entry of an echelon row is 0 or 1.  The echelon rows come first, and
    each is zero before its leading column, so the elimination meets them
    unchanged: every pivot is one of their leading entries, never 1."""
    top = list(range(F.order - 1, 1, -1))
    code = itertools.cycle(top)
    mats = []
    for t in range(T):
        k = t % (C + 1)
        start = t % 2 if k < C else 0
        rows = [[0] * (start + j) + [next(code) for _ in range(C - start - j)] for j in range(k)]
        for _ in range(R - k):
            comb = [0] * C
            for row in rows[:k]:
                c = next(code)
                comb = [F.add(a, F.mul(c, b)) for a, b in zip(comb, row)]
            rows.append(comb)
        mats.append(rows)
    return np.array(mats, dtype=np.int64)


@pytest.mark.parametrize("q", EXTENSION_ORDERS)
def test_batch_rank_with_non_unit_pivots_and_the_largest_codes(q):
    F = make_field_from_order(q)
    arr = _echelon_stack(F)
    T, R, C = arr.shape
    want = _exact(arr.tolist(), F)
    assert want == [t % (C + 1) for t in range(T)]
    assert arr.max() == q - 1
    assert batch_rank(arr, F).tolist() == want  # T >= C: the instances innermost
    assert [r for i in range(0, T, 4) for r in batch_rank(arr[i:i + 4], F).tolist()] == want
