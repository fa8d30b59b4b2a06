"""Frequency experiments: exact enumerations, seeded sampling, bounds."""

import importlib.util
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kinderlab import genericity as gn
from kinderlab.errors import CapExceededError, InvalidConfigError
from kinderlab.gf import make_field
from kinderlab.linalg import Subspace, gaussian_binomial


def test_span_exhaustive_frozen():
    r = gn.exhaustive_mode("span", {"n": 2, "s": 3, "q": 2})
    assert (r.trials, r.success) == (64, 42)
    assert r.frequency == Fraction(21, 32)
    assert r.bound == Fraction(5, 8)
    assert r.exact
    r2 = gn.exhaustive_mode("span", {"n": 1, "s": 1, "q": 2})
    assert r2.frequency == Fraction(1, 2) and r2.bound == Fraction(1, 2)


def _span_grid(monkeypatch):
    """perfbench's SPAN_GRID, loaded by path without writing bytecode."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    path = Path(__file__).parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_GRID


def test_span_exhaustive_formula(monkeypatch):
    # s x n matrices of rank r over F_q number
    # prod_{i<r} (q^s - q^i)(q^n - q^i) / (q^r - q^i); rank n spans F_q^n
    grid = _span_grid(monkeypatch)
    assert (3, 4, 3) in grid
    for n, s, q in grid:
        want = {}
        for r in range(min(n, s) + 1):
            num = den = 1
            for i in range(r):
                num, den = num * (q**s - q**i) * (q**n - q**i), den * (q**r - q**i)
            want[r] = num // den
        assert sum(want.values()) == q ** (n * s)
        rep = gn.exhaustive_mode("span", {"n": n, "s": s, "q": q})
        assert rep.histogram == want
        assert rep.success == want.get(n, 0)


def test_span_bound_formula():
    for n, s, q in ((2, 3, 2), (3, 2, 3), (1, 4, 2)):
        want = 1 - (Fraction(q) ** (n - s) - Fraction(1, q**s)) / (q - 1)
        assert gn.span_bound(n, s, q) == want
    assert gn.span_bound(3, 2, 3) == Fraction(-4, 9)  # the bound may go vacuous


def test_estimate_deterministic():
    r1 = gn.estimate("span", {"n": 2, "s": 3, "q": 2}, 2000, seed=11)
    r2 = gn.estimate("span", {"n": 2, "s": 3, "q": 2}, 2000, seed=11)
    assert (r1.success, r1.histogram) == (r2.success, r2.histogram)
    r3 = gn.estimate("span", {"n": 2, "s": 3, "q": 2}, 2000, seed=12)
    assert (r3.success, r3.histogram) != (r1.success, r1.histogram)


def test_estimate_near_exact():
    exact = float(gn.exhaustive_mode("span", {"n": 2, "s": 3, "q": 2}).frequency)
    r = gn.estimate("span", {"n": 2, "s": 3, "q": 2}, 4000, seed=11)
    assert abs(float(r.frequency) - exact) < 0.03


def test_histogram_totals():
    r = gn.estimate("end_generic", {"m": 2, "n": 2, "s": 2, "q": 3}, 500, seed=1)
    assert sum(r.histogram.values()) == 500 == r.trials
    assert r.success == r.histogram.get(1, 0)


def test_end_generic_exhaustive_tiny():
    r = gn.exhaustive_mode("end_generic", {"m": 1, "n": 1, "s": 1, "q": 2})
    assert r.trials == 2 and r.frequency == Fraction(1, 2)
    assert r.histogram == {1: 1, 2: 1}


def test_derived_full_exhaustive_frozen():
    r = gn.exhaustive_mode("derived_full", {"a": 2, "b": 2, "ell": 3, "q": 2})
    assert r.bound == Fraction(15, 16)
    assert r.frequency >= r.bound
    assert gn.derived_full_bound(2, 2, 3, 2) == Fraction(15, 16)
    assert gn.derived_full_bound(2, 1, 2, 3) == Fraction(26, 27)
    assert gn.derived_full_bound(1, 2, 1, 3) == -2  # vacuous below aL <= b


def test_derived_full_sampled_close():
    re = gn.exhaustive_mode("derived_full", {"a": 2, "b": 2, "ell": 2, "q": 2})
    rs = gn.estimate("derived_full", {"a": 2, "b": 2, "ell": 2, "q": 2}, 3000, seed=5)
    f = float(re.frequency)
    assert abs(float(rs.frequency) - f) <= 0.05


def test_lambda_end_extras():
    r = gn.estimate("lambda_end", {"a": 2, "b": 3, "c": 4, "q": 3}, 300, seed=9)
    x = r.extra
    for key in ("modal_dim", "modal_diag", "modal_offdiag", "diag_hist", "offdiag_hist", "supports"):
        assert key in x, key
    assert x["modal_diag"] == 2
    assert sum(x["diag_hist"].values()) == 300
    assert r.success == r.histogram[x["modal_dim"]]


def test_lambda_end_square_supports():
    r = gn.estimate("lambda_end", {"a": 3, "b": 3, "c": 4, "q": 3}, 200, seed=9)
    assert r.extra["modal_dim"] == 2
    assert "End(Lambda) = K+K" in r.extra["supports"]


def test_nucleus_histogram():
    r = gn.estimate("nucleus", {"a": 2, "b": 2, "c": 1, "ell": 2, "q": 3}, 300, seed=2)
    assert sum(r.histogram.values()) == 300
    assert r.success == r.histogram.get(1, 0)  # c^2 = 1


def test_kinds_and_validation():
    assert set(gn.KINDS) == {
        "span",
        "end_generic",
        "hom_pm_transpose",
        "lambda_end",
        "nucleus",
        "derived_full",
    }
    with pytest.raises(InvalidConfigError):
        gn.estimate("nope", {"q": 2}, 10, seed=0)
    with pytest.raises(CapExceededError):
        gn.exhaustive_mode("lambda_end", {"a": 2, "b": 3, "c": 4, "q": 3})


@pytest.mark.parametrize(
    "kind,params",
    [
        ("span", {"n": 2, "s": 3, "q": 2}),
        ("hom_pm_transpose", {"m": 1, "n": 2, "s": 2, "q": 3}),
        ("lambda_end", {"a": 1, "b": 2, "c": 2, "q": 2}),
        ("nucleus", {"a": 2, "b": 2, "c": 1, "ell": 2, "q": 2}),
        ("derived_full", {"a": 2, "b": 2, "c": 1, "ell": 3, "q": 2}),
    ],
)
def test_reports_do_not_depend_on_the_batch_size(kind, params, monkeypatch):
    sampled, exact = gn.estimate(kind, params, 40, seed=8), gn.exhaustive_mode(kind, params)
    sizes, spec = [], gn._spec

    def counting(kind, params):
        s = spec(kind, params)
        return s._replace(evaluate=lambda batch: sizes.append(len(batch)) or s.evaluate(batch))

    monkeypatch.setattr(gn, "_spec", counting)
    monkeypatch.setattr(gn, "CHUNK_CELLS", 1)  # one instance a batch
    assert (gn.estimate(kind, params, 40, seed=8).to_payload(),
            gn.exhaustive_mode(kind, params).to_payload()) == (sampled.to_payload(),
                                                                exact.to_payload())
    assert exact.trials > 1 and sizes == [1] * (40 + exact.trials)


def test_exhaustive_subspaces_each_once():
    F3 = make_field(3, 1)
    src = gn._Subspaces(F3, 2, 4)
    seen = set()
    for piece in src.pieces(5):
        assert len(piece) <= 5
        for basis in piece.tolist():
            seen.add(Subspace.from_vectors(F3, 4, basis))
    assert len(seen) == src.total() == gaussian_binomial(4, 2, 3)


def test_estimate_beyond_the_lookup_tables():
    # GF(2^10) has no lookup tables; ranks fall back to exact elimination
    r = gn.estimate("end_generic", {"m": 1, "n": 2, "s": 2, "q": 1024}, 6, seed=2)
    assert r.trials == 6 and min(r.histogram) >= 1
    with pytest.raises(InvalidConfigError):
        gn.estimate("span", {"n": 2, "s": 2, "q": 2**64}, 2, seed=0)
    # above 2^31 the bracket products leave int64 and ranks leave batch_rank
    big = {"a": 2, "b": 2, "c": 1, "ell": 2, "q": 2147483659}
    assert gn.estimate("derived_full", big, 3, seed=1).histogram == {2: 3}
    assert gn.estimate("nucleus", big, 3, seed=1).histogram == {2: 3}  # as at q = 5


@pytest.mark.parametrize("q", [2, 3, 4, 5, 8, 9, 27, 49, 1009, 2**31 + 11, 2**32, 2**32 + 15,
                               2**61 - 1])
def test_bulk_draws_repeat_randrange(q):
    trials, k = [0, 1, 5, 17, 300], 30
    want = []
    for i in trials:
        rng = random.Random("7:%d" % i)
        want.append([rng.randrange(q) for _ in range(k)])
    assert gn._draws(7, trials, q, k).tolist() == want
    assert gn._draws(7, trials, q, 0).shape == (len(trials), 0)


def test_bulk_draws_refill_a_short_trial():
    # q just above 2^31 rejects almost half of the words; with one value
    # wanted, _draws starts with 13 words per trial, and here some trials need
    # more, so they are drawn again
    q, trials = 2**31 + 11, range(11000)
    want, words = [], []
    for i in trials:
        rng, used = random.Random("3:%d" % i), 1
        while (x := rng.getrandbits(32)) >= q:
            used += 1
        want.append(x)
        words.append(used)
    assert max(words) > 13
    assert gn._draws(3, trials, q, 1)[:, 0].tolist() == want


def test_subspace_redraws_skip_the_consumed_draws():
    # over F_2, half of all 2 x 2 matrices are singular, so many trials redraw
    F2 = make_field(2, 1)
    got = gn._Subspaces(F2, 2, 2).draw(4, 0, 60).tolist()
    for i, basis in enumerate(got):
        rng = random.Random("4:%d" % i)
        while True:
            m = [[rng.randrange(2) for _ in range(2)] for _ in range(2)]
            if (m[0][0] * m[1][1] - m[0][1] * m[1][0]) % 2:
                break
        assert basis == m
