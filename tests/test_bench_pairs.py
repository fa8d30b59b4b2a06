"""The verdict `tools/bench_pairs.py` records per workload and end-to-end metric."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _verdict(base_runs, head_runs, better, bound=0.2):
    summary = bench_pairs.summary
    return bench_pairs.verdict(summary(base_runs), summary(head_runs), better, bound)


@pytest.mark.parametrize("base, head, better, want", [
    # tight base runs: the median decides, against the 20% bound
    ([100, 101, 99], [90, 91, 89], "higher", "within_bound"),
    ([100, 101, 99], [75, 76, 74], "higher", "worse"),
    ([1.0, 1.01, 0.99], [1.15, 1.16, 1.14], "lower", "within_bound"),
    ([1.0, 1.01, 0.99], [1.3, 1.31, 1.29], "lower", "worse"),
    ([1.0, 1.01, 0.99], [0.5, 0.5, 0.5], "lower", "within_bound"),
    # base quartiles 80 and 120, 40% of the median: too wide to tell
    ([60, 100, 140], [95, 100, 105], "higher", "unresolved"),
    ([60, 100, 140], [40, 40, 40], "higher", "unresolved"),
    # unless every head run beats every base run
    ([60, 100, 140], [150, 151, 152], "higher", "within_bound"),
    ([0.6, 1.0, 1.4], [0.5, 0.5, 0.5], "lower", "within_bound"),
    # a metric at 1.0 in every run, like ok_share
    ([1.0] * 10, [1.0] * 10, "higher", "within_bound"),
])
def test_verdict_on_synthetic_runs(base, head, better, want):
    assert _verdict(base, head, better) == want
