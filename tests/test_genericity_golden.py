"""Frozen genericity payloads: every kind, a small parameter grid, both modes.

`data/genericity_golden.json` holds `TrialReport.to_payload()` for each grid
point, serialized with sorted keys. The file was written by the per-trial
implementation that preceded the batched one, so this test pins the batched
sampler and enumerator to byte-identical reports. Regenerate it (only when a
payload is meant to change) with

    PYTHONPATH=src python tests/test_genericity_golden.py
"""

import json
from pathlib import Path

import pytest

from kinderlab import genericity as gn

GOLDEN = Path(__file__).parent / "data" / "genericity_golden.json"
SEED = 31

# (kind, params, trials) for estimate; q stays below 191, where the
# reference implementation's fast rank was still exact
ESTIMATE_GRID = [
    ("span", {"n": 2, "s": 3, "q": 2}, 300),
    ("span", {"n": 3, "s": 3, "q": 3}, 300),
    ("span", {"n": 3, "s": 2, "q": 4}, 200),
    ("span", {"n": 2, "s": 2, "q": 9}, 200),
    ("span", {"n": 4, "s": 5, "q": 27}, 100),
    ("end_generic", {"m": 1, "n": 1, "s": 1, "q": 2}, 50),
    ("end_generic", {"m": 2, "n": 2, "s": 2, "q": 3}, 200),
    ("end_generic", {"m": 3, "n": 3, "s": 3, "q": 4}, 60),
    ("end_generic", {"m": 2, "n": 3, "s": 2, "q": 5}, 100),
    ("end_generic", {"m": 2, "n": 2, "s": 3, "q": 49}, 40),
    ("hom_pm_transpose", {"m": 2, "n": 2, "s": 2, "q": 2}, 200),
    ("hom_pm_transpose", {"m": 3, "n": 3, "s": 3, "q": 9}, 40),
    ("hom_pm_transpose", {"m": 2, "n": 3, "s": 2, "q": 7}, 100),
    ("lambda_end", {"a": 2, "b": 3, "c": 4, "q": 3}, 40),
    ("lambda_end", {"a": 2, "b": 2, "c": 3, "q": 3}, 40),
    ("lambda_end", {"a": 1, "b": 2, "c": 2, "q": 8}, 60),
    ("nucleus", {"a": 2, "b": 2, "c": 1, "ell": 2, "q": 3}, 150),
    ("nucleus", {"a": 3, "b": 3, "c": 1, "ell": 4, "q": 5}, 40),
    ("nucleus", {"a": 1, "b": 2, "c": 2, "ell": 1, "q": 4}, 100),
    ("nucleus", {"a": 2, "b": 2, "c": 1, "ell": 3, "q": 2}, 100),
    ("derived_full", {"a": 2, "b": 2, "c": 1, "ell": 2, "q": 2}, 300),
    ("derived_full", {"a": 1, "b": 2, "c": 2, "ell": 1, "q": 3}, 200),
    ("derived_full", {"a": 2, "b": 2, "ell": 3, "q": 4}, 100),
    ("derived_full", {"a": 2, "b": 1, "c": 2, "ell": 0, "q": 5}, 20),
    ("derived_full", {"a": 2, "b": 2, "c": 1, "ell": 4, "q": 2}, 100),
]
EXHAUSTIVE_GRID = [
    ("span", {"n": 2, "s": 3, "q": 2}),
    ("span", {"n": 3, "s": 3, "q": 2}),
    ("span", {"n": 2, "s": 2, "q": 3}),
    ("span", {"n": 1, "s": 2, "q": 4}),
    ("span", {"n": 3, "s": 4, "q": 2}),
    ("span", {"n": 3, "s": 4, "q": 3}),
    ("end_generic", {"m": 1, "n": 1, "s": 1, "q": 2}),
    ("end_generic", {"m": 1, "n": 2, "s": 2, "q": 2}),
    ("end_generic", {"m": 2, "n": 2, "s": 2, "q": 2}),
    ("end_generic", {"m": 1, "n": 1, "s": 2, "q": 4}),
    ("hom_pm_transpose", {"m": 2, "n": 2, "s": 2, "q": 2}),
    ("hom_pm_transpose", {"m": 1, "n": 2, "s": 2, "q": 3}),
    ("lambda_end", {"a": 1, "b": 2, "c": 2, "q": 2}),
    ("lambda_end", {"a": 2, "b": 2, "c": 2, "q": 2}),
    ("lambda_end", {"a": 1, "b": 1, "c": 2, "q": 4}),
    ("nucleus", {"a": 2, "b": 2, "c": 1, "ell": 2, "q": 2}),
    ("nucleus", {"a": 1, "b": 2, "c": 1, "ell": 1, "q": 3}),
    ("nucleus", {"a": 2, "b": 2, "c": 1, "ell": 0, "q": 3}),
    ("derived_full", {"a": 2, "b": 2, "c": 1, "ell": 2, "q": 2}),
    ("derived_full", {"a": 1, "b": 2, "c": 2, "ell": 1, "q": 3}),
    ("derived_full", {"a": 2, "b": 2, "c": 1, "ell": 0, "q": 2}),
    ("derived_full", {"a": 1, "b": 1, "c": 1, "ell": 1, "q": 4}),
]


def _cases():
    for kind, params, trials in ESTIMATE_GRID:
        yield "estimate:%s:%s:%d" % (kind, json.dumps(params, sort_keys=True), trials), (
            lambda kind=kind, params=params, trials=trials: gn.estimate(kind, params, trials, SEED))
    for kind, params in EXHAUSTIVE_GRID:
        yield "exhaustive:%s:%s" % (kind, json.dumps(params, sort_keys=True)), (
            lambda kind=kind, params=params: gn.exhaustive_mode(kind, params))


def _text(report) -> str:
    return json.dumps(report.to_payload(), sort_keys=True)


CASES = dict(_cases())


@pytest.mark.parametrize("key", sorted(CASES))
def test_payload_matches_golden(key):
    golden = json.loads(GOLDEN.read_text())
    assert _text(CASES[key]()) == golden[key]


def test_golden_covers_every_kind_in_both_modes():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(CASES)
    for mode in ("estimate", "exhaustive"):
        assert {k.split(":")[1] for k in golden if k.startswith(mode)} == set(gn.KINDS)


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps({k: _text(run()) for k, run in CASES.items()},
                                 sort_keys=True, indent=1) + "\n")
