"""The verdict `tools/bench_pairs.py` records per workload and end-to-end metric,
its reading of pytest's summary line and of a `verify` report, and its merge
of the `verify` runs of both sides."""

import importlib.util
import json
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


@pytest.mark.parametrize("stdout, want", [
    ("....\n575 passed in 54.40s\n", {"passed": 575, "seconds": 54.4}),
    ("F.\nFAILED tests/test_x.py::test_y - assert 1 in (2, 3)\n"
     "1 failed, 3 passed, 2 skipped in 62.21s (0:01:02)\n",
     {"failed": 1, "passed": 3, "skipped": 2, "seconds": 62.21}),
    ("slowest durations\n0.50s call tests/test_x.py::test_y\n1 error in 0.30s\n",
     {"error": 1, "seconds": 0.3}),
])
def test_pytest_summary_reads_the_last_summary_line(stdout, want):
    assert bench_pairs.pytest_summary(stdout) == want


def test_criterion_seconds_reads_the_verify_report():
    report = json.dumps({"config": {"command": "verify"}, "results": {"tier": "fast", "criteria": [
        {"index": 1, "name": "census", "passed": True, "detail": "ok", "elapsed_s": 0.52},
        {"index": 2, "name": "hom-solver-vs-brute", "passed": False, "detail": "x", "elapsed_s": 1.9},
    ], "all_passed": False}})
    assert bench_pairs.criterion_seconds(report) == {"1 census": 0.52, "2 hom-solver-vs-brute": 1.9}


def test_dont_write_bytecode_reads_the_environment(monkeypatch):
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert bench_pairs.dont_write_bytecode() is True
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE")
    assert bench_pairs.dont_write_bytecode() is False
    assert bench_pairs.dont_write_bytecode({"PYTHONDONTWRITEBYTECODE": ""}) is False


def test_src_lines_counts_src_per_module_and_the_tests_total(tmp_path):
    for rel, lines in (("src/pkg/a.py", 3), ("src/pkg/b.py", 2), ("tests/test_a.py", 4),
                       ("tests/data/helper.py", 1), ("tests/data/golden.json", 7)):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("x = 1\n" * lines)
    assert bench_pairs.src_lines(tmp_path) == {
        "total": 5, "modules": {"pkg/a.py": 3, "pkg/b.py": 2}, "tests_total": 5}


def test_precompile_writes_pyc_files_even_without_bytecode_writing(tmp_path, monkeypatch):
    # the exported trees are compiled before the first pair, so set-up reads
    # .pyc files on both sides whatever PYTHONDONTWRITEBYTECODE says
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    for rel in ("src/pkg/__init__.py", "src/pkg/a.py", "perfbench/run.py", "tests/test_a.py"):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("x = 1\n")
    assert bench_pairs.precompile(tmp_path) == ["src", "perfbench"]
    compiled = {p.parent.parent.relative_to(tmp_path).as_posix() + "/" + p.name.split(".")[0]
                for p in tmp_path.rglob("*.pyc")}
    assert compiled == {"src/pkg/__init__", "src/pkg/a", "perfbench/run"}


def test_claim_has_no_default(monkeypatch, capsys):
    # without --claim, a run would give its ten pairs to a workload the change
    # does not claim; argparse refuses it before any revision is exported
    monkeypatch.setattr("sys.argv", ["bench_pairs.py", "--base", "HEAD~1", "--head", "HEAD",
                                     "--out", "BENCH_x.json", "--seed", "1"])
    with pytest.raises(SystemExit) as exit_info:
        bench_pairs.main()
    assert exit_info.value.code == 2
    assert "--claim" in capsys.readouterr().err


def test_merge_criteria_keeps_each_criterion_runs_and_median():
    runs = [{"1 census": 0.5, "2 hom": 1.2}, {"1 census": 0.7, "2 hom": 0.9},
            {"1 census": 0.4, "2 hom": 1.0}]
    assert bench_pairs.merge_criteria(runs) == {
        "1 census": {"runs": [0.5, 0.7, 0.4], "median": 0.5},
        "2 hom": {"runs": [1.2, 0.9, 1.0], "median": 1.0}}


def test_end_to_end_runs_alternate_the_verify_runs(monkeypatch):
    order, seconds = [], iter(range(1, 100))

    def run(checkout, name, command, read):
        order.append((checkout, name))
        return {"wall_s": 0.0, "exit": 0,
                "parsed": {"1 census": next(seconds)} if name == "verify_fast" else {"passed": 1}}

    monkeypatch.setattr(bench_pairs, "run_command", run)
    out = bench_pairs.end_to_end_runs({"base": "b", "head": "h"})
    assert order == [("b", "tier1"), ("h", "tier1"), ("b", "verify_fast"), ("h", "verify_fast"),
                     ("h", "verify_fast"), ("b", "verify_fast"), ("b", "verify_fast"),
                     ("h", "verify_fast")]
    assert out["base"]["verify_fast"]["criteria"] == {"1 census": {"runs": [1, 4, 5], "median": 4}}
    assert out["head"]["verify_fast"]["criteria"] == {"1 census": {"runs": [2, 3, 6], "median": 3}}
    assert out["head"]["tier1"]["parsed"] == {"passed": 1} and len(out["head"]["verify_fast"]["runs"]) == 3
