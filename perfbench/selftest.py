"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

For each workload, at the smallest run (--seconds 1), it checks that:
- the run exits 0 and its last line holds exactly correct, attempted,
  failed and metrics;
- every end-to-end metric named in BENCHMARK.json appears, with its unit,
  and no job fails (failed_share 0);
- a second run with the same seed reproduces every payload hash (run.py
  counts a differing hash as a failed job);
- another seed changes the job inputs, so the payload hashes differ, but
  not the set of metric names;
- the traced run reports every per-layer metric, with its unit;
- the job mix recorded in perfbench/context.json is the one the code runs.
Finally a copy holding only BENCHMARK.json and perfbench/ must exit
non-zero without printing a result. Exits 1 if any check fails.
"""

import collections
import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import run  # noqa: E402
from report import run_workload  # noqa: E402
from workloads import WORKLOADS, make_round  # noqa: E402

SEEDS = ("selftest-a", "selftest-b")
HASHES = ROOT / ".perfbench_out" / "hashes"
problems = []


def expect(cond, what):
    print("%s %s" % ("ok  " if cond else "FAIL", what), flush=True)
    if not cond:
        problems.append(what)


def check_result(label, code, result, declared):
    expect(code == 0, "%s: exit code 0 (got %d)" % (label, code))
    if result is None:
        expect(False, "%s: last line is the JSON result" % label)
        return None
    expect(sorted(result) == ["attempted", "correct", "failed", "metrics"],
           "%s: result keys" % label)
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           "%s: correct, failed_share 0 (%d/%d failed)"
           % (label, result["failed"], result["attempted"]))
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == declared, "%s: every declared metric with its unit" % label)
    return got


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    context = json.loads((ROOT / "perfbench" / "context.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in bench["per_layer"]}
    for workload in WORKLOADS:
        for seed in SEEDS:
            (HASHES / ("%s-%s.json" % (workload, seed))).unlink(missing_ok=True)
        names = []
        for attempt, seed in enumerate((SEEDS[0], SEEDS[0], SEEDS[1])):
            code, result, _, _ = run_workload(workload, seed, 1)
            names.append(check_result("%s seed %s run %d" % (workload, seed, attempt + 1),
                                      code, result, e2e))
        expect(names[0] == names[2], "%s: metric names do not depend on the seed" % workload)
        a, b = (json.loads((HASHES / ("%s-%s.json" % (workload, s))).read_text())
                for s in SEEDS)
        expect(set(a.values()) != set(b.values()), "%s: the seed changes the job inputs" % workload)
        code, result, _, _ = run_workload(workload, SEEDS[0], 1, trace=1)
        check_result("%s traced" % workload, code, result, layers)
        kl, shared, jobs = run.setup(workload, SEEDS[0])
        mix = collections.Counter(job.name for job in jobs)
        expect(mix == context["workloads"][workload]["job_mix"],
               "%s: context.json records the job mix" % workload)
        expect(mix == collections.Counter(
            job.name for job in make_round(workload, kl, shared, SEEDS[1], 3)),
            "%s: every round runs the same mix" % workload)

    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    code, result, out, _ = run_workload(WORKLOADS[0], 1, 1, cwd=bare)
    expect(code != 0 and not out.strip(), "bare copy exits %d without a result" % code)
    shutil.rmtree(bare)

    print("%d problem(s)" % len(problems))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
