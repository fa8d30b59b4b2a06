"""Alternating parent/change runs of the perfbench workloads, into BENCH_<n>.json.

    python3 tools/bench_pairs.py --base REV --head REV --out BENCH_9.json --seed 900 \
        --claim WORKLOAD

Run from the root of a git checkout that has both revisions. Each revision
is exported with `git archive` into a temporary directory, which is removed
at the end. For each workload, pair i runs `perfbench/run.py --seed
<seed + i>` on both trees for BENCHMARK.json's `run_seconds`, one process
at a time, the base first on even pairs and the head first on odd ones, so
that a drift in the host's speed falls on both sides alike. The workload
named by --claim, which has no default, gets CLAIM_PAIRS pairs, enough to
back a 9-of-10 claim; the others, which a change only has to leave within
their bounds, get PAIRS.

Before the first pair, each exported tree's `src` and `perfbench` are
compiled (`python -m compileall -q`), so that set-up compares compiled trees
on both sides whether or not PYTHONDONTWRITEBYTECODE is set: with it set a
run writes no `.pyc` of its own, but still reads these.

The output records the machine (whether PYTHONDONTWRITEBYTECODE was set,
and which directories were precompiled), both revisions, the seeds, and per workload and side the median,
quartiles and raw values of every end-to-end metric;
how many pairs the head won on each (better and worse as BENCHMARK.json
says, ties counting for neither); a verdict on each (see `verdict`); whether
the payload hashes the two sides share are identical; the line count of
each side's `src/`, per module, and of its `tests/`; and, after the pairs,
the Tier-1 pytest wall time with pytest's own counts and seconds, from one
run per side, and the seconds of each `verify --tier fast` criterion, from
VERIFY_RUNS runs per side taken in turn with the other side's, each
criterion's runs with their median and minimum.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

CLAIM_PAIRS = 10
PAIRS = 3
VERIFY_RUNS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]
VERIFY_FAST = [sys.executable, "-c", "import sys; from kinderlab.cli import main; sys.exit(main())",
               "verify", "--tier", "fast"]


def git(*args, cwd="."):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def run_bench(checkout, workload, seed, seconds):
    """(metrics {name: value}, context dict) of one perfbench run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit("perfbench failed in %s:\n%s" % (checkout, proc.stderr))
    lines = proc.stdout.strip().splitlines()
    context = next(json.loads(ln.split(" ", 1)[1]) for ln in lines if ln.startswith("context "))
    result = json.loads(lines[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}, context


def summary(values):
    """Median and quartiles (inclusive interpolation) of a list of runs."""
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 \
        else values * 3
    return {"median": med, "q1": q1, "q3": q3, "runs": values}


def pairs_won(base, head, better):
    """Pairs in which the head reads better than the base; ties count for neither."""
    sign = 1 if better == "higher" else -1
    return sum(sign * (h - b) > 0 for b, h in zip(base, head))


def verdict(base, head, better, bound):
    """`within_bound`, `worse` or `unresolved` for one metric's summaries.

    The head's median is `worse` when it trails the base median by more than
    BENCHMARK.json's relative bound. When the base's own interquartile range,
    relative to its median, is wider than the bound, the runs cannot tell, so
    the verdict is `unresolved`, unless every head run beats every base run.
    """
    sign = 1 if better == "higher" else -1
    if all(sign * (h - b) > 0 for h in head["runs"] for b in base["runs"]):
        return "within_bound"
    scale = abs(base["median"]) or 1.0  # a metric at 0 is read on an absolute scale
    if (base["q3"] - base["q1"]) / scale > bound:
        return "unresolved"
    return "worse" if sign * (base["median"] - head["median"]) / scale > bound else "within_bound"


def shared_hashes(checkouts, workload, seeds):
    """(payload hashes both sides recorded, how many of them differ)."""
    shared = differ = 0
    for seed in seeds:
        a, b = (json.loads((Path(c) / ".perfbench_out" / "hashes"
                            / ("%s-%s.json" % (workload, seed))).read_text())
                for c in checkouts)
        keys = a.keys() & b.keys()
        shared += len(keys)
        differ += sum(a[k] != b[k] for k in keys)
    return shared, differ


def pytest_summary(stdout):
    """{outcome: count, "seconds": s} from the last summary line pytest prints,
    such as "575 passed, 2 skipped in 54.40s" or "1 failed, 3 passed in 62.21s (0:01:02)"."""
    line = next(ln for ln in reversed(stdout.splitlines()) if re.search(r" in [\d.]+s\b", ln))
    out = {word: int(count) for count, word in re.findall(r"(\d+) ([a-z]+)", line.split(" in ")[0])}
    out["seconds"] = float(re.search(r" in ([\d.]+)s\b", line).group(1))
    return out


def criterion_seconds(report):
    """{"<index> <name>": elapsed_s} of each criterion in a `verify` JSON report."""
    return {"%d %s" % (r["index"], r["name"]): r["elapsed_s"]
            for r in json.loads(report)["results"]["criteria"]}


def run_command(checkout, name, command, read):
    """{"wall_s", "exit", "parsed"} of one run of the command in the checkout,
    its stdout parsed by read."""
    print("%s in %s" % (name, checkout), flush=True)
    start = time.perf_counter()
    proc = subprocess.run(command, cwd=checkout, env=dict(os.environ, PYTHONPATH="src"),
                          capture_output=True, text=True)
    try:
        parsed = read(proc.stdout)
    except (StopIteration, ValueError, KeyError, AttributeError):
        raise SystemExit("%s gave no summary in %s:\n%s" % (name, checkout, proc.stderr[-2000:]))
    return {"wall_s": round(time.perf_counter() - start, 2), "exit": proc.returncode, "parsed": parsed}


def merge_criteria(runs):
    """{criterion: {"runs": [seconds, ...], "median": seconds, "min": seconds}}
    from parsed `verify` runs ({criterion: seconds} each), in run order.  The
    host's slow phases can last whole runs, so the minimum, the run least
    slowed, stands next to the median."""
    out = {}
    for run in runs:
        for name, seconds in run.items():
            out.setdefault(name, {"runs": []})["runs"].append(seconds)
    for entry in out.values():
        entry["median"] = statistics.median(entry["runs"])
        entry["min"] = min(entry["runs"])
    return out


def end_to_end_runs(trees):
    """Per side ({side: checkout}), one Tier-1 run, and VERIFY_RUNS runs of
    `verify --tier fast` taken in turn with the other side's, the base first
    on even rounds and the head first on odd ones, merged per criterion."""
    out = {side: {"tier1": run_command(tree, "tier1", TIER1, pytest_summary)}
           for side, tree in trees.items()}
    verify = {side: [] for side in trees}
    for i in range(VERIFY_RUNS):
        for side in list(trees)[::1 if i % 2 == 0 else -1]:
            verify[side].append(run_command(trees[side], "verify_fast", VERIFY_FAST,
                                            criterion_seconds))
    for side, runs in verify.items():
        out[side]["verify_fast"] = {"runs": runs,
                                    "criteria": merge_criteria([r["parsed"] for r in runs])}
    return out


def src_lines(checkout):
    """Lines of each module under src/, their total, and the total under tests/,
    so that code moved from src/ into the tests shows next to the src/ cut."""
    counts = {str(p.relative_to(checkout / "src")): len(p.read_text().splitlines())
              for p in sorted((checkout / "src").rglob("*.py"))}
    tests = sum(len(p.read_text().splitlines()) for p in (checkout / "tests").rglob("*.py"))
    return {"total": sum(counts.values()), "modules": counts, "tests_total": tests}


def dont_write_bytecode(environ=os.environ):
    """Whether PYTHONDONTWRITEBYTECODE is set (to a non-empty string) for the
    runs: then no `.pyc` is written, and every set-up compiles the modules it
    imports, so set-up times compare only between runs that agree on it."""
    return bool(environ.get("PYTHONDONTWRITEBYTECODE"))


PRECOMPILED = ("src", "perfbench")


def precompile(tree):
    """Compile the tree's PRECOMPILED directories to `.pyc` files, which every
    run then reads, whatever PYTHONDONTWRITEBYTECODE says."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", *PRECOMPILED], cwd=tree, check=True)
    return list(PRECOMPILED)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            return next(ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", required=True, help="the parent revision")
    ap.add_argument("--head", required=True, help="the revision of the change")
    ap.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    ap.add_argument("--seed", type=int, required=True, help="pair i runs seed + i")
    ap.add_argument("--claim", required=True,
                    help="the workload whose gain is claimed; it gets CLAIM_PAIRS pairs")
    args = ap.parse_args()

    bench = json.loads(Path("BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.claim not in workloads:
        ap.error("--claim must be one of %s" % ", ".join(workloads))
    seconds = bench["run_seconds"]
    end_to_end = {m["name"]: (m["better"], m["bound"]) for m in bench["end_to_end"]}
    revs = {side: git("rev-parse", rev) for side, rev in (("base", args.base), ("head", args.head))}
    out = {"machine": {"nproc": os.cpu_count(), "cpu_model": cpu_model(),
                       "PYTHONDONTWRITEBYTECODE": dont_write_bytecode()},
           "revisions": revs, "seconds": seconds, "claim": args.claim, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: Path(tmp) / side for side in revs}
        for side, rev in revs.items():
            trees[side].mkdir()
            archive = subprocess.run(["git", "archive", rev], check=True, capture_output=True)
            subprocess.run(["tar", "-x", "-C", str(trees[side])], input=archive.stdout,
                           check=True)
            out["machine"]["precompiled"] = precompile(trees[side])
        out["src_lines"] = {side: src_lines(trees[side]) for side in revs}
        for workload in workloads:
            n = CLAIM_PAIRS if workload == args.claim else PAIRS
            seeds = [args.seed + i for i in range(n)]
            runs = {side: [] for side in revs}
            for i, seed in enumerate(seeds):
                for side in (("base", "head") if i % 2 == 0 else ("head", "base")):
                    metrics, context = run_bench(trees[side], workload, seed, seconds)
                    runs[side].append(metrics)
                    out["machine"].update(context)
                    print("%s pair %d seed %d %s: jobs_per_s %.2f"
                          % (workload, i, seed, side, metrics["jobs_per_s"]), flush=True)
            shared, differ = shared_hashes(trees.values(), workload, seeds)
            per_metric = {}
            for name, (better, bound) in end_to_end.items():
                base, head = (summary([r[name] for r in runs[side]]) for side in revs)
                per_metric[name] = {
                    "better": better, "bound": bound, "base": base, "head": head,
                    "head_won": pairs_won(base["runs"], head["runs"], better), "pairs": n,
                    "verdict": verdict(base, head, better, bound)}
            out["workloads"][workload] = {
                "seeds": seeds,
                "payload_hashes_shared": shared,
                "payload_hashes_differ": differ,
                "metrics": per_metric,
            }
        out["end_to_end_runs"] = end_to_end_runs(trees)
    Path(args.out).write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
