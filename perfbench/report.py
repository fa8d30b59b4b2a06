"""Print every end-to-end metric, with its unit, for all three workloads.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs perfbench/run.py once per workload, each in its own process, from the
root of the checkout, and prints one table. failed_share is the share of
attempted jobs that raised or failed their output check.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import WORKLOADS  # noqa: E402


def run_workload(workload, seed, seconds, trace=0, cwd=ROOT):
    """(return code, parsed last stdout line or None, stdout, stderr) of one run."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=str(cwd), timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc.returncode, result, proc.stdout, proc.stderr


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", default="1")
    ap.add_argument("--seconds", default="15")
    args = ap.parse_args()
    bad = False
    print("%-10s %-14s %14s  %s" % ("workload", "metric", "value", "unit"))
    for workload in WORKLOADS:
        code, result, _, err = run_workload(workload, args.seed, args.seconds)
        if code != 0 or result is None:
            print("%-10s run failed (exit %d): %s" % (workload, code, err.strip()[-500:]))
            bad = True
            continue
        rows = [(name, m["value"], m["unit"]) for name, m in result["metrics"].items()]
        rows.append(("failed_share", result["failed"] / result["attempted"], "ratio"))
        for name, value, unit in rows:
            print("%-10s %-14s %14.6g  %s" % (workload, name, value, unit))
        bad |= not result["correct"]
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
