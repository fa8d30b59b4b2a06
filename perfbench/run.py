"""kinderlab benchmark: one workload, one process, one client, closed loop.

    python3 perfbench/run.py --workload sampling|lattice|exact \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; kinderlab is imported from its `src/`.
Jobs are submitted one at a time, in order, in whole rounds, until at least
S seconds and MIN_JOBS jobs are done. Each job's output is checked outside
the timed region and its payload hashed; the hashes are kept under
`.perfbench_out/` and must repeat on a later run with the same seed.

--trace 0 prints the end-to-end metrics. --trace 1 runs each round untraced
and then again traced, on the same inputs and with the same payload hashes,
and prints the per-layer metrics; the traced pass's job time over the
untraced pass's is trace.overhead_share. The last stdout line is the JSON
result.

Timings are in reference seconds, scaled by the host's speed around and
during the timed work (see hostspeed.py); the unscaled figures are printed
above the result line.
"""

import time

import hostspeed

START_PROBE = hostspeed.probe()
CLOCK = hostspeed.Clock()
T0 = CLOCK.start()

import os  # noqa: E402

# single-threaded numpy: the benchmark measures one process on one core
os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_JOBS = 100  # so that at least ten latencies lie beyond the 90th percentile
SETUP_SAMPLES = 3  # this process plus two set-up-only child processes

# metric name -> unit, for --trace 0
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "jobs/s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "ratio",
}
# where the traced run expects the largest self time
PREDICTED_TOP = {
    "sampling": ("linalg.np_rank",),
    "lattice": ("smallgrp.", "nursery.Kind.group"),
    "exact": ("linalg.rref", "linalg.rank_nullspace", "linalg.Matrix.mul",
              "nursery.reconstruct", "twisted."),
}


def fail(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def import_kinderlab():
    src = ROOT / "src"
    if not (src / "kinderlab" / "__init__.py").is_file():
        fail("no kinderlab sources under %s" % src)
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401 - kinderlab imports it lazily; setup_s includes it
    import kinderlab

    if Path(kinderlab.__file__).resolve().parent != (src / "kinderlab").resolve():
        fail("imported kinderlab from %s, not from the checkout" % kinderlab.__file__)
    return kinderlab


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Runner:
    """Runs rounds of one workload and keeps latencies, failures, hashes."""

    def __init__(self, workload, kl, shared, seed):
        self.workload = workload
        self.kl = kl
        self.shared = shared
        self.seed = seed
        self.latencies = []  # reference seconds
        self.raw = []  # unscaled seconds
        self.loops = []  # every reference loop time around and inside the jobs
        self.attempted = 0
        self.failed = 0
        self.hashes = {}

    def round(self, index, tr=None, jobs=None):
        """Run round `index`; returns (job seconds, {job key: hash})."""
        if jobs is None:
            jobs = workloads.make_round(self.workload, self.kl, self.shared, self.seed, index)
        busy = 0.0
        hashes = {}
        for pos, job in enumerate(jobs):
            key = "%d.%d.%s" % (index, pos, job.name)
            self.attempted += 1
            stage = "prepare"
            try:
                args = job.prepare()
                stage = "call"
                if tr is None:
                    before = hostspeed.probe()
                    t = CLOCK.start()
                    try:
                        out = job.call(*args)
                    finally:
                        dt, inside = CLOCK.stop(t)
                    loops = before + inside + hostspeed.probe()
                    self.raw.append(dt)
                    self.loops += loops
                    self.latencies.append(hostspeed.scaled(dt, loops))
                else:
                    # no ticks in a traced pass: they would land in the spans
                    tr.job_id, tr.recording = self.attempted, True
                    t = time.perf_counter()
                    try:
                        out = job.call(*args)
                    finally:
                        dt = time.perf_counter() - t
                        tr.recording = False
                busy += dt
                stage = "check"
                hashes[key] = digest(job.check(args, out))
            except Exception as exc:  # noqa: BLE001 - a failed job is counted, not fatal
                self.failed += 1
                print("FAILED %s at %s: %s: %s" % (key, stage, type(exc).__name__, exc),
                      file=sys.stderr)
                if not isinstance(exc, workloads.CheckFailed):
                    traceback.print_exc(file=sys.stderr)
        return busy, hashes

    def compare(self, hashes, against, what):
        for key, h in hashes.items():
            if key in against and against[key] != h:
                self.failed += 1
                print("FAILED %s: payload hash differs from %s" % (key, what), file=sys.stderr)


def setup(workload, seed, tr=None):
    """Import, build the shared inputs and round 0; the part `setup_s` times."""
    kl = import_kinderlab()
    if tr is not None:
        CLOCK.stop(T0)  # no ticks inside recorded spans
        tr.install(kl)
        tr.recording = True
    shared = workloads.SETUP[workload](kl)
    first = workloads.make_round(workload, kl, shared, seed, 0)
    if tr is not None:
        tr.recording = False
    return kl, shared, first


def child_setup_times(args, count):
    """[(reference seconds, unscaled seconds)] of `count` set-up-only processes."""
    times = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, timeout=120, cwd=str(ROOT),
        )
        if proc.returncode != 0:
            fail("set-up child failed: %s" % proc.stderr.strip())
        got = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append((got["setup_s"], got["raw"]))
    return times


def load_hashes(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return {}


def save_hashes(path, hashes):
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(hashes, sort_keys=True))
    tmp.replace(path)


def context_line():
    import numpy

    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "loop": "closed, 1 client, 1 process",
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    tr = tracer.Tracer() if args.trace else None
    kl, shared, first = setup(args.workload, args.seed, tr)
    setup_raw, inside = CLOCK.stop(T0)
    setup_s = hostspeed.scaled(setup_raw, START_PROBE + inside + hostspeed.probe())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw": setup_raw}))
        return

    runner = Runner(args.workload, kl, shared, args.seed)
    hash_file = OUT / "hashes" / ("%s-%s.json" % (args.workload, args.seed))
    rounds = 0
    busy = traced = 0.0
    start = time.perf_counter()
    while True:
        t_busy, hashes = runner.round(rounds, jobs=first if rounds == 0 else None)
        busy += t_busy
        if tr is not None:
            # the same round again, traced: same inputs, so the same payloads
            t_traced, again = runner.round(rounds, tr)
            traced += t_traced
            runner.compare(again, hashes, "the untraced pass")
        runner.hashes.update(hashes)
        rounds += 1
        if time.perf_counter() - start >= args.seconds and (
                tr is not None or len(runner.latencies) >= MIN_JOBS):
            break

    runner.compare(runner.hashes, load_hashes(hash_file), "an earlier run with this seed")
    save_hashes(hash_file, {**load_hashes(hash_file), **runner.hashes})

    print("context %s" % json.dumps(context_line(), sort_keys=True))
    print("workload %s seed %s: %d rounds, %d jobs attempted, %d failed (failed_share %.4f)"
          % (args.workload, args.seed, rounds, runner.attempted, runner.failed,
             runner.failed / runner.attempted))
    if tr is not None:
        tr.restore()
        metrics = tr.metrics(rounds, traced / busy - 1.0)
        tr.save(OUT / ("spans-%s.npz" % args.workload))
        units = {name: unit for name, unit, _ in tracer.metric_names()}
        top = tr.top_job_layer()
        print("largest self time in jobs: %s; predicted %s: %s"
              % (top, " or ".join(PREDICTED_TOP[args.workload]),
                 "met" if top.startswith(PREDICTED_TOP[args.workload]) else "NOT met"))
    else:
        lat = runner.latencies
        deciles = statistics.quantiles(lat, n=10, method="inclusive")
        setups = [(setup_s, setup_raw)] + child_setup_times(args, SETUP_SAMPLES - 1)
        metrics = {
            "setup_s": statistics.median(s for s, _ in setups),
            "jobs_per_s": len(lat) / sum(lat),
            "job_p50_s": statistics.median(lat),
            "job_p90_s": deciles[8],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "ok_share": (runner.attempted - runner.failed) / runner.attempted,
        }
        units = END_TO_END
        raw_deciles = statistics.quantiles(runner.raw, n=10, method="inclusive")
        print("latency samples %d; setup samples %s s (unscaled %s s)"
              % (len(lat), ", ".join("%.4f" % s for s, _ in setups),
                 ", ".join("%.4f" % r for _, r in setups)))
        print("unscaled: jobs_per_s %.6g, job_p50_s %.6g, job_p90_s %.6g; reference loop "
              "median %.6g s, nominal %.6g s"
              % (len(runner.raw) / sum(runner.raw), statistics.median(runner.raw),
                 raw_deciles[8], statistics.median(runner.loops), hostspeed.NOMINAL_S))
        for name, value in metrics.items():
            print("  %-12s %14.6f %s" % (name, value, units[name]))
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
