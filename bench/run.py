"""Benchmark of the lineint command line, one workload per invocation.

    python3 bench/run.py --workload plog --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's src/ directory.  The workload's jobs are made from the seed.
Each job is a full CLI command, ``lineint.cli.main(argv)`` with stdout
captured, so argument parsing, the parsing layer, the computation and
printing are all timed, but interpreter start-up is not.  One untimed
round answers every job once; its outputs are the references.  Then whole
rounds of the same jobs run for the given seconds on this one thread, each
output compared with its reference.  After the timed span every reference
is checked by the workload's oracle, which does not use lineint.

Times are speed-normalized: a fixed calibration computation runs between
jobs, and each job's wall time is scaled by K_REF_S over the slower of the
calibrations just before and just after it (see README.md for why).

With --trace 0 the last line of stdout is a JSON object with the end-to-end
metrics; with --trace 1 the rounds run under the per-layer tracer and the
object holds the per-layer metrics.  A copy of it goes to bench/results/.
"""

import argparse
import gc
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

sys.path.insert(0, str(BENCH))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

JOBS_PER_ROUND = 16
# A job percentile needs ten samples beyond it: 100 jobs for the 90th.
MIN_JOBS = 100
COLD_STARTS = 7

# The calibration computation: the oracles' exact logarithm of a fixed
# rational unit, about K_REF_S seconds in the usual state of the 2-vCPU
# virtual machine the benchmark was built on.  It runs the same kind of
# Python (Fraction and object churn) as the jobs, so its time tracks the
# machine's speed changes, which reached 1.8x there.
CALIBRATION_UNIT = [Fraction(2)] + [Fraction((7 * d * d + 3) % 19 - 9)
                                    for d in range(1, 16)]
K_REF_S = 0.0007

END_TO_END_UNITS = {
    "jobs_per_s": "jobs/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_program():
    """The lineint package from the checkout's src, not an installed one."""
    if not (SRC / "lineint" / "cli.py").is_file():
        raise SystemExit(f"bench: no lineint sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import lineint
    import lineint.cli
    if Path(lineint.__file__).resolve().parent != SRC / "lineint":
        raise SystemExit(f"bench: imported lineint from {lineint.__file__}, "
                         f"not from {SRC}")
    return lineint


def calibration_seconds():
    start = time.perf_counter()
    oracles.exact_log(CALIBRATION_UNIT, len(CALIBRATION_UNIT))
    return time.perf_counter() - start


def speed_factors(calibrations):
    """K_REF_S over the slower calibration on either side of each job.

    calibrations[i] ran just before job i and calibrations[i + 1] just
    after it.  The machine switches speed within a job's length; of the
    estimators tried on recorded runs (the median of nearby calibrations,
    the mean or the slower of the two neighbours), the slower neighbour
    varied least between 20 s windows, for the median and the tail alike.
    """
    return [K_REF_S / max(before, after)
            for before, after in zip(calibrations, calibrations[1:])]


def run_job(main, job):
    """(exit code, stdout) of one CLI command answered in this process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(job.stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(job.argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def cold_start(job):
    """Normalized seconds for a fresh interpreter to answer one command."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    before = statistics.median(calibration_seconds() for _ in range(3))
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "lineint.cli", *job.argv],
                          input=job.stdin or "", capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=60)
    elapsed = time.perf_counter() - start
    after = statistics.median(calibration_seconds() for _ in range(3))
    if proc.returncode != 0:
        raise SystemExit(f"bench: cold start exited {proc.returncode}: "
                         f"{proc.stderr.strip()}")
    try:
        job.check(proc.stdout)
    except oracles.Rejected as e:
        raise SystemExit(f"bench: cold start answered wrongly: {e}") from None
    return elapsed * K_REF_S / max(before, after)


def setup_seconds(workload, rng):
    """Median cold start over COLD_STARTS small jobs, after one unmeasured."""
    jobs = [workload.make_small(rng) for _ in range(COLD_STARTS + 1)]
    cold_start(jobs[0])
    return statistics.median(cold_start(job) for job in jobs[1:])


class Timed:
    """What the timed rounds measured."""

    def __init__(self):
        self.seconds = []        # wall time of each job
        self.calibrations = []   # calibration times, one between jobs
        self.spans = []          # traced self seconds of each job, by span
        self.failed = 0          # jobs that exited non-zero
        self.differ = 0          # outputs unlike their reference
        self.out_bytes = 0
        self.span = 0.0          # wall seconds of the whole timed part

    def normalized(self):
        """Each job's wall seconds scaled to the reference speed."""
        return [t * f for t, f in zip(self.seconds,
                                      speed_factors(self.calibrations))]


def timed_rounds(main, jobs, refs, seconds, tracer=None):
    """Run whole rounds until both the seconds and MIN_JOBS are reached."""
    timed = Timed()
    gc.collect()
    begin = time.perf_counter()
    timed.calibrations.append(calibration_seconds())
    while True:
        for job, ref in zip(jobs, refs):
            if tracer is not None:
                tracer.self_s.clear()
            start = time.perf_counter()
            code, out = run_job(main, job)
            timed.seconds.append(time.perf_counter() - start)
            timed.calibrations.append(calibration_seconds())
            if tracer is not None:
                timed.spans.append(dict(tracer.self_s))
            timed.out_bytes += len(out.encode())
            if code != 0:
                timed.failed += 1
            elif out != ref[1]:
                timed.differ += 1
        timed.span = time.perf_counter() - begin
        if timed.span >= seconds and len(timed.seconds) >= MIN_JOBS:
            return timed


def end_to_end(timed, setup_s):
    ms = sorted(t * 1000 for t in timed.normalized())
    values = {
        "jobs_per_s": 1000 * len(ms) / sum(ms),
        "job_p50_ms": statistics.median(ms),
        "job_p90_ms": statistics.quantiles(ms, n=10)[8],
        "setup_s": setup_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END_UNITS.items()}


def normalized_spans(timed):
    """Traced self seconds summed over the jobs, each job normalized."""
    self_s = {}
    for spans, f in zip(timed.spans, speed_factors(timed.calibrations)):
        for name, s in spans.items():
            self_s[name] = self_s.get(name, 0.0) + s * f
    return self_s


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    lineint = import_program()
    workload = workloads.WORKLOADS[args.workload]
    seed = f"{args.workload}/{args.seed}"
    setup_s = None if args.trace else setup_seconds(
        workload, random.Random(seed + "/setup"))
    rng = random.Random(seed)
    jobs = [workload.make(rng) for _ in range(JOBS_PER_ROUND)]
    cli_main = lineint.cli.main
    refs = []
    for job in jobs:
        calibration_seconds()
        refs.append(run_job(cli_main, job))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer, lineint)
        cli_main = tracer.wrap("cli", cli_main)
    try:
        timed = timed_rounds(cli_main, jobs, refs, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.restore()
    jobs_done = len(timed.seconds)
    if tracer is None:
        metrics = end_to_end(timed, setup_s)
    else:
        self_s = normalized_spans(timed)
        metrics = tracing.per_layer(tracer, self_s, jobs_done,
                                    jobs_done / sum(timed.normalized()),
                                    timed.out_bytes)

    rounds = jobs_done // len(jobs)
    rejected = []
    for job, (code, out) in zip(jobs, refs):
        if code != 0:
            continue
        try:
            job.check(out)
        except oracles.Rejected as e:
            rejected.append(str(e))
    wrong = timed.differ + rounds * len(rejected)
    result = {"correct": wrong == 0, "attempted": jobs_done,
              "failed": timed.failed + wrong, "metrics": metrics}

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}" + ("-trace" if args.trace
                                                 else "")
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, rounds=rounds, rejected=rejected,
                  wall={"span_s": timed.span,
                        "jobs_per_s": jobs_done / timed.span,
                        "job_p50_ms": 1000 * statistics.median(timed.seconds),
                        "calibration_ms":
                            1000 * statistics.median(timed.calibrations)})
    if tracer is not None:
        record["spans"] = tracing.totals(tracer, self_s, jobs_done)
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"{args.workload}: {result['attempted']} attempted, "
          f"{result['failed']} failed, {rounds} rounds of {len(jobs)} jobs "
          f"in {timed.span:.2f} s" + "".join(f"; rejected: {r}"
                                             for r in rejected[:3]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
