"""Benchmark entry point: one closed-loop client driving projpair in-process.

    python3 perfbench/run.py --workload campaign_small --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the package from `src/` there
and exits with status 2 when there is none. The workloads, metric names and
units are those of `BENCHMARK.json`.

`--trace 0` measures the end-to-end metrics. It runs jobs back to back for
`--seconds` seconds, and for at least `MIN_JOBS` jobs, so that ten latencies
lie beyond the p90. A calibration kernel runs before each job, and every job
time is scaled to reference host speed by it (see `calibrate.py`). Spread
over the same time, it times `SETUP_PROBES` fresh interpreters that import
projpair and finish one job (`setup_s`, median, scaled by the run's median
kernel time).

`--trace 1` measures the per-layer metrics. It runs up to `TRACE_JOBS` jobs
twice each, once untraced and once traced, alternating which goes first,
requires both to report the same bytes, and writes the spans as JSON Lines to
`.perfbench/spans-<workload>.jsonl`.

Every output is checked. A job that raises or reports a wrong result is
counted in `failed` and the run goes on. Standard output ends with a record
line (machine and environment facts, report digest, failure messages) and
then the result line.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MIN_JOBS = 100
SETUP_PROBES = 7
# Jobs per trace run; the per-layer metrics are per-job means over them.
TRACE_JOBS = 12
# A fresh interpreter: import the package, run job 0, exit 0 if it is correct.
PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
         "sys.exit(workloads.probe(sys.argv[3], int(sys.argv[4]), sys.argv[5]))")


def percentile(samples, q: float, beyond: int = 10):
    """Nearest-rank q-quantile of samples, or None unless `beyond` samples exceed its rank.

    With q = 0.9 that takes at least 100 samples; with q = 0.5, at least 20.
    """
    xs = sorted(samples)
    rank = math.ceil(q * len(xs))
    if rank < 1 or len(xs) - rank < beyond:
        return None
    return xs[rank - 1]


class Tally:
    """Jobs attempted and failed, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def add(self, error: str | None) -> None:
        """Count one attempted job, failed if `error` is given."""
        self.attempted += 1
        if error is not None:
            self.fail(error)

    def fail(self, error: str) -> None:
        """Mark an attempted job failed."""
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(error)


def attempt(workloads, job):
    """Run and check one job: (JobResult or None, seconds in the program, error or None)."""
    start = perf_counter()
    elapsed = None
    try:
        outputs = workloads.execute(job)
        elapsed = perf_counter() - start
        return workloads.check(job, outputs), elapsed, None
    except Exception as exc:  # a failed job is counted, never fatal to the run
        if elapsed is None:
            elapsed = perf_counter() - start
        return None, elapsed, f"{type(exc).__name__}: {exc}"


def pin_environment() -> str:
    """One BLAS thread and no campaign thread pool, for this process and its children.

    Must run before numpy is imported. Returns the PROJPAIR_THREADS state found.
    """
    for var in BLAS_ENV:
        os.environ[var] = "1"
    found = os.environ.pop("PROJPAIR_THREADS", None)
    return "unset" if found is None else f"removed (was {found!r})"


def git_commit(root: Path) -> str:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return "unknown (not a git checkout)"
    return "unknown"


def environment(projpair_threads: str) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_thread_env": {var: os.environ.get(var) for var in BLAS_ENV},
        "projpair_threads": projpair_threads,
        "git_commit": git_commit(ROOT),
    }


def setup_probe(name: str, seed: int, work: str) -> tuple[float, str | None]:
    argv = [sys.executable, "-c", PROBE, str(SRC), str(BENCH_DIR), name, str(seed), work]
    start = perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
    elapsed = perf_counter() - start
    error = None if proc.returncode == 0 else f"setup probe exit {proc.returncode}: {proc.stderr.strip()}"
    return elapsed, error


def measure(workloads, name: str, seed: int, seconds: float, work: str, tally: Tally):
    """Untraced run: end-to-end metrics plus the record's extra facts.

    Times are adjusted to reference host speed by `calibrate`; the record
    keeps the raw wall figures beside them.
    """
    import calibrate  # imports numpy, so only after pin_environment

    _, _, error = attempt(workloads, workloads.make_job(name, seed, 0, work))  # warm-up
    tally.add(error)
    latencies, kernels, pairs, digest = [], [], 0, hashlib.sha256()
    setup = []

    def probe():
        elapsed, error = setup_probe(name, seed, work)
        setup.append(elapsed)
        tally.add(error)

    # Set-up probes are spread over the run, so their median samples the
    # host's changing speed as the jobs do.
    start = perf_counter()
    while len(latencies) < MIN_JOBS or perf_counter() - start < seconds:
        if len(setup) < SETUP_PROBES and perf_counter() - start >= len(setup) * seconds / SETUP_PROBES:
            probe()
        index = len(latencies)
        kernels.append(calibrate.kernel())
        result, elapsed, error = attempt(workloads, workloads.make_job(name, seed, index, work))
        latencies.append(elapsed)
        tally.add(error)
        if result is not None:
            pairs += result.pairs
        if index < MIN_JOBS:
            digest.update(result.report if result is not None else b"<failed>")
    wall = perf_counter() - start
    while len(setup) < SETUP_PROBES:
        probe()
    adjusted = calibrate.adjust(latencies, kernels)
    busy = sum(adjusted)

    metrics = {
        "pairs_per_s": pairs / busy,
        "jobs_per_s": len(adjusted) / busy,
        "job_ms_p50": percentile(adjusted, 0.5) * 1e3,
        "job_ms_p90": percentile(adjusted, 0.9) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        # A probe's time follows the host's speed over the run, not the few
        # kernel times next to it, so it is scaled by the run's median kernel.
        "setup_s": statistics.median(setup) * calibrate.REFERENCE_S / statistics.median(kernels),
    }
    facts = {
        "jobs": len(latencies),
        "wall_s": wall,
        "raw_jobs_per_s": len(latencies) / sum(latencies),
        "raw_job_ms_p50": percentile(latencies, 0.5) * 1e3,
        "raw_job_ms_p90": percentile(latencies, 0.9) * 1e3,
        "raw_setup_s": statistics.median(setup),
        "adjusted_ms_quartiles": [x * 1e3 for x in statistics.quantiles(adjusted, n=4)],
        "kernel_ms_quartiles": [x * 1e3 for x in statistics.quantiles(kernels, n=4)],
        "kernel_reference_ms": calibrate.REFERENCE_S * 1e3,
        "setup_samples_s": setup,
        "report_sha256": digest.hexdigest(),
        "report_digest_jobs": MIN_JOBS,
    }
    return metrics, facts


def trace(workloads, spans, name: str, seed: int, seconds: float, work: str, tally: Tally):
    """Traced run: per-layer metrics plus the record's extra facts."""
    _, _, error = attempt(workloads, workloads.make_job(name, seed, 0, work))  # warm-up
    tally.add(error)
    tracer = spans.Tracer()
    busy = {False: 0.0, True: 0.0}
    cli_bytes = jobs = 0
    start = perf_counter()
    while jobs < TRACE_JOBS and (jobs == 0 or perf_counter() - start < seconds):
        job = workloads.make_job(name, seed, jobs, work)
        reports = {}
        for traced in (False, True) if jobs % 2 == 0 else (True, False):
            if traced:
                tracer.begin_job(jobs)
                tracer.install()
            try:
                result, elapsed, error = attempt(workloads, job)
            finally:
                tracer.uninstall()
            busy[traced] += elapsed
            tally.add(error)
            if result is not None:
                reports[traced] = result.report
                cli_bytes += result.cli_bytes if traced else 0
        if len(reports) == 2 and reports[True] != reports[False]:
            tally.fail(f"job {jobs}: traced and untraced runs reported different bytes")
        jobs += 1

    metrics = spans.layer_metrics(tracer.spans, tracer.counts, jobs, cli_bytes)
    metrics["trace.overhead_share"] = busy[True] / busy[False] - 1
    OUT_DIR.mkdir(exist_ok=True)
    span_file = OUT_DIR / f"spans-{name}.jsonl"
    tracer.write_jsonl(span_file)
    return metrics, {"traced_jobs": jobs, "spans": len(tracer.spans), "span_file": str(span_file)}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True, help="Seed of the job inputs.")
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "projpair" / "__init__.py").is_file():
        print(f"error: no projpair package under {SRC}", file=sys.stderr)
        return 2

    projpair_threads = pin_environment()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import spans
    import workloads

    work_dir = OUT_DIR / "work"
    work_dir.mkdir(parents=True, exist_ok=True)
    work = os.path.relpath(work_dir)
    tally = Tally()
    if args.trace:
        metrics, facts = trace(workloads, spans, args.workload, args.seed, args.seconds, work, tally)
    else:
        metrics, facts = measure(workloads, args.workload, args.seed, args.seconds, work, tally)

    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} differ from BENCHMARK.json",
              file=sys.stderr)
        return 1
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "failed_share": tally.failed / tally.attempted,
        "errors": tally.errors, **facts, "environment": environment(projpair_threads),
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
