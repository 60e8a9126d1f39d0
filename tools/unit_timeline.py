"""Print which process ran each unit of one run_trials campaign, and when,
and the pairs each process built.

    PYTHONPATH=src python3 tools/unit_timeline.py [--shape campaign_large] [--base-seed 0]

The campaign is run_trials(TrialConfig(**shape, base_seed=...)) for one of
the benchmark's campaign shapes (CAMPAIGNS in perfbench/workloads.py, read,
never imported as a module), campaign_large's by default. One line per
unit, in the order the units started: the process that ran it (caller or
helper), its dim, its trials, its start and end in ms from the campaign's
start, and its checks. Then the pairs each process built (random_pairs calls,
one per build of a unit's pairs), and the report's sha256.

BLAS runs on one thread, as in the benchmark, so on a host with 2 CPUs or
more the campaign runs on a helper process. The tool closes any helper this
process has, patches verify._run_unit and verify.random_pairs to record
into a file both processes append to, and runs the campaign, whose helper is
forked after the patches, so it records its share too; then it restores both
names and closes that helper. The records change no report byte.
"""

from __future__ import annotations

import os
import runpy
from pathlib import Path

if __name__ == "__main__":
    # BLAS reads these once, when numpy is first imported; a program that
    # imports this module keeps its own.
    os.environ.update(dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
         "VECLIB_MAXIMUM_THREADS"), "1"))

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

from projpair import _helper, verify  # noqa: E402
from projpair.verify import TrialConfig, run_trials  # noqa: E402

# The benchmark's campaign job shapes, less the base seed
SHAPES = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"),
                        run_name="perfbench_workloads")["CAMPAIGNS"]


def timeline(config: TrialConfig) -> tuple[list[dict], str]:
    """Run config once with a helper forked for it, where one is wanted, and
    return the records of both processes and the report's JSON. A unit's
    record has process, dim, trials, checks, and start and end in ms from
    the campaign's start; a build's has process, build (its dim) and seeds."""
    caller = os.getpid()
    real_unit, real_pairs = verify._run_unit, verify.random_pairs
    with tempfile.TemporaryFile("a+b") as log:  # O_APPEND: each record one write

        def record(**fields) -> None:
            fields["process"] = "caller" if os.getpid() == caller else "helper"
            os.write(log.fileno(), (json.dumps(fields) + "\n").encode())

        def run_unit(config, unit, floors, kept):
            start = time.perf_counter_ns()
            try:
                return real_unit(config, unit, floors, kept)
            finally:
                end = time.perf_counter_ns()
                record(dim=unit[0], trials=[*unit[1]], checks=[*unit[2]],
                       start=(start - begin) / 1e6, end=(end - begin) / 1e6)

        def random_pairs(dim, seeds):
            record(build=dim, seeds=[*seeds])
            return real_pairs(dim, seeds)

        _helper._close_helper()
        verify._run_unit, verify.random_pairs = run_unit, random_pairs
        try:
            begin = time.perf_counter_ns()  # CLOCK_MONOTONIC: one clock for both processes
            report = run_trials(config).to_json()
        finally:
            verify._run_unit, verify.random_pairs = real_unit, real_pairs
            _helper._close_helper()  # its copies of the names record
        log.seek(0)
        records = [json.loads(line) for line in log.read().splitlines()]
    return records, report


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--shape", choices=sorted(SHAPES), default="campaign_large")
    parser.add_argument("--base-seed", type=int, default=0)
    args = parser.parse_args(argv)
    records, report = timeline(TrialConfig(**SHAPES[args.shape], base_seed=args.base_seed))
    units = sorted((r for r in records if "build" not in r), key=lambda r: r["start"])
    print(f"{'process':<8}{'dim':>5}  {'trials':<10}{'start_ms':>9}{'end_ms':>9}  checks")
    for r in units:
        trials = r["trials"][0] if len(r["trials"]) == 1 else f"{r['trials'][0]}-{r['trials'][-1]}"
        print(f"{r['process']:<8}{r['dim']:>5}  {trials!s:<10}{r['start']:>9.1f}{r['end']:>9.1f}"
              f"  {','.join(r['checks'])}")
    for process in ("caller", "helper"):
        builds = sum(r.get("build") is not None and r["process"] == process for r in records)
        print(f"pair builds, {process}: {builds}")
    print(f"report sha256: {hashlib.sha256(report.encode()).hexdigest()}")


if __name__ == "__main__":
    main()
