"""Run every workload once and print each of its metrics with the unit.

    python3 perfbench/summary.py [--seed 0] [--seconds N] [--trace 0|1]

End-to-end metrics by default, per-layer ones with `--trace 1`. Each workload
runs in its own `run.py` process, one after another. Exits 1 if any run fails
or reports an incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(argv=None) -> int:
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    status = 0
    for workload in (w["name"] for w in spec["workloads"]):
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{workload}: run failed (exit {proc.returncode}): {proc.stderr.strip()}")
            status = 1
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        print(f"{workload}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} report_sha256={record.get('report_sha256', '-')}")
        for name, metric in result["metrics"].items():
            print(f"  {name:48s} {metric['value']:14.6g} {metric['unit']}")
        status |= 0 if result["correct"] else 1
    return status


if __name__ == "__main__":
    sys.exit(main())
