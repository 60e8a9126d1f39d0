"""Benchmark workloads: seeded job inputs, job execution and output checks.

A workload is an endless stream of jobs. Job `i` of workload `name` under
`seed` depends on those three values alone, so a run is reproducible from its
seed and the program receives only the generated inputs. A job drives the
public API from outside: `projpair.verify.run_trials` for the campaign
workloads, `projpair.cli.main` for `exact_tools`. Both are looked up on their
module at call time, so the tracer can wrap them.

`execute` runs a job and returns its raw outputs; `check` verifies those
outputs independently of the program's own verdict and raises `JobFailed`
when they are wrong. Only `execute` is timed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import sys
from dataclasses import dataclass

from projpair import cli, verify

# Campaign job shapes; `base_seed` is drawn per job.
CAMPAIGNS = {
    "campaign_small": {"dims": (2, 4, 8, 16), "trials": 5},
    "campaign_large": {"dims": (64, 96), "trials": 1},
    "theorem_sweep": {"dims": (2, 4, 8, 16, 32, 64), "trials": 15, "tol": 1e-7,
                      "checks": ("theorem",)},
}
WORKLOADS = (*CAMPAIGNS, "exact_tools")

# Pairs the random counterexample search samples per exact_tools job. At 500
# the search already took 75% of a job; at 100 the exact polynomial work this
# workload is for stays a sizable share.
COUNTEREXAMPLE_BUDGET = 100
BOUNDS_MAX_N = 500
UNIVERSAL_GRID = 999
# Tolerances of the decomposition and universal-approximant checks, as in the
# acceptance suite (criteria 6 and 9).
DECOMPOSE_TOL = 1e-9
UNIVERSAL_TOL = 1e-5
UNIVERSAL_RESIDUAL_TOL = 1e-10
# Rounding slack when a bound row meets its limit (a = 0 or 1).
BOUND_EPS = 1e-12


class JobFailed(Exception):
    """A job ran but its output is wrong."""


@dataclass(frozen=True)
class CliCall:
    argv: tuple[str, ...]
    code: int
    stdout: str
    stderr: str


@dataclass(frozen=True)
class JobResult:
    """What a checked job contributes to the run."""

    report: bytes  # the program's report bytes, hashed into the run digest
    pairs: int  # projection pairs the job processed
    cli_bytes: int  # bytes the CLI wrote to stdout


def make_job(name: str, seed: int, index: int, work_dir: str):
    """Job `index` of workload `name`: a TrialConfig, or a tuple of CLI argvs.

    `work_dir` holds the pair file exact_tools writes and reads back; pass it
    as a relative path so the CLI reports, and with them the digest, do not
    depend on where the checkout lives.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; available: {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}/{seed}/{index}")
    if name in CAMPAIGNS:
        return verify.TrialConfig(base_seed=rng.randrange(2**32), **CAMPAIGNS[name])
    pair_file = os.path.join(work_dir, "pair.json")
    polys = [("P", 1, 200), ("Q", 1, 200), ("F", 0, 200), ("A", 1, 100), ("B", 1, 100)]
    return tuple(
        [("poly", "--family", fam, "--n", str(rng.randint(lo, hi))) for fam, lo, hi in polys]
        + [
            ("bounds", "--a", repr(rng.random()), "--max-n", str(BOUNDS_MAX_N)),
            ("universal", "--grid-size", str(UNIVERSAL_GRID)),
            ("counterexample", "--dim", "4", "--mode", "random",
             "--budget", str(COUNTEREXAMPLE_BUDGET), "--seed", str(rng.randrange(2**32)),
             "--out", pair_file),
            ("decompose", "--input", pair_file),
        ]
    )


def execute(job):
    """Run one job through the public API and return its raw outputs."""
    if isinstance(job, verify.TrialConfig):
        return verify.run_trials(job).to_json()
    calls = []
    for argv in job:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(argv))
        calls.append(CliCall(argv, code, out.getvalue(), err.getvalue()))
    return tuple(calls)


def check(job, outputs) -> JobResult:
    """Verify a job's outputs; raise JobFailed naming the first wrong one."""
    if isinstance(job, verify.TrialConfig):
        _check_campaign(job, json.loads(outputs))
        return JobResult(outputs.encode(), len(job.dims) * job.trials, 0)
    for call in outputs:
        if call.code != 0 or call.stderr:
            raise JobFailed(f"{' '.join(call.argv)}: exit {call.code}: {call.stderr.strip()}")
        _CLI_CHECKS[call.argv[0]](call.argv, json.loads(call.stdout))
    stdout = "".join(call.stdout for call in outputs).encode()
    return JobResult(stdout, COUNTEREXAMPLE_BUDGET + 1, len(stdout))


def run_job(job) -> JobResult:
    return check(job, execute(job))


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise JobFailed(what)


def _check_campaign(config, payload: dict) -> None:
    _require(payload["verdict"] == "pass", f"campaign verdict {payload['verdict']!r}")
    _require(not payload["errors"], f"campaign errors {payload['errors']}")
    _require(payload["config"]["base_seed"] == config.base_seed, "report names another seed")
    _require([s["name"] for s in payload["per_check"]] == list(config.checks),
             "report lists other checks than requested")
    expected = len(config.dims) * config.trials
    for s in payload["per_check"]:
        _require(s["trials"] == expected, f"{s['name']}: {s['trials']} of {expected} trials")
        _require(s["max_residual"] <= config.tol and not s["failures"],
                 f"{s['name']}: max residual {s['max_residual']!r} above tol {config.tol}")


def _value_at_one(family: str, n: int) -> int:
    # Each family's value at x = 1, from its closed form: P_n(1) = Q_n(1) =
    # 2^(n-2) for n >= 2, F_n(1) = 2^n, A_N(1) = B_N(1) = 2^(2N-2).
    if family == "F":
        return 2**n
    if family in ("A", "B"):
        return 2 ** (2 * n - 2)
    if n == 1:
        return 1 if family == "P" else 0
    return 2 ** (n - 2)


def _check_poly(argv, payload) -> None:
    family, n = argv[2], int(argv[4])
    _require(payload["recursive_closed_match"] is True, f"poly {family} {n}: forms disagree")
    total = sum(int(c) for c in payload["coefficients"])
    _require(total == _value_at_one(family, n), f"poly {family} {n}: value at 1 is {total}")


def _check_bounds(argv, payload) -> None:
    a = float(argv[2])
    limit = payload["limit"]
    rows = payload["rows"]
    _require(abs(limit - (a + a * a)) <= 1e-15, f"bounds: limit {limit!r} at a={a!r}")
    _require(len(rows) == BOUNDS_MAX_N, f"bounds: {len(rows)} rows")
    _require(all(r["lower"] <= limit + BOUND_EPS and r["upper"] >= limit - BOUND_EPS
                 for r in rows),
             "bounds: a row fails to straddle the limit")
    _require(rows[-1]["gap"] <= 1e-2, f"bounds: final gap {rows[-1]['gap']!r}")


def _check_universal(argv, payload) -> None:
    _require(payload["norm_pq"] >= 1 - UNIVERSAL_TOL, f"universal: ||pq|| {payload['norm_pq']!r}")
    _require(abs(payload["norm_commutator"] - 0.5) <= UNIVERSAL_TOL,
             f"universal: ||pq-qp|| {payload['norm_commutator']!r}")
    _require(payload["theorem_residual"] <= UNIVERSAL_RESIDUAL_TOL,
             f"universal: theorem residual {payload['theorem_residual']!r}")


def _check_counterexample(argv, payload) -> None:
    a, comm = payload["norm_fg"], payload["norm_comm"]
    violation = abs(comm**2 - a**2 * (1 - a**2))
    _require(payload["dim"] == 4, f"counterexample: dim {payload['dim']}")
    _require(payload["violation"] > 0 and math.isclose(payload["violation"], violation,
                                                       rel_tol=1e-9, abs_tol=1e-12),
             f"counterexample: violation {payload['violation']!r}, recomputed {violation!r}")


def _check_decompose(argv, payload) -> None:
    worst = max(*payload["relation_residuals"].values(), payload["norm_identity_residual"])
    _require(payload["dim"] == 4 and payload["rank_f"] == 2,
             f"decompose: dim {payload['dim']}, rank {payload['rank_f']}")
    _require(worst <= DECOMPOSE_TOL, f"decompose: residual {worst!r}")


_CLI_CHECKS = {
    "poly": _check_poly,
    "bounds": _check_bounds,
    "universal": _check_universal,
    "counterexample": _check_counterexample,
    "decompose": _check_decompose,
}


def probe(name: str, seed: int, work_dir: str) -> int:
    """Set-up probe for a fresh interpreter: run job 0; exit status 0 if correct."""
    try:
        run_job(make_job(name, seed, 0, work_dir))
    except Exception as exc:  # reported through the exit status
        print(f"probe job failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0
