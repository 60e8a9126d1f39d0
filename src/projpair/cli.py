# src/projpair/cli.py
"""Command-line front end.

Subcommands: verify, poly, decompose, bounds, counterexample, universal.
Exit codes: 0 all checks passed, 1 checks ran and some failed, 2 usage or
validation error (a size too large to allocate included), 3 I/O failure.
Identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from functools import cache
from pathlib import Path

from ._jsontext import json_text
from .linalg import EigenConvergenceError
from .linalg import spectral_norm  # noqa: F401  (unused; perfbench's tracer wraps this name)
from .polynomials import (
    coefficient_strings,
    poly_AB,
    poly_F,
    poly_F_closed,
    poly_PQ_closed,
    poly_PQ_recursive,
)
from .projections import (
    DecompositionError,
    halmos_decompose,
    load_pair_json,
    matrix_to_pairs,
    projection_failures,
    save_pair_json,
    universal_pair_approx,
)
from .projections import validate_projection  # noqa: F401  (unused; perfbench's tracer wraps this name)
from .verify import (
    ALL_CHECKS,
    TrialConfig,
    bound_sequences,
    find_commutator_identity_counterexample,
    run_trials,
)

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3

POLY_MAX_N = {"P": 200, "Q": 200, "F": 200, "A": 100, "B": 100}
# The approximant's arrays grow with the grid: 10**6 takes ~0.3 s and
# ~155 MiB peak RSS in a fresh process (2-vCPU x86), and 10**8 exhausts the
# memory of an 8 GiB host.
UNIVERSAL_MAX_GRID = 10**6
# bounds holds ~1.5 KB per row: 10**6 rows peak near 1.5 GB, 10**7 need ~15 GB.
BOUNDS_MAX_N = 10**6
# Largest --dims entry and --dim: a pair's members take 32 dim^2 bytes, so 12000 would
# pass numpy's allocation check, then exhaust an 8 GiB host. A fresh process of verify
# --dims 1024 --trials 1 --checks theorem: ~1.0 s (1.5 s at 1 BLAS thread), ~190 MiB peak RSS.
# All checks at --dims 512 --trials 1: ~1.9 s, ~131 MiB at BLAS's default 2 threads (2 vCPU);
# ~3.0 s, ~128 MiB at 1 BLAS thread with the checks run serially, and 0.60 of the serial time,
# ~124 MiB in the calling process, where a forked helper process runs some of the trial's
# checks (both measured on one host). At 256: ~0.39 s, ~62 MiB; ~0.50 s, ~61 MiB serially, and
# 0.68 of that with the helper.
MAX_DIM = 1024


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _json_text(payload) -> str:
    return json_text(payload) + "\n"


def _csv_text(header: list[str], rows: list[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\r\n")  # RFC 4180 line endings
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise ValueError(f"--dims must be a comma list of integers, got {text!r}")
    if not dims:
        raise ValueError("--dims must name at least one dimension")
    if max(dims) > MAX_DIM:
        raise ValueError(f"--dims entries must be at most {MAX_DIM}, got {max(dims)}")
    return dims


def _cmd_verify(args: argparse.Namespace) -> int:
    checks = (
        tuple(c.strip() for c in args.checks.split(",") if c.strip())
        if args.checks
        else ALL_CHECKS
    )
    config = TrialConfig(
        dims=_parse_dims(args.dims),
        trials=args.trials,
        base_seed=args.seed,
        tol=args.tol,
        checks=checks,
    )
    report = run_trials(config)
    if args.format == "json":
        _emit(report.to_json() + "\n", args.out)
    else:
        rows = [
            [s.name, s.trials, repr(s.max_residual), len(s.failures),
             "pass" if not s.failures else "fail"]
            for s in report.per_check
        ]
        rows.append([
            "overall",
            sum(s.trials for s in report.per_check),
            repr(max((s.max_residual for s in report.per_check), default=0.0)),
            sum(len(s.failures) for s in report.per_check) + len(report.errors),
            report.verdict,
        ])
        _emit(_csv_text(["check", "trials", "max_residual", "failures", "verdict"], rows),
              args.out)
    return EXIT_PASS if report.verdict == "pass" else EXIT_CHECK_FAILED


def _cmd_poly(args: argparse.Namespace) -> int:
    family = args.family
    n = args.n
    limit = POLY_MAX_N[family]
    low = 0 if family == "F" else 1
    if not low <= n <= limit:
        raise ValueError(f"--n for family {family} must lie in [{low}, {limit}], got {n}")
    if family in ("P", "Q"):
        rec = poly_PQ_recursive(n)[0 if family == "P" else 1]
        closed = poly_PQ_closed(n)[0 if family == "P" else 1]
        match = rec == closed
    elif family == "F":
        rec = poly_F(n)
        match = rec == poly_F_closed(n)
    else:
        pair = poly_AB(n)  # both forms cross-checked internally
        rec = pair[0 if family == "A" else 1]
        match = True
    payload = {
        "family": family,
        "n": n,
        "coefficients": coefficient_strings(rec),
        "recursive_closed_match": match,
    }
    _emit(_json_text(payload), args.out)
    return EXIT_PASS if match else EXIT_CHECK_FAILED


def _cmd_decompose(args: argparse.Namespace) -> int:
    pair = load_pair_json(args.input)
    failures = projection_failures([pair.f, pair.g], args.tol)
    if failures:
        detail = "; ".join(f"{'fg'[position]}: {rep}" for position, rep in failures)
        raise ValueError(f"input matrices fail projection validation ({detail})")
    blocks = halmos_decompose(pair, tol=args.tol)
    r = blocks.D.shape[0]
    norm_fg_sq = pair.norm_fg**2
    norm_d = blocks.norm_D
    payload = {
        "input": str(args.input),
        "dim": pair.dim,
        "rank_f": r,
        "D": matrix_to_pairs(blocks.D),
        "Dprime": matrix_to_pairs(blocks.Dprime),
        "V": matrix_to_pairs(blocks.V),
        "V_shape": [r, pair.dim - r],
        "relation_residuals": blocks.relation_residuals,
        "norm_fg_squared": norm_fg_sq,
        "norm_D": norm_d,
        "norm_identity_residual": abs(norm_fg_sq - norm_d),
    }
    _emit(_json_text(payload), args.out)
    return EXIT_PASS


def _cmd_bounds(args: argparse.Namespace) -> int:
    if args.max_n > BOUNDS_MAX_N:
        raise ValueError(f"--max-n must be at most {BOUNDS_MAX_N}, got {args.max_n}")
    table = bound_sequences(args.a, args.max_n)
    if args.format == "json":
        payload = {
            "a": table.a,
            "limit": table.limit,
            "rows": [
                {"N": row.N, "upper": row.upper, "lower": row.lower,
                 "gap": row.upper - table.limit}
                for row in table.rows
            ],
        }
        _emit(_json_text(payload), args.out)
    else:
        rows = [
            [row.N, repr(row.upper), repr(row.lower), repr(table.limit),
             repr(row.upper - table.limit)]
            for row in table.rows
        ]
        _emit(_csv_text(["N", "upper", "lower", "limit", "gap"], rows), args.out)
    return EXIT_PASS


def _cmd_counterexample(args: argparse.Namespace) -> int:
    if args.dim > MAX_DIM:
        raise ValueError(f"--dim must be at most {MAX_DIM}, got {args.dim}")
    pair, violation = find_commutator_identity_counterexample(
        args.dim, mode=args.mode, budget=args.budget, seed=args.seed
    )
    save_pair_json(pair, args.out)
    payload = {
        "dim": args.dim,
        "mode": args.mode,
        "violation": violation,
        "norm_fg": pair.norm_fg,
        "norm_comm": pair.norm_comm,
        "pair_file": str(args.out),
    }
    sys.stdout.write(_json_text(payload))
    return EXIT_PASS


def _cmd_universal(args: argparse.Namespace) -> int:
    if not 2 <= args.grid_size <= UNIVERSAL_MAX_GRID:
        raise ValueError(
            f"--grid-size must lie in [2, {UNIVERSAL_MAX_GRID}], got {args.grid_size}")
    approx = universal_pair_approx(args.grid_size)
    a = approx.norm_product()
    payload = {
        "grid_size": args.grid_size,
        "cells": len(approx.angles),
        "dim": approx.dim,
        "norm_pq": a,
        "norm_commutator": approx.norm_commutator(),
        "norm_anticommutator": approx.norm_anticommutator(),
        "predicted_anticommutator": a + a * a,
        "theorem_residual": approx.anticommutator_residual(),
    }
    _emit(_json_text(payload), args.out)
    return EXIT_PASS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="projpair",
        description="Numerically verify the projection-pair anticommutator norm "
                    "formula ||fg+gf|| = ||fg|| + ||fg||^2 and its supporting identities.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("verify", help="Run the randomized check campaign.")
    p.add_argument("--dims", default="2,4,8,16", help="Comma list of dimensions.")
    p.add_argument("--trials", type=int, default=200, help="Pairs per dimension.")
    p.add_argument("--seed", type=int, default=0, help="Base seed; trial i uses seed+i.")
    p.add_argument("--tol", type=float, default=1e-8, help="Residual tolerance.")
    p.add_argument("--checks", default="",
                   help=f"Comma list of checks (default all: {','.join(ALL_CHECKS)}).")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="Write the report here instead of stdout.")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("poly", help="Export exact polynomial coefficients.")
    p.add_argument("--family", required=True, choices=tuple(POLY_MAX_N))
    p.add_argument("--n", type=int, required=True, help="Family index.")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_poly)

    p = sub.add_parser("decompose", help="Two-subspace block decomposition of a pair file.")
    p.add_argument("--input", required=True, help="Pair JSON file.")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("bounds", help="Pre-limit upper/lower bound table at a = ||fg||.")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--max-n", type=int, default=50, dest="max_n")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("counterexample",
                       help="Pair of dim >= 4 violating the dim-2 commutator identity.")
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--mode", choices=("deterministic", "random"), default="deterministic")
    p.add_argument("--budget", type=int, default=1000, help="Random-mode sample count.")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="counterexample_pair.json", help="Pair file to write.")
    p.set_defaults(func=_cmd_counterexample)

    p = sub.add_parser("universal", help="Norms of the angle-grid extremal pair approximant.")
    p.add_argument("--grid-size", type=int, required=True, dest="grid_size")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_universal)

    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and reused by every later one."""
    return build_parser()


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, DecompositionError, EigenConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # sizes whose arrays cannot be allocated
        print(f"error: {exc or 'out of memory'}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
