"""Span tracer for the traced run, and the per-layer metrics its spans give.

The tracer records spans from outside the package: while a traced job runs,
each layer function is replaced, at the name its caller looks up (for
example `projpair.verify.spectral_norm` or `projpair.verify.check_nw_block`),
by a wrapper that records a span. The campaign driver's `CHECKS` lambdas
resolve those module globals at call time, so they see the wrappers too.
Nothing in the package is edited. The run is single-threaded
(`PROJPAIR_THREADS` unset), so one stack gives every span its parent.

A span is `[name, start, end, parent, job]`: `parent` is the index of the
enclosing span, -1 at top level.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from time import perf_counter

import numpy as np

from projpair import cli, projections, verify

CLOSED_FORMS = ("polynomials.poly_PQ_closed", "polynomials.poly_F_closed", "polynomials.poly_AB")
POLY_FAMILIES = ("polynomials.poly_PQ_recursive", "polynomials.poly_F") + CLOSED_FORMS
PAIR_IO = ("projections.pair_io.load", "projections.pair_io.save")
UNIVERSAL = "projections.universal_pair_approx"
UNIVERSAL_METHODS = ("norm_product", "norm_commutator", "norm_anticommutator",
                     "anticommutator_residual")


def _targets():
    """(owner, attribute, span name) for every call site the tracer wraps."""
    polys = {
        "poly_PQ_recursive": (verify, cli), "poly_F": (verify, cli),
        "poly_eval_real": (verify,), "poly_PQ_closed": (cli,), "poly_F_closed": (cli,),
        "poly_AB": (cli,),
    }
    targets = [(mod, "spectral_norm", "linalg.spectral_norm") for mod in (verify, projections, cli)]
    targets += [
        (verify, "mat_poly_eval", "linalg.mat_poly_eval"),
        (projections, "hermitian_eigen", "linalg.hermitian_eigen"),
        (verify, "random_pair", "projections.random_pair"),
        (verify, "validate_projection", "projections.validate_projection"),
        (cli, "validate_projection", "projections.validate_projection"),
        (verify, "halmos_decompose", "projections.halmos_decompose"),
        (cli, "halmos_decompose", "projections.halmos_decompose"),
        (cli, "universal_pair_approx", UNIVERSAL),
        (cli, "load_pair_json", "projections.pair_io.load"),
        (cli, "save_pair_json", "projections.pair_io.save"),
        (verify, "_run_one_trial", "verify.trial"),
        (verify, "run_trials", "verify.run_trials"),
        (cli, "bound_sequences", "verify.bound_sequences"),
        (cli, "find_commutator_identity_counterexample", "verify.counterexample_search"),
        (cli, "main", "cli.main"),
    ]
    targets += [(mod, fn, f"polynomials.{fn}") for fn, mods in polys.items() for mod in mods]
    targets += [(verify, f"check_{c}", f"verify.check.{c}") for c in verify.ALL_CHECKS]
    targets += [(projections.UniversalPairApprox, m, f"{UNIVERSAL}.{m}")
                for m in UNIVERSAL_METHODS]
    return targets


# Computed flop counts, from argument shapes (complex128: 8 real flops per
# complex multiply-add). spectral_norm: Gram A*A (8 m n^2) plus eigvalsh's
# tridiagonal reduction (16/3 n^3). mat_poly_eval: one n x n product per
# coefficient (8 n^3 each). hermitian_eigen: eigh with eigenvectors, taken as
# reduction plus back-transformation (16/3 n^3 + 8 n^3).
def _flops_spectral_norm(A) -> float:
    m, n = np.shape(A)
    return 8.0 * m * n * n + 16.0 / 3.0 * n**3


def _flops_mat_poly_eval(p, A) -> float:
    n = np.shape(A)[0]
    return 8.0 * n**3 * len(getattr(p, "coefficients", p))


def _flops_hermitian_eigen(A) -> float:
    n = np.shape(A)[0]
    return (16.0 / 3.0 + 8.0) * n**3


class Tracer:
    """Records spans and counts at layer boundaries while installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts = Counter()
        self.job = -1
        self._stack = [-1]
        self._seen_args: set = set()  # spectral_norm arguments seen for this pair
        self._seen_polys: set = set()  # (family, n) requested so far
        self._saved = []
        self._hooks = {
            "linalg.spectral_norm": self._on_spectral_norm,
            "linalg.mat_poly_eval": lambda args: self._add_flops(_flops_mat_poly_eval(*args[:2])),
            "linalg.hermitian_eigen": lambda args: self._add_flops(_flops_hermitian_eigen(args[0])),
            "verify.trial": lambda args: self._seen_args.clear(),
            "projections.pair_io.load": lambda args: self._add_bytes(args[0]),
            **{name: (lambda args, name=name: self._on_poly(name, args[0]))
               for name in POLY_FAMILIES},
        }

    def begin_job(self, job: int) -> None:
        self.job = job
        self._seen_args.clear()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name in _targets():
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        hook = self._hooks.get(name)
        after = self._add_bytes if name == "projections.pair_io.save" else None

        def wrapper(*args, **kwargs):
            if hook is not None:
                hook(args)
            span = [name, 0.0, 0.0, stack[-1], self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args[1])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _add_flops(self, flops: float) -> None:
        self.counts["linalg.flops"] += flops

    def _add_bytes(self, path) -> None:
        self.counts["projections.pair_io.bytes"] += os.path.getsize(path)

    def _on_spectral_norm(self, args) -> None:
        A = np.ascontiguousarray(args[0])
        key = (A.shape, A.dtype.str, hashlib.blake2b(A.tobytes(), digest_size=16).digest())
        if key not in self._seen_args:
            self._seen_args.add(key)
            self.counts["linalg.spectral_norm.distinct"] += 1
        self._add_flops(_flops_spectral_norm(A))

    def _on_poly(self, name: str, n) -> None:
        self.counts["polynomials.requests"] += 1
        if (name, n) not in self._seen_polys:
            self._seen_polys.add((name, n))
            self.counts["polynomials.distinct"] += 1

    def write_jsonl(self, path) -> None:
        with open(path, "w") as out:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                out.write(json.dumps({"id": i, "name": name, "start": start, "end": end,
                                      "parent": parent, "job": job}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct child spans cover.

    Children of one span never overlap (one thread), so their durations add.
    """
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, counts, jobs: int, cli_bytes: int) -> dict[str, float]:
    """Per-layer metrics (name -> value) from the spans of `jobs` traced jobs.

    Per-pair figures divide by the campaign trials traced; they are 0 on a
    workload without campaign trials, as are shares with no calls behind them.
    """
    total = Counter()
    calls = Counter()
    self_total = Counter()
    universal = 0.0  # the approximant's methods nest: count outermost spans only
    for (name, start, end, parent, _), mine in zip(spans, self_times(spans)):
        total[name] += end - start
        calls[name] += 1
        self_total[name] += mine
        if name.startswith(UNIVERSAL) and not (parent >= 0 and spans[parent][0].startswith(UNIVERSAL)):
            universal += end - start
    pairs = calls["verify.trial"]

    def per_job(x):
        return _ratio(x, jobs)

    def ms_per_job(seconds):
        return per_job(seconds) * 1e3

    metrics = {
        "linalg.spectral_norm.calls_per_job": per_job(calls["linalg.spectral_norm"]),
        "linalg.spectral_norm.ms_per_job": ms_per_job(total["linalg.spectral_norm"]),
        "linalg.spectral_norm.distinct_share": _ratio(counts["linalg.spectral_norm.distinct"],
                                                      calls["linalg.spectral_norm"]),
        "linalg.mat_poly_eval.calls_per_job": per_job(calls["linalg.mat_poly_eval"]),
        "linalg.mat_poly_eval.ms_per_job": ms_per_job(total["linalg.mat_poly_eval"]),
        "linalg.hermitian_eigen.ms_per_job": ms_per_job(total["linalg.hermitian_eigen"]),
        "linalg.computed_gflop_per_job": per_job(counts["linalg.flops"]) / 1e9,
        "polynomials.poly_PQ_recursive.calls_per_job": per_job(calls["polynomials.poly_PQ_recursive"]),
        "polynomials.poly_PQ_recursive.ms_per_job": ms_per_job(total["polynomials.poly_PQ_recursive"]),
        "polynomials.poly_F.calls_per_job": per_job(calls["polynomials.poly_F"]),
        "polynomials.poly_F.ms_per_job": ms_per_job(total["polynomials.poly_F"]),
        "polynomials.distinct_share": _ratio(counts["polynomials.distinct"],
                                             counts["polynomials.requests"]),
        "polynomials.poly_eval_real.calls_per_job": per_job(calls["polynomials.poly_eval_real"]),
        "polynomials.poly_eval_real.ms_per_job": ms_per_job(total["polynomials.poly_eval_real"]),
        "polynomials.closed_forms.ms_per_job": ms_per_job(sum(total[n] for n in CLOSED_FORMS)),
        "projections.random_pair.ms_per_pair": _ratio(total["projections.random_pair"], pairs) * 1e3,
        "projections.validate_projection.ms_per_pair":
            _ratio(total["projections.validate_projection"], pairs) * 1e3,
        "projections.halmos_decompose.calls_per_job": per_job(calls["projections.halmos_decompose"]),
        "projections.halmos_decompose.ms_per_job": ms_per_job(total["projections.halmos_decompose"]),
        "projections.universal_pair_approx.ms_per_job": ms_per_job(universal),
        "projections.pair_io.ms_per_job": ms_per_job(sum(total[n] for n in PAIR_IO)),
        "projections.pair_io.bytes_per_job": per_job(counts["projections.pair_io.bytes"]),
        "verify.run_trials.driver_ms_per_job": ms_per_job(self_total["verify.run_trials"]),
        "verify.bound_sequences.ms_per_job": ms_per_job(total["verify.bound_sequences"]),
        "verify.counterexample_search.ms_per_job": ms_per_job(total["verify.counterexample_search"]),
        "cli.main.ms_per_job": ms_per_job(total["cli.main"]),
        "cli.output.bytes_per_job": per_job(cli_bytes),
    }
    for check in verify.ALL_CHECKS:
        name = f"verify.check.{check}"
        metrics[f"{name}.ms_per_pair"] = _ratio(total[name], pairs) * 1e3
        metrics[f"{name}.self_ms_per_pair"] = _ratio(self_total[name], pairs) * 1e3
    return metrics

