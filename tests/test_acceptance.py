"""Acceptance suite.

Each test pins one acceptance criterion at its stated tolerance and prints a
single pass/fail line; run with `pytest tests/test_acceptance.py -s` to see
the lines as they complete.
"""

import math
import os
import time

from projpair.linalg import spectral_norm
from projpair.polynomials import poly_AB, poly_F, poly_F_closed, poly_PQ_closed, poly_PQ_recursive
from projpair.projections import (
    halmos_decompose,
    random_pair,
    reference_2x2_pair,
    universal_pair_approx,
)
from projpair.verify import (
    TrialConfig,
    bound_sequences,
    check_bound_sandwich,
    check_dim2_commutator_identity,
    find_commutator_identity_counterexample,
    run_trials,
)

REFERENCE_NORM_FG = 0.70710678118654752
REFERENCE_NORM_COMM = 0.5
REFERENCE_NORM_ANTI = 1.20710678118654752

THEOREM_CAMPAIGN = TrialConfig(
    dims=(2, 4, 8, 16, 32, 64),
    trials=200,
    base_seed=0,
    tol=1e-7,
    checks=("theorem",),
)


def _line(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num:02d} {name}: {verdict} ({detail})")
    assert ok, f"criterion {num} {name}: {detail}"


def test_criterion_01_theorem_campaign():
    start = time.perf_counter()
    report = run_trials(THEOREM_CAMPAIGN)
    elapsed = time.perf_counter() - start
    worst = max(s.max_residual for s in report.per_check)
    ok = report.verdict == "pass" and worst <= 1e-7 and elapsed <= 60.0
    _line(1, "theorem campaign", ok,
          f"max residual {worst:.3e}, {elapsed:.1f}s, verdict {report.verdict}")


def test_criterion_02_reference_fixture():
    pair = reference_2x2_pair()
    fg = pair.f @ pair.g
    gf = pair.g @ pair.f
    norms = {
        "norm_fg": (spectral_norm(fg), REFERENCE_NORM_FG),
        "norm_comm": (spectral_norm(fg - gf), REFERENCE_NORM_COMM),
        "norm_anti": (spectral_norm(fg + gf), REFERENCE_NORM_ANTI),
    }
    worst = max(abs(got - want) for got, want in norms.values())
    _line(2, "reference 2x2 fixture", worst <= 1e-12, f"max deviation {worst:.3e}")


def test_criterion_03_polynomial_exactness():
    start = time.perf_counter()
    ok = True
    for n in range(1, 201):
        ok = ok and poly_PQ_recursive(n) == poly_PQ_closed(n)
    for n in range(201):
        ok = ok and poly_F(n) == poly_F_closed(n)
    for N in range(1, 101):
        poly_AB(N)  # raises if the sum and closed forms diverge
    elapsed = time.perf_counter() - start
    ok = ok and elapsed <= 10.0
    _line(3, "polynomial exactness", ok, f"n<=200, N<=100 exact, {elapsed:.1f}s")


def test_criterion_04_power_expansion_and_nw_block():
    config = TrialConfig(
        dims=(2, 4, 8, 16),
        trials=25,
        base_seed=0,
        tol=1e-9,
        checks=("power_expansion", "nw_block"),
        n_max=8,
    )
    report = run_trials(config)
    worst = max(s.max_residual for s in report.per_check)
    ok = report.verdict == "pass" and worst <= 1e-9
    _line(4, "power expansion + NW block", ok,
          f"100 pairs, max scaled residual {worst:.3e}")


def test_criterion_05_lemma_suites():
    config = TrialConfig(
        dims=(2, 4, 8, 16),
        trials=250,
        base_seed=0,
        tol=1e-9,
        checks=("lemma_product_power", "lemma_commutator"),
        m_max=8,
    )
    report = run_trials(config)
    failures = sum(len(s.failures) for s in report.per_check) + len(report.errors)
    worst = max(s.max_residual for s in report.per_check)
    ok = failures == 0
    _line(5, "product-power + commutator lemmas", ok,
          f"1000 pairs, {failures} violations, max residual {worst:.3e}")


def test_criterion_06_halmos_decomposition():
    worst = 0.0
    count = 0
    for dim in (2, 4, 8, 16, 32):
        for _ in range(100):
            pair = random_pair(dim, 60_000 + count)
            blocks = halmos_decompose(pair, tol=1e-9)
            residuals = blocks.relation_residuals
            norm_gap = abs(
                spectral_norm(pair.f @ pair.g) ** 2 - spectral_norm(blocks.D)
            )
            worst = max(worst, norm_gap, *residuals.values())
            count += 1
    ok = count == 500 and worst <= 1e-9
    _line(6, "block decomposition", ok, f"500 pairs, max residual {worst:.3e}")


def test_criterion_07_bound_sandwich():
    worst = 0.0
    count = 0
    for dim in (2, 4, 8, 16):
        for _ in range(25):
            pair = random_pair(dim, 70_000 + count)
            report = check_bound_sandwich(pair, N_max=50)
            assert report.passed, (dim, count, report.residual)
            worst = max(worst, report.residual)
            count += 1
    gaps = []
    for a in (0.1, 0.5, 1 / math.sqrt(2), 0.9):
        table = bound_sequences(a, 500)
        gaps.append(abs(table.rows[-1].upper - table.limit))
    ok = count == 100 and max(gaps) <= 1e-2
    _line(7, "bound sandwich", ok,
          f"100 pairs sandwiched (worst slack {worst:.3e}), "
          f"max upper_500 gap {max(gaps):.3e}")


def test_criterion_08_dim2_identity_and_counterexample():
    worst = 0.0
    for seed in range(1000):
        report = check_dim2_commutator_identity(random_pair(2, seed), tol=1e-10)
        assert report.passed, (seed, report.residual)
        worst = max(worst, report.residual)
    pair, violation = find_commutator_identity_counterexample(4)
    ok = (
        worst <= 1e-10
        and violation >= 0.2
        and abs(violation - 0.25) <= 1e-10
        and pair.dim == 4
    )
    _line(8, "dim-2 identity dichotomy", ok,
          f"1000 pairs max residual {worst:.3e}, dim-4 violation {violation!r}")


def test_criterion_09_universal_approximant():
    approx = universal_pair_approx(999)
    norm_pq = approx.norm_product()
    norm_comm = approx.norm_commutator()
    residual = approx.anticommutator_residual()
    ok = (
        norm_pq >= 1 - 1e-5
        and abs(norm_comm - 0.5) <= 1e-5
        and residual <= 1e-10
    )
    _line(9, "universal-pair approximant", ok,
          f"K=999: ||pq||={norm_pq:.7f}, ||pq-qp||={norm_comm:.7f}, "
          f"theorem residual {residual:.3e}")


def test_criterion_10_determinism():
    baseline = run_trials(THEOREM_CAMPAIGN).to_json()
    repeat = run_trials(THEOREM_CAMPAIGN).to_json()
    saved = os.environ.get("PROJPAIR_THREADS")
    os.environ["PROJPAIR_THREADS"] = "4"
    try:
        threaded = run_trials(THEOREM_CAMPAIGN).to_json()
    finally:
        if saved is None:
            os.environ.pop("PROJPAIR_THREADS", None)
        else:
            os.environ["PROJPAIR_THREADS"] = saved
    ok = baseline == repeat == threaded
    _line(10, "byte-identical aggregates", ok,
          f"3 runs (serial x2, 4 threads), {len(baseline)} bytes each")
