import importlib.util
import json
import math
import sys
import threading
import weakref
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import projpair.projections as projections
import projpair.verify as verify
from projpair.linalg import mat_poly_evals, spectral_norm, spectral_norms
from projpair.projections import (
    AngleSpec,
    DecompositionError,
    ProjectionPair,
    Provenance,
    pair_from_angles,
    random_pair,
    reference_2x2_pair,
)
from projpair.verify import (
    TrialConfig,
    bound_sequences,
    check_bound_sandwich,
    check_corollary,
    check_dim2_commutator_identity,
    check_lemma_commutator,
    check_lemma_product_power,
    check_nw_block,
    check_power_expansion,
    check_theorem,
    find_commutator_identity_counterexample,
    run_trials,
)

EQUAL_PAIR = pair_from_angles(AngleSpec((0.0,)))
ORTHOGONAL_PAIR = pair_from_angles(AngleSpec((math.pi / 2,)))
QUARTER_PAIR = pair_from_angles(AngleSpec((math.pi / 4,)))
REFERENCE = reference_2x2_pair()


# --- theorem ------------------------------------------------------------------


def test_theorem_equal_projections():
    report = check_theorem(EQUAL_PAIR)
    assert report.quantities["norm_anti"] == pytest.approx(2.0, abs=1e-14)
    assert report.quantities["predicted"] == pytest.approx(2.0, abs=1e-14)
    assert report.residual <= 1e-14
    assert report.passed


def test_theorem_orthogonal_projections():
    report = check_theorem(ORTHOGONAL_PAIR)
    assert report.quantities["norm_anti"] <= 1e-15
    assert report.residual <= 1e-14


def test_theorem_reference_pair():
    report = check_theorem(REFERENCE, tol=1e-12)
    assert report.quantities["norm_anti"] == pytest.approx(1.2071067811865475, abs=1e-13)
    assert report.residual <= 1e-12
    assert report.passed


def test_theorem_random_pairs():
    for seed in range(100):
        report = check_theorem(random_pair(16, seed), tol=1e-9)
        assert report.passed, (seed, report.residual)


@settings(max_examples=50, deadline=None)
@given(
    angles=st.lists(
        st.floats(min_value=0.0, max_value=math.pi / 2, allow_nan=False),
        min_size=1,
        max_size=6,
    )
)
def test_theorem_and_corollary_on_arbitrary_angle_sums(angles):
    pair = pair_from_angles(AngleSpec(tuple(angles)))
    assert check_theorem(pair, tol=1e-10).passed
    assert check_corollary(pair, tol=1e-10).passed


# --- corollary -----------------------------------------------------------------


def test_corollary_equal_projections():
    report = check_corollary(EQUAL_PAIR)
    assert report.quantities["norm_comm"] <= 1e-15
    assert report.quantities["lower"] == pytest.approx(0.0, abs=1e-14)
    assert report.passed


def test_corollary_quarter_pair_values():
    report = check_corollary(QUARTER_PAIR, tol=1e-12)
    assert report.quantities["lower"] == pytest.approx(math.sqrt(2) / 2 - 0.5, abs=1e-12)
    assert report.quantities["norm_comm"] == pytest.approx(0.5, abs=1e-12)
    assert report.quantities["upper"] == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
    assert report.passed


def test_corollary_random_pairs():
    for seed in range(1000):
        report = check_corollary(random_pair(16, seed), tol=1e-9)
        assert report.passed, (seed, report.residual)


# --- product power lemma -----------------------------------------------------------


def test_lemma_product_power_m_one_is_equality():
    report = check_lemma_product_power(REFERENCE, m_max=1, tol=1e-12)
    assert report.passed


@pytest.mark.parametrize("theta", [0.3, 0.8, 1.2])
def test_lemma_product_power_angle_cell_saturates(theta):
    # on one angle cell (fg)^m has norm exactly cos(theta)^(2m-1)
    pair = pair_from_angles(AngleSpec((theta,)))
    fg = pair.f @ pair.g
    power = fg
    for m in range(1, 7):
        if m > 1:
            power = power @ fg
        assert spectral_norm(power) == pytest.approx(
            math.cos(theta) ** (2 * m - 1), abs=1e-12
        )
    report = check_lemma_product_power(pair, m_max=6, tol=1e-10)
    assert report.passed


def test_lemma_product_power_random_pairs():
    for seed in range(100):
        report = check_lemma_product_power(random_pair(8, seed), m_max=6, tol=1e-9)
        assert report.passed, (seed, report.residual)


def test_lemma_product_power_rejects_bad_m():
    with pytest.raises(ValueError):
        check_lemma_product_power(REFERENCE, m_max=0)


# --- commutator lemma -----------------------------------------------------------------


def test_lemma_commutator_equal_projections():
    report = check_lemma_commutator(EQUAL_PAIR, tol=1e-12)
    assert report.quantities["norm_comm"] <= 1e-15
    assert report.passed


def test_lemma_commutator_reference_values():
    report = check_lemma_commutator(REFERENCE, tol=1e-12)
    assert report.quantities["norm_comm"] == pytest.approx(0.5, abs=1e-13)
    assert report.quantities["norm_u"] == pytest.approx(0.5, abs=1e-13)
    assert report.passed


def test_lemma_commutator_random_pairs():
    for seed in range(100):
        report = check_lemma_commutator(random_pair(12, seed), tol=1e-9)
        assert report.passed, (seed, report.residual)


# --- power expansion ---------------------------------------------------------------------


def test_power_expansion_n_one_is_identity():
    report = check_power_expansion(REFERENCE, n_max=1, tol=1e-15)
    assert report.passed


def test_power_expansion_reference_n2_brute_force():
    # oracle: with P2 = x^2 and Q2 = x the claim at n=2 reads
    # (fg+gf)^2 = (fg)^2 + (gf)^2 + fgf + gfg; build both sides directly
    f, g = REFERENCE.f, REFERENCE.g
    fg, gf = f @ g, g @ f
    anti = fg + gf
    lhs = anti @ anti
    rhs = fg @ fg + gf @ gf + fg @ f + gf @ g
    assert spectral_norm(lhs - rhs) <= 1e-12
    report = check_power_expansion(REFERENCE, n_max=2, tol=1e-12)
    assert report.passed


def test_power_expansion_random_pairs():
    for seed in range(50):
        report = check_power_expansion(random_pair(16, seed), n_max=8, tol=1e-9)
        assert report.passed, (seed, report.residual)


# --- northwest block ------------------------------------------------------------------------


def test_nw_block_n1_is_2d():
    report = check_nw_block(QUARTER_PAIR, n_max=1, tol=1e-12)
    assert report.passed


def test_nw_block_quarter_pair_n2_value():
    # direct squaring oracle: anti = [[1, 1/2], [1/2, 0]] in the cell basis,
    # so the NW entry of anti^2 is 1*1 + 1/4 = 1.25 = F_2(cos^2(pi/4))
    f, g = QUARTER_PAIR.f, QUARTER_PAIR.g
    anti = f @ g + g @ f
    nw_entry = (anti @ anti)[0, 0].real
    assert nw_entry == pytest.approx(1.25, abs=1e-14)
    from projpair.polynomials import poly_eval_real, poly_F

    assert poly_eval_real(poly_F(2), 0.5) == pytest.approx(1.25, abs=0)
    report = check_nw_block(QUARTER_PAIR, n_max=2, tol=1e-12)
    assert report.passed


def test_nw_block_random_pairs():
    for seed in range(50):
        report = check_nw_block(random_pair(12, seed), n_max=6, tol=1e-9)
        assert report.passed, (seed, report.residual)


def test_every_F_n_is_non_decreasing_on_the_unit_interval():
    # F_n has no negative coefficient for every n the CLI can print, so
    # nw_block's monotonicity term is 0
    assert [n for n in range(201) if verify._block_terms(n)[1] != 0] == []


# --- bound sequences --------------------------------------------------------------------------


def test_bounds_zero_product_norm():
    table = bound_sequences(0.0, 5)
    assert table.limit == 0.0
    assert all(row.upper == 0.0 and row.lower == 0.0 for row in table.rows)


def test_bounds_full_product_norm():
    table = bound_sequences(1.0, 5)
    assert table.limit == 2.0
    for row in table.rows:
        assert row.upper == pytest.approx(2.0, abs=1e-12)
        assert row.lower == pytest.approx(2.0, abs=1e-12)


def test_bounds_reference_value_n1():
    # hand arithmetic: sqrt(2) * (1/sqrt2) * (1 + 1/sqrt2)^(1/2) = sqrt(1 + 1/sqrt2)
    table = bound_sequences(1 / math.sqrt(2), 1)
    assert table.rows[0].upper == pytest.approx(math.sqrt(1 + 2**-0.5), abs=1e-12)
    assert table.rows[0].upper > table.limit
    # lower_1 = (a/2)(1+a)^2 (1 - c^2) collapses to 2a^2 = 1 here
    assert table.rows[0].lower == pytest.approx(1.0, abs=1e-12)


def test_bounds_upper_monotone_and_convergent():
    for a in (0.1, 0.5, 0.9):
        table = bound_sequences(a, 500)
        uppers = [row.upper for row in table.rows]
        assert all(x >= y - 1e-12 for x, y in zip(uppers, uppers[1:]))
        assert abs(uppers[-1] - table.limit) <= 1e-2
        assert all(row.upper >= table.limit - 1e-12 for row in table.rows)
        assert all(row.lower <= table.limit + 1e-12 for row in table.rows)


def test_bounds_rejects_bad_a():
    with pytest.raises(ValueError):
        bound_sequences(-0.1, 5)
    with pytest.raises(ValueError):
        bound_sequences(1.1, 5)


@settings(max_examples=100, deadline=None)
@given(a=st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_bounds_straddle_limit_for_any_a(a):
    table = bound_sequences(a, 30)
    for row in table.rows:
        assert row.upper >= table.limit - 1e-12
        assert row.lower <= table.limit + 1e-12


def test_bound_sandwich_random_pairs():
    for seed in range(50):
        report = check_bound_sandwich(random_pair(8, seed), N_max=50)
        assert report.passed, (seed, report.residual)


def test_bound_sandwich_equal_projections():
    # the degenerate case ||fg|| = 1 where all three quantities collapse to 2
    report = check_bound_sandwich(EQUAL_PAIR, N_max=50)
    assert report.passed


# --- dim-2 commutator identity ----------------------------------------------------------------


def test_dim2_identity_reference_pair():
    # 1/4 = (1/2)(1 - 1/2) from the known norms
    report = check_dim2_commutator_identity(REFERENCE, tol=1e-12)
    assert report.quantities["norm_comm"] == pytest.approx(0.5, abs=1e-13)
    assert report.passed


def test_dim2_identity_equal_projections():
    report = check_dim2_commutator_identity(EQUAL_PAIR, tol=1e-12)
    assert report.passed


def test_dim2_identity_random_pairs():
    for seed in range(200):
        report = check_dim2_commutator_identity(random_pair(2, seed), tol=1e-10)
        assert report.passed, (seed, report.residual)


def test_dim2_identity_rejects_other_dims():
    with pytest.raises(ValueError):
        check_dim2_commutator_identity(random_pair(4, 0))


def test_dim2_identity_fails_at_dim_3():
    # f onto span(e1, e2) and g onto span(e1, cos .9 e2 + sin .9 e3): the
    # shared e1 drives ||fg|| to 1, while the cell at angle .9 keeps
    # ||fg - gf|| at cos .9 sin .9, so the identity's two sides differ by
    # (sin(1.8) / 2)^2 = 0.2371
    v = np.array([0.0, math.cos(0.9), math.sin(0.9)])
    f = np.diag([1.0, 1.0, 0.0]).astype(complex)
    g = (np.outer([1.0, 0.0, 0.0], [1.0, 0.0, 0.0]) + np.outer(v, v)).astype(complex)
    pair = ProjectionPair(f, g, 3, Provenance("file"))
    assert pair.norm_fg == pytest.approx(1.0, abs=1e-14)
    violation = verify._identity_violation(pair.norm_fg, pair.norm_comm)
    assert violation == pytest.approx((math.sin(1.8) / 2) ** 2, abs=1e-14)
    assert round(violation, 4) == 0.2371
    with pytest.raises(ValueError, match="dim 2 only"):
        check_dim2_commutator_identity(pair)


# --- counterexample construction ----------------------------------------------------------------


def test_counterexample_dim4_deterministic():
    pair, violation = find_commutator_identity_counterexample(4)
    assert violation == pytest.approx(0.25, abs=1e-10)
    fg = pair.f @ pair.g
    gf = pair.g @ pair.f
    assert spectral_norm(fg) == pytest.approx(1.0, abs=1e-12)
    assert spectral_norm(fg - gf) == pytest.approx(0.5, abs=1e-12)


def test_counterexample_dim8_deterministic():
    _, violation = find_commutator_identity_counterexample(8)
    assert violation == pytest.approx(0.25, abs=1e-10)


def test_counterexample_random_mode_finds_violation():
    pair, violation = find_commutator_identity_counterexample(
        4, mode="random", budget=1000, seed=3
    )
    assert pair.dim == 4
    assert violation > 0.0


def test_counterexample_rejects_bad_dims_and_mode():
    with pytest.raises(ValueError):
        find_commutator_identity_counterexample(2)
    with pytest.raises(ValueError):
        find_commutator_identity_counterexample(5)
    with pytest.raises(ValueError):
        find_commutator_identity_counterexample(4, mode="exhaustive")
    with pytest.raises(ValueError, match="budget"):
        find_commutator_identity_counterexample(4, budget=0)
    for mode in ("deterministic", "random"):
        with pytest.raises(ValueError, match="seed must be >= 0, got -5"):
            find_commutator_identity_counterexample(4, mode=mode, seed=-5)


# --- campaign driver ------------------------------------------------------------------------------


def test_run_trials_empty_campaign_passes():
    report = run_trials(TrialConfig(dims=(2,), trials=0))
    assert report.verdict == "pass"
    assert all(s.trials == 0 and not s.failures for s in report.per_check)


def test_run_trials_small_campaign():
    config = TrialConfig(dims=(2, 4), trials=10, base_seed=5, tol=1e-8)
    report = run_trials(config)
    assert report.verdict == "pass"
    assert all(s.trials == 20 for s in report.per_check)
    assert all(s.max_residual <= 1e-10 for s in report.per_check)
    assert not report.errors


def test_run_trials_thousand_dim2_campaign():
    report = run_trials(TrialConfig(dims=(2,), trials=1000, base_seed=0, tol=1e-8))
    assert report.verdict == "pass"
    assert not report.errors
    assert all(s.trials == 1000 and not s.failures for s in report.per_check)


def test_run_trials_deterministic_aggregate():
    config = TrialConfig(dims=(2, 4), trials=8, base_seed=1)
    first = run_trials(config).to_json()
    second = run_trials(config).to_json()
    assert first == second


def test_run_trials_measures_each_pair_norm_once(monkeypatch, in_caller):
    measured = []

    def recording(A):
        measured.append(np.array(A, copy=True))
        return spectral_norm(A)

    def recording_each(mats):
        measured.extend(np.array(A, copy=True) for A in mats)
        return spectral_norms(mats)

    for module in (verify, projections):
        monkeypatch.setattr(module, "spectral_norm", recording)
        monkeypatch.setattr(module, "spectral_norms", recording_each)
    for trials in (1, 3):  # a pair alone, and a chunk of pairs
        measured.clear()
        report = run_trials(TrialConfig(dims=(4,), trials=trials, base_seed=3))
        assert report.verdict == "pass"
        for seed in range(3, 3 + trials):
            pair = random_pair(4, seed)
            fg, gf = pair.f @ pair.g, pair.g @ pair.f
            for name, product in (("fg", fg), ("fg+gf", fg + gf), ("fg-gf", fg - gf)):
                count = sum(A.shape == product.shape and np.array_equal(A, product)
                            for A in measured)
                assert count == 1, f"seed {seed}: ||{name}|| measured {count} times"


def test_run_trials_evaluates_each_matrix_polynomial_once(monkeypatch, in_caller):
    evaluated = Counter()

    def recording(polys, mats):
        for p, A in zip(polys, mats, strict=True):
            key = (tuple(getattr(p, "coefficients", p)), np.shape(A),
                   np.ascontiguousarray(A).tobytes())
            evaluated[key] += 1
        return mat_poly_evals(polys, mats)

    monkeypatch.setattr(verify, "mat_poly_evals", recording)
    report = run_trials(TrialConfig(dims=(6,), trials=1, base_seed=0))
    assert report.verdict == "pass"
    # power_expansion: 4 per degree; nw_block: F_0 .. F_8
    assert evaluated.total() == 4 * 8 + 9
    repeats = sum(count - 1 for count in evaluated.values())
    assert repeats == 0, f"{repeats} of {evaluated.total()} evaluations repeat an earlier one"


def test_run_trials_solves_few_eigenproblems_per_small_trial(eigvalsh_calls):
    # Each check stacks its matrices of every degree, so a dim-4 trial makes
    # one Hermitian eigensolve per stack: 3 for its norms, 1 in
    # lemma_product_power (the Grams of fgf and of the powers, one run), 1
    # in lemma_commutator for ||u|| and 1 in halmos_decompose, for ||D||:
    # the Frobenius bound certifies its three relation gaps. Validation
    # makes none: the same bound certifies both constructed members. The
    # gap norms make 3 more: the Gram bounds leave lemma_product_power none
    # to measure, and lemma_commutator, power_expansion and nw_block one
    # each, their gap of largest bound. A chunk of pairs shares its stacks
    # across its pairs: 3 norms per pair, 2 for the other checks, 1 in
    # halmos_decompositions for each rank of f among its pairs (seeds 0-3
    # have ranks 3 and 2), and 3 for gaps, so 19.
    for trials, solves in ((1, 9), (4, 19)):
        eigvalsh_calls.clear()
        report = run_trials(TrialConfig(dims=(4,), trials=trials, base_seed=0))
        assert report.verdict == "pass"
        assert len(eigvalsh_calls) == solves, eigvalsh_calls


def test_large_campaign_solves_few_gap_norms(eigvalsh_calls):
    # One dim-64 and one dim-96 trial, each a chunk of one pair: 13
    # eigensolves per trial for norms that are not pure gaps, and 5 for
    # gaps, all in the dim-64 trial: each check's floor is its campaign
    # maximum, and the dim-64 maxima cover every gap of the dim-96 trial.
    # Each trial's 13 are its three pair norms, lemma_product_power's eight
    # norms (||fgf|| and (fg)^2..(fg)^8, one matrix per stack at these
    # dims), ||u|| in lemma_commutator and ||D|| in halmos_decompose, the
    # Frobenius bound certifying its relation gaps. Eigensolving
    # lemma_product_power's eight Grams as one (8, dim, dim) run took 14
    # fewer (17 in all); measuring the relation gaps took 5 more (36),
    # measuring every gap 66 more (97), and floors kept per dim 10 more (41)
    report = run_trials(TrialConfig(dims=(64, 96), trials=1, base_seed=0))
    assert report.verdict == "pass"
    assert len(eigvalsh_calls) == 31


def exact_checks(monkeypatch):
    """Make every campaign check run with no floor, measuring every gap."""
    for name, check in list(verify.CHECKS.items()):
        monkeypatch.setitem(verify.CHECKS, name,
                            lambda pairs, cfg, floor, check=check: check(pairs, cfg, None))


def load_tool(name: str):
    """The module of tools/<name>.py."""
    path = Path(__file__).resolve().parents[1] / "tools" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# The campaigns of tools/contract_digests.py, by label; theorem and corollary
# measure no gaps, so campaigns of only them are left out
GAP_CAMPAIGNS = {label: config for label, config in load_tool("contract_digests").CAMPAIGNS
                 if set(config.checks) - {"theorem", "corollary"}}


def test_call_counts_tool_counts_every_name(eigvalsh_calls):
    # tools/call_counts.py wraps each name it counts where its callers look
    # it up, so a name renamed, or no longer called there, fails here: a
    # dim-8 job at seed 0 calls every one of them
    counts = load_tool("call_counts").call_counts({"dims": (8,), "trials": 2}, range(1))
    assert all(counts.values()), counts
    assert counts["np.linalg.eigvalsh"] == len(eigvalsh_calls)


@pytest.mark.parametrize("label", list(GAP_CAMPAIGNS))
def test_campaign_floors_keep_the_report_bytes(label, monkeypatch):
    config = GAP_CAMPAIGNS[label]
    certified = run_trials(config).to_json()
    exact_checks(monkeypatch)
    assert run_trials(config).to_json() == certified


# (16, 4, 16, 2): floors carry from a larger dim into smaller ones and into
# a repeated dim
@pytest.mark.parametrize("dims, trials", [((64,), 6), ((2, 4, 8, 16), 25), ((24,), 15),
                                          ((16, 4, 16, 2), 10)])
def test_failing_campaign_floors_keep_the_report_bytes(dims, trials, monkeypatch):
    # at a tol below most residuals' rounding, many trials fail, and each
    # failing index, not only each check's maximum, must be the exact one
    config = TrialConfig(dims=dims, trials=trials, tol=1e-15)
    certified = run_trials(config)
    assert sum(len(s.failures) for s in certified.per_check) >= trials
    exact_checks(monkeypatch)
    assert run_trials(config).to_json() == certified.to_json()


def test_gaps_measure_only_terms_the_limit_does_not_cover(eigvalsh_calls, monkeypatch):
    # Bounds (Frobenius, then Gram moment) and norms of three pure gap terms:
    #   a = 1e-12 I_16:  2.02e-12,            norm 1e-12
    #   c = 3e-13 I_256: 1.21e-12, 6.06e-13,  norm 3e-13
    #   b = 2e-13 I_3:   2.66e-13,            norm 2e-13
    # With floor 0, a has the largest bound and is measured outright, raising
    # the limit to 1e-12; c's Frobenius bound exceeds that but its moment
    # bound does not, and b's Frobenius bound ends the pass. With no floor
    # each is measured when its run is certified: c, which fills a stack
    # alone, as it arrives, then a and b, pending in runs of their own
    # shapes, in finish().
    a, c, b = (x * np.eye(n, dtype=np.complex128) for x, n in ((1e-12, 16), (3e-13, 256),
                                                                 (2e-13, 3)))
    moments = []
    real = verify.gram_moment_bounds

    def spy(gram):
        moments.append(gram.shape)
        return real(gram)

    monkeypatch.setattr(verify, "gram_moment_bounds", spy)
    for floor, norms, solved, bounded in (
            (0.0, [1e-12, 0.0, 0.0], [(1, 16, 16)], [(1, 256, 256)]),
            (None, [1e-12, 3e-13, 2e-13], [(1, 256, 256), (1, 16, 16), (1, 3, 3)], [])):
        eigvalsh_calls.clear()
        moments.clear()
        residuals = [0.0] * 3
        gaps = verify._Gaps(residuals, 1e-8, floor)
        for owner, matrix in enumerate((a, c, b)):
            gaps.add([matrix], [owner], [1.0])
        gaps.finish()
        assert residuals == norms, floor
        assert eigvalsh_calls == solved, floor
        assert moments == bounded, floor


def test_gaps_measure_tiny_terms_by_the_scaled_norm_rule():
    # terms whose Grams underflow to zero (1e-170 I_3) or whose Gram tops lie
    # below 2^-960 (1e-152 X): with or without a floor their stacks are
    # measured whole, by spectral_norm's rule, which scales them by a power
    # of two; a floor used to read the zero Gram's bound 0.0 as certifying
    # the term and leave its residual at 0.0
    X = np.random.default_rng(31).standard_normal((3, 3)) + 0j
    for term in (1e-170 * np.eye(3, dtype=complex), 1e-152 * X):
        for floor in (None, 0.0):
            residuals = [0.0]
            gaps = verify._Gaps(residuals, 1e-8, floor)
            gaps.add([term], [0], [1.0])
            gaps.finish()
            assert residuals == [spectral_norm(term)], floor
    assert residuals[0] == pytest.approx(spectral_norm(X) * 1e-152, rel=1e-13, abs=0)
    assert spectral_norm(1e-170 * np.eye(3)) == 1e-170


def test_gaps_certify_a_full_stack_at_a_time(monkeypatch):
    # Terms pool, in arrival order, into one pending run per shape, each
    # certified when it fills a stack, or in finish(), in the order the
    # runs began: lemma_product_power's 35 dim-2 gaps (5 pairs, degrees
    # 2..8) are one stack, certified by one gram_bounds pass instead of one
    # per degree, and terms of two shapes added in turn, as nw_block adds
    # its northwest and northeast gaps, make one pass per shape
    passes = []
    real = verify.gram_bounds

    def spy(stack, gram):
        passes.append(stack.shape)
        return real(stack, gram)

    monkeypatch.setattr(verify, "gram_bounds", spy)
    verify.check_lemma_product_powers(projections.random_pairs(2, list(range(5))), 8, floor=0.0)
    assert passes == [(35, 2, 2)]
    rng = np.random.default_rng(3)
    twos, threes = rng.standard_normal((3, 2, 2)) + 0j, rng.standard_normal((2, 3, 3)) + 0j
    passes.clear()
    gaps = verify._Gaps([0.0, 0.0], 1e-8, 0.0)
    gaps.add(list(twos[:2]), [0, 0], [1.0, 1.0])
    gaps.add(list(threes[:1]), [1], [1.0])
    gaps.add(list(twos[2:]), [1], [1.0])
    gaps.add(list(threes[1:]), [0], [1.0])
    assert passes == []
    gaps.finish()
    assert passes == [(3, 2, 2), (2, 3, 3)]


def test_gaps_certify_each_term_as_it_arrives_from_dim_46(monkeypatch):
    # a 48 x 48 stack holds one matrix, so nothing is left pending after any
    # add() of such terms, and the checks whose gaps are dim x dim certify
    # them one pass per term, as they arrive (nw_block's blocks are smaller,
    # and pool)
    pending = []
    real = verify._Gaps.add

    def add(self, mats, owners, scales):
        real(self, mats, owners, scales)
        pending.append(sum(len(mats) for mats, _, _ in self.runs.values()))

    monkeypatch.setattr(verify._Gaps, "add", add)
    pairs = projections.random_pairs(48, [0, 1])
    for floor in (None, 0.0):
        verify.check_lemma_product_powers(pairs, 4, floor=floor)
        verify.check_lemma_commutators(pairs, floor=floor)
        verify.check_power_expansions(pairs, 4, floor=floor)
    assert len(pending) == 2 * (3 + 1 + 4) and not any(pending)


@pytest.mark.parametrize("entry", [math.nan, 1e200], ids=["nan", "overflowing Gram"])
@pytest.mark.parametrize("floor", [None, 0.0])
def test_gaps_raise_a_pending_terms_error_by_finish(entry, floor):
    # a term that spectral_norms would refuse raises the same error, with
    # the same text, at the add() or finish() that certifies its pending run
    bad = np.eye(2, dtype=np.complex128)
    bad[0, 1] = entry
    gaps = verify._Gaps([0.0, 0.0], 1e-8, floor)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises((ValueError, OverflowError)) as refused:
            spectral_norms([bad])
        with pytest.raises(refused.type) as raised:
            gaps.add([np.eye(2, dtype=np.complex128)], [0], [1.0])
            gaps.add([bad], [1], [1.0])
            gaps.finish()
    assert str(raised.value) == str(refused.value)


def test_theorem_campaign_solves_only_its_norms(eigvalsh_calls):
    # ||fg|| and ||fg + gf|| for each dim-64 pair, one pair per chunk; the
    # Frobenius bound certifies every member, where measuring them exactly
    # took 4 more eigensolves per pair (18 in all)
    report = run_trials(TrialConfig(dims=(64,), trials=3, base_seed=0, checks=("theorem",)))
    assert report.verdict == "pass"
    assert eigvalsh_calls == [(1, 64, 64)] * 6


def test_run_trials_records_construction_errors(monkeypatch):
    real_stacked = verify.random_pairs

    def flaky_stacked(dim, seeds):
        if 1 in seeds:
            raise ValueError("synthetic construction failure")
        return real_stacked(dim, seeds)

    # the chunk, and each trial rerun alone, builds its pairs with random_pairs
    monkeypatch.setattr(verify, "random_pairs", flaky_stacked)
    report = run_trials(TrialConfig(dims=(2,), trials=3, base_seed=0))
    assert report.verdict == "fail"
    assert len(report.errors) == 1
    assert report.errors[0]["trial"] == 1
    assert "synthetic" in report.errors[0]["message"]
    # surviving trials still contribute
    assert all(s.trials == 2 for s in report.per_check)


def serial_campaign(config):
    """run_trials as it ran before chunking: _run_one_trial for each trial in
    turn, each building and validating its own pair."""
    summaries = {name: verify.CheckSummary(name) for name in config.checks}
    errors = []
    dims = (dim for dim in config.dims for _ in range(config.trials))
    for index, dim in enumerate(dims):
        try:
            results = verify._run_one_trial(config, dim, config.base_seed + index)
        except Exception as exc:
            errors.append({"trial": index, "dim": dim,
                           "message": f"{type(exc).__name__}: {exc}"})
            continue
        for name, report in results.items():
            summary = summaries[name]
            summary.trials += 1
            summary.max_residual = max(summary.max_residual, report.residual)
            if not report.passed:
                summary.failures.append(index)
    ordered = [summaries[name] for name in config.checks]
    ok = not errors and all(not s.failures for s in ordered)
    return verify.AggregateReport(config, ordered, errors, "pass" if ok else "fail")


def test_run_trials_isolates_trials_inside_a_chunk(monkeypatch, in_caller):
    # Each dim's 5 trials are one chunk. The middle trial of the dim-2 chunk
    # (seed 2) fails to build, so that chunk reruns trial by trial; the
    # middle trial of the dim-8 chunk (seed 7) raises in a check, after its
    # chunk was built and validated together.
    config = TrialConfig(dims=(2, 8), trials=5, base_seed=0)
    real_stacked = verify.random_pairs
    real_corollary = verify.CHECKS["corollary"]
    stacked_calls = []

    def flaky_stacked(dim, seeds):
        stacked_calls.append(list(seeds))
        if 2 in seeds:
            raise ValueError("synthetic construction failure")
        return real_stacked(dim, seeds)

    def failing_corollary(pairs, cfg, floor):
        if any(pair.provenance.params["seed"] == 7 for pair in pairs):
            raise ArithmeticError("synthetic check failure")
        return real_corollary(pairs, cfg, floor)

    monkeypatch.setattr(verify, "random_pairs", flaky_stacked)
    monkeypatch.setitem(verify.CHECKS, "corollary", failing_corollary)
    chunked = run_trials(config)
    # each failed chunk reruns its trials one seed at a time
    assert stacked_calls == [[0, 1, 2, 3, 4], [0], [1], [2], [3], [4],
                             [5, 6, 7, 8, 9], [5], [6], [7], [8], [9]]
    assert [(e["trial"], e["dim"]) for e in chunked.errors] == [(2, 2), (7, 8)]
    assert chunked.to_json() == serial_campaign(config).to_json()


def test_chunk_falls_back_when_one_pairs_decomposition_raises(monkeypatch, in_caller):
    # The dim-4 chunk holds trials 0-5; seed 3's decomposition raises, in the
    # chunk and alone, so the chunk reruns trial by trial and only trial 3
    # records an error.
    real = verify.halmos_decompositions
    sizes = []

    def failing(pairs, tol):
        sizes.append(len(pairs))
        if any(pair.provenance.params["seed"] == 3 for pair in pairs):
            raise DecompositionError("synthetic decomposition failure")
        return real(pairs, tol)

    monkeypatch.setattr(verify, "halmos_decompositions", failing)
    config = TrialConfig(dims=(4,), trials=6, base_seed=0)
    report = run_trials(config)
    assert sizes == [6] + [1] * 6
    assert [(e["trial"], e["message"]) for e in report.errors] == [
        (3, "DecompositionError: synthetic decomposition failure")]
    assert all(s.trials == 5 for s in report.per_check)
    assert report.to_json() == serial_campaign(config).to_json()


def test_chunk_reruns_when_one_member_fails_validation(monkeypatch):
    # The dim-4 chunk holds trials 0-4; seed 2's g is doubled, so it is not
    # idempotent, in the chunk and alone. The chunk reruns trial by trial and
    # only trial 2 records the validation failure.
    real = verify.random_pairs

    def doubling(dim, seeds):
        return [ProjectionPair(pair.f, 2 * pair.g, dim, pair.provenance)
                if pair.provenance.params["seed"] == 2 else pair
                for pair in real(dim, seeds)]

    monkeypatch.setattr(verify, "random_pairs", doubling)
    config = TrialConfig(dims=(4,), trials=5, base_seed=0)
    report = run_trials(config)
    assert [e["trial"] for e in report.errors] == [2]
    assert report.errors[0]["message"].startswith(
        "ArithmeticError: constructed g fails projection validation: idempotency ")
    assert all(s.trials == 4 and not s.failures for s in report.per_check)
    assert report.to_json() == serial_campaign(config).to_json()


def test_run_trials_drops_each_chunks_pairs_once_its_checks_have_run(monkeypatch, in_caller):
    # 20 dim-16 trials are a chunk of 16 and one of 4; when a chunk's check
    # runs, the pairs of the chunk before it (and the products their checks
    # cached) are gone.
    real_theorem = verify.CHECKS["theorem"]
    seen, alive = [], []

    def recording_theorem(pairs, cfg, floor):
        seen.extend(weakref.ref(pair) for pair in pairs)
        alive.append([ref() is not None for ref in seen])
        return real_theorem(pairs, cfg, floor)

    monkeypatch.setitem(verify.CHECKS, "theorem", recording_theorem)
    report = run_trials(TrialConfig(dims=(16,), trials=20, checks=("theorem",)))
    assert report.verdict == "pass"
    assert alive == [[True] * 16, [False] * 16 + [True] * 4]


@pytest.mark.parametrize("environ, one_thread", [
    ({"OPENBLAS_NUM_THREADS": "1"}, True),
    ({"OMP_NUM_THREADS": "1"}, True),
    ({"OPENBLAS_NUM_THREADS": "0", "GOTO_NUM_THREADS": "x", "OMP_NUM_THREADS": " 1 "}, True),
    ({"OPENBLAS_NUM_THREADS": "4", "OMP_NUM_THREADS": "1"}, False),
    ({"MKL_NUM_THREADS": "1"}, False),
    ({}, False),
])
def test_one_blas_thread_reads_the_variables_as_openblas_does(environ, one_thread,
                                                              monkeypatch):
    # where numpy's BLAS exports no thread count
    monkeypatch.setattr(verify, "_openblas", lambda symbol: None)
    assert verify._one_blas_thread(environ) == one_thread


@pytest.mark.parametrize("checks, power_works, message", [
    (verify.ALL_CHECKS, True, "ValueError: synthetic theorem failure"),
    (verify.ALL_CHECKS[::-1], True, "ArithmeticError: synthetic power_expansion failure"),
    (("nw_block", "theorem", "power_expansion"), False, "ValueError: synthetic theorem failure"),
])
def test_split_chunk_raises_the_first_failing_checks_error(checks, power_works, message,
                                                           monkeypatch, in_caller):
    # a dim-64 trial runs as one unit per check: theorem's and
    # power_expansion's both fail, the latter after its real work or at
    # once; the trial records the error of the failing check that comes
    # first in checks order, as in the serial loop, and no thread is started
    real_power = verify.CHECKS["power_expansion"]

    def failing_theorem(pairs, cfg, floor):
        raise ValueError("synthetic theorem failure")

    def failing_power(pairs, cfg, floor):
        if power_works:
            real_power(pairs, cfg, floor)
        raise ArithmeticError("synthetic power_expansion failure")

    monkeypatch.setitem(verify.CHECKS, "theorem", failing_theorem)
    monkeypatch.setitem(verify.CHECKS, "power_expansion", failing_power)
    threads = threading.active_count()
    report = run_trials(TrialConfig(dims=(64,), trials=2, checks=checks))
    assert threading.active_count() == threads
    assert report.errors == [{"trial": i, "dim": 64, "message": message} for i in range(2)]
    assert all(s.trials == 0 for s in report.per_check)


@pytest.mark.parametrize("tol", [verify.DEFAULT_TOL, 1e-15])
def test_split_checks_report_as_single_check_campaigns(tol, monkeypatch, in_caller):
    # each check's summary depends on that check alone, so it is the one a
    # campaign of that check alone reports; at 1e-15 trials fail, so the
    # failing indices are compared too
    config = TrialConfig(dims=(64, 96), trials=2, base_seed=7, tol=tol)
    report = run_trials(config)
    assert not report.errors
    for summary in report.per_check:
        assert summary == run_trials(replace(config, checks=(summary.name,))).per_check[0]
    assert (tol == 1e-15) == any(s.failures for s in report.per_check)


def test_run_trials_rejects_unknown_check():
    with pytest.raises(ValueError, match="unknown checks"):
        TrialConfig(checks=("theorem", "nonsense"))
    with pytest.raises(ValueError, match="m_max"):
        TrialConfig(m_max=0)
    with pytest.raises(ValueError, match="n_max"):
        TrialConfig(n_max=0)
    with pytest.raises(ValueError, match="base_seed must be >= 0, got -1"):
        TrialConfig(base_seed=-1)
    for tol in (0.0, -1.0, math.nan, math.inf):  # nan and inf serialise as invalid JSON
        with pytest.raises(ValueError, match="tol must"):
            TrialConfig(tol=tol)
    with pytest.raises(ValueError, match="at least one check"):
        TrialConfig(checks=())
    with pytest.raises(ValueError, match="each check once"):
        TrialConfig(checks=("theorem", "corollary", "theorem"))


def test_aggregate_json_schema():
    report = run_trials(TrialConfig(dims=(2,), trials=2))
    payload = json.loads(report.to_json())
    assert set(payload) == {"config", "per_check", "errors", "verdict"}
    assert payload["verdict"] == "pass"
    assert {entry["name"] for entry in payload["per_check"]} == set(verify.ALL_CHECKS)
    for entry in payload["per_check"]:
        assert set(entry) == {"name", "trials", "max_residual", "failures"}
    assert "threads" not in payload["config"]


def test_trial_report_invariant():
    report = check_theorem(REFERENCE, tol=1e-12)
    assert report.passed == (report.residual <= report.tol)
    assert isinstance(report.pair_provenance, Provenance)
