"""Stacked evaluation against the loops it replaced.

`linalg.spectral_norms`, `linalg.mat_poly_evals` and `linalg.hermitian_eigens`
take many matrices in one Gram product and eigensolve, one Horner pass, or
one eigh, and the checks hand them every degree of their power loops, for
every pair of a campaign chunk, at once. `projections.random_projections`
builds many seeded projections with one QR per rank, and the counterexample
search builds, validates and measures its pairs a stack at a time. The
reference versions below are those loops, one matrix, one pair or one seed
per call, with the Horner rule, the Halmos decomposition and the per-seed
construction as they stood before stacking. Each stacked matrix gets the
same arithmetic as it would alone, so matrices, norms, residuals and
quantities must agree bit for bit, not to a tolerance, and Horner values
entry for entry.
"""

import math
import tracemalloc
from collections import Counter
from functools import cache, reduce
from itertools import accumulate, islice, repeat

import numpy as np
import pytest

import projpair.linalg as linalg
import projpair.projections as projections
import projpair.verify as verify
from projpair.linalg import (
    STACK_BYTES,
    UNDERFLOW_NORM,
    NonHermitianError,
    adjoint,
    as_stack,
    gram_norms,
    grams,
    hermitian_eigen,
    hermitian_eigens,
    mat_poly_evals,
    spectral_norm,
    spectral_norms,
    stack_capacity,
)
from projpair.polynomials import poly_eval_real, poly_F, poly_PQ_recursive
from projpair.projections import (
    BULK_SEEDS,
    AngleSpec,
    DecompositionError,
    ProjectionPair,
    Provenance,
    halmos_decompose,
    halmos_decompositions,
    pair_from_angles,
    random_pair,
    random_pairs,
    random_projection,
    random_projections,
    validate_projection,
    validate_projections,
)
from projpair.verify import (
    TrialConfig,
    check_lemma_commutator,
    check_lemma_commutators,
    check_lemma_product_power,
    check_lemma_product_powers,
    check_nw_block,
    check_nw_blocks,
    check_power_expansion,
    check_power_expansions,
    find_commutator_identity_counterexample,
    run_trials,
)

# --- reference loops -------------------------------------------------------------


def serial_horner(coeffs, A):
    n = A.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    acc = np.zeros((n, n), dtype=np.complex128)
    for c in reversed(list(getattr(coeffs, "coefficients", coeffs))):
        acc = acc @ A
        if c:
            acc = acc + complex(c) * eye
    return acc


def serial_powers(A, k):
    return accumulate(repeat(A, k), np.matmul)


def serial_validate(P):
    return spectral_norm(P @ P - P), spectral_norm(P - adjoint(P))


def serial_lemma_product_power(pair, m_max):
    fg, fgf, a = pair.fg, pair.fgf, pair.norm_fg
    norm_fgf = spectral_norm(fgf)
    residual = abs(norm_fgf - a * a)
    powers = islice(serial_powers(fg, m_max), 1, None)
    for m, (power, prefix) in enumerate(zip(powers, serial_powers(fgf, m_max - 1)), start=2):
        residual = max(residual, spectral_norm(power) - a ** (2 * m - 1))
        residual = max(residual, spectral_norm(power - prefix @ fg))
    return {"norm_fg": a, "norm_fgf": norm_fgf, "m_max": m_max}, max(residual, 0.0)


def serial_lemma_commutator(pair):
    eye = np.eye(pair.dim, dtype=np.complex128)
    comm = pair.comm
    u = pair.fg @ (eye - pair.f)
    uu = u @ adjoint(u)
    u_u = adjoint(u) @ u
    comm_norm = pair.norm_comm
    u_norm = spectral_norm(u)
    residual = max(
        abs(comm_norm - u_norm),
        max(0.0, comm_norm - pair.norm_fg),
        spectral_norm(adjoint(comm) @ comm - (uu + u_u)),
        spectral_norm(uu @ u_u),
    )
    return {"norm_comm": comm_norm, "norm_u": u_norm, "norm_fg": pair.norm_fg}, residual


def serial_power_expansion(pair, n_max):
    fg, gf, fgf = pair.fg, pair.gf, pair.fgf
    gfg = gf @ pair.g
    anti_norm = pair.norm_anti
    residual = 0.0
    for n, power in enumerate(serial_powers(pair.anti, n_max), start=1):
        p, q = poly_PQ_recursive(n)
        rhs = (serial_horner(p, fg) + serial_horner(p, gf)
               + serial_horner(q, fgf) + serial_horner(q, gfg))
        scale = max(1.0, anti_norm**n)
        residual = max(residual, spectral_norm(power - rhs) / scale)
    return {"norm_anti": anti_norm, "n_max": n_max}, residual


def serial_halmos_decompose(pair):
    """The blocks of g over range(f), their three relation residuals and ||D||,
    from one eigh of f with its spectrum sorted descending, stably."""
    w, v = np.linalg.eigh((pair.f + adjoint(pair.f)) / 2.0)
    order = np.argsort(-w, kind="stable")
    basis = v[:, order].copy()
    r = int(np.sum(w[order] > 0.5))
    g_in_basis = adjoint(basis) @ pair.g @ basis
    D, V, Dp = g_in_basis[:r, :r], g_in_basis[:r, r:], g_in_basis[r:, r:]
    residuals = {
        "range_block": spectral_norm(D - D @ D - V @ adjoint(V)),
        "mixed_block": spectral_norm(D @ V + V @ Dp - V),
        "kernel_block": spectral_norm(Dp - Dp @ Dp - adjoint(V) @ V),
    }
    return D, Dp, V, basis, residuals, spectral_norm(D)


@cache
def serial_drop(n):
    """F_n's largest drop between neighbouring points of a 100-point [0, 1] grid."""
    values = [poly_eval_real(poly_F(n), x) for x in np.linspace(0.0, 1.0, 100)]
    return max(values[i] - values[i + 1] for i in range(len(values) - 1))


def serial_nw_block(pair, n_max, tol):
    D, _, V, basis, _, _ = serial_halmos_decompose(pair)
    r = D.shape[0]
    anti_norm = pair.norm_anti
    w = adjoint(basis) @ pair.anti @ basis
    f_prev = serial_horner(poly_F(0), D)
    residual = 0.0
    for n, power in enumerate(serial_powers(w, n_max), start=1):
        f_cur = serial_horner(poly_F(n), D)
        scale = max(1.0, anti_norm**n)
        nw = power[:r, :r] - f_cur
        ne = power[:r, r:] - f_prev @ V
        residual = max(residual, spectral_norm(nw) / scale, spectral_norm(ne) / scale)
        residual = max(residual, serial_drop(n) / scale)
        f_prev = f_cur
    return {"norm_anti": anti_norm, "rank_f": r, "n_max": n_max}, residual


def serial_checks(pair, k):
    """Each loop check's (quantities, residual) at loop length k, by the loops."""
    return {
        "lemma_product_power": serial_lemma_product_power(pair, k),
        "lemma_commutator": serial_lemma_commutator(pair),
        "power_expansion": serial_power_expansion(pair, k),
        "nw_block": serial_nw_block(pair, k, 1e-8),
    }


def chunk_checks(pairs, k):
    """Each loop check's reports for a chunk of pairs at loop length k."""
    return {
        "lemma_product_power": check_lemma_product_powers(pairs, m_max=k),
        "lemma_commutator": check_lemma_commutators(pairs),
        "power_expansion": check_power_expansions(pairs, n_max=k),
        "nw_block": check_nw_blocks(pairs, n_max=k),
    }


def assert_bit_equal(report, expected, label):
    quantities, residual = expected
    assert report.check_name in label
    assert bits(report.residual) == bits(residual), label
    assert report.quantities.keys() == quantities.keys(), label
    for key, value in quantities.items():
        assert bits(report.quantities[key]) == bits(value), f"{label}: {key}"


# --- pairs -----------------------------------------------------------------------


def bits(x):
    return np.float64(x).tobytes()


def rotated(pair, seed):
    """The pair in a seeded random orthonormal basis, so no block is axis-aligned."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((pair.dim, pair.dim))
                        + 1j * rng.standard_normal((pair.dim, pair.dim)))

    def conj(P):
        P = q @ P @ adjoint(q)
        return (P + adjoint(P)) / 2

    return ProjectionPair(conj(pair.f), conj(pair.g), pair.dim, Provenance("rotated"))


def angle_pair(*angles, extra_f=0, extra_g=0):
    return pair_from_angles(AngleSpec(angles, extra_f_dims=extra_f, extra_g_dims=extra_g))


EPS = 1e-9
PAIRS = {
    "equal": angle_pair(0.0),
    "orthogonal": angle_pair(math.pi / 2),
    "intersecting_and_orthogonal": angle_pair(0.0, math.pi / 2, 0.3, extra_f=1, extra_g=2),
    "rank_dim_minus_1": angle_pair(0.7, extra_f=4),
    "f_zero": angle_pair(extra_g=5),
    "f_identity": angle_pair(extra_f=5),
    "nearly_commuting": angle_pair(EPS, math.pi / 2 - EPS, 2 * EPS),
    "nearly_commuting_rotated": rotated(angle_pair(EPS, math.pi / 2 - EPS, 2 * EPS, extra_g=1), 1),
    "rank_dim_minus_1_rotated": rotated(angle_pair(1.1, extra_f=5), 2),
    # dims below, at and above the sizes where a check's stacks split
    **{f"random_dim{d}": random_pair(d, 100 + d) for d in (2, 5, 16, 24, 32, 48, 64)},
}
LOOP_LENGTHS = (1, 2, 8, 12)


@pytest.mark.parametrize("name", PAIRS)
def test_stacked_checks_match_serial_loops(name):
    pair = PAIRS[name]
    for k in LOOP_LENGTHS:
        reports = {"lemma_product_power": check_lemma_product_power(pair, m_max=k),
                   "lemma_commutator": check_lemma_commutator(pair),
                   "power_expansion": check_power_expansion(pair, n_max=k),
                   "nw_block": check_nw_block(pair, n_max=k)}
        for check, expected in serial_checks(pair, k).items():
            assert_bit_equal(reports[check], expected, f"{check} at loop length {k}")
    blocks = halmos_decompose(pair)
    D, Dp, V, basis, residuals, norm_D = serial_halmos_decompose(pair)
    for got, want in ((blocks.D, D), (blocks.Dprime, Dp), (blocks.V, V), (blocks.basis, basis)):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert {k: bits(v) for k, v in blocks.relation_residuals.items()} == {
        k: bits(v) for k, v in residuals.items()}
    assert bits(blocks.norm_D) == bits(norm_D)
    for member in (pair.f, pair.g):
        validation = validate_projection(member)
        idem, herm = serial_validate(member)
        assert bits(validation.idempotency_residual) == bits(idem)
        assert bits(validation.hermiticity_residual) == bits(herm)


# --- chunks of pairs ---------------------------------------------------------------


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 24])
def test_chunk_checks_match_serial_loops(dim, monkeypatch):
    # Chunks of one pair, of a full stack, and of just over half a stack, so
    # that one degree's matrices for all the pairs fill more than a stack and
    # each run of degrees spans stacks. At dims 2, 3 and 5 a 64 KiB stack
    # holds hundreds of pairs; a 4 KiB one holds 64, 28 and 10, which keeps
    # the serial loops quick and cuts the same runs across stacks.
    if dim < 16:
        monkeypatch.setattr(linalg, "STACK_BYTES", 1 << 12)
    capacity = stack_capacity((dim, dim))
    pairs = random_pairs(dim, list(range(700, 700 + capacity)))
    sizes = sorted({1, capacity // 2 + 1, capacity})
    assert 2 * sizes[1] > capacity
    for k in LOOP_LENGTHS:
        expected = [serial_checks(pair, k) for pair in pairs]
        for size in sizes:
            for check, reports in chunk_checks(pairs[:size], k).items():
                assert len(reports) == size
                for i, report in enumerate(reports):
                    label = f"{check} at loop length {k}, pair {i} of a chunk of {size}"
                    assert_bit_equal(report, expected[i][check], label)
    assert all(reports == [] for reports in chunk_checks([], 8).values())
    assert halmos_decompositions([]) == []


def floored_checks(pairs, tol, floor):
    """Each loop check's reports for a chunk of pairs at the default loop
    length, with the given floor (None for exact residuals)."""
    return {
        "lemma_product_power": check_lemma_product_powers(pairs, 8, tol, floor=floor),
        "lemma_commutator": check_lemma_commutators(pairs, tol, floor=floor),
        "power_expansion": check_power_expansions(pairs, 8, tol, floor=floor),
        "nw_block": check_nw_blocks(pairs, 8, tol, floor=floor),
    }


@pytest.mark.parametrize("dim", [3, 16, 64])
def test_floored_checks_keep_each_chunks_maximum_and_verdicts(dim):
    # With a floor, a check may leave a residual short of exact only where
    # the exact one is at most tol and at most the floor or the chunk's
    # largest residual, so the largest of the floor and the residuals, and
    # every verdict, are the exact ones, to the bit
    pairs = random_pairs(dim, list(range(40, 40 + min(6, stack_capacity((dim, dim))))))
    for tol in (1e-8, 1e-15):
        exact = floored_checks(pairs, tol, None)
        for floor in (0.0, 1e-15, 1.0):
            for check, reports in floored_checks(pairs, tol, floor).items():
                label = f"{check}, tol {tol}, floor {floor}"
                limit = max(floor, *(report.residual for report in reports))
                assert bits(limit) == bits(max(floor, *(r.residual for r in exact[check]))), label
                for report, want in zip(reports, exact[check], strict=True):
                    assert report.passed == want.passed, label
                    assert report.quantities == want.quantities, label
                    if bits(report.residual) != bits(want.residual):
                        assert report.residual < want.residual <= min(tol, limit), label


def product_powers_one_norm_at_a_time(pairs, m_max, tol, floor):
    """Each pair's (||fgf||, residual) from check_lemma_product_powers as
    it stood before its norms were measured in runs: the powers from
    verify._powers, each norm by its own spectral_norms call, and each
    degree's gaps through verify._Gaps, after that degree's norms."""
    k = len(pairs)
    fg, fgf = as_stack([p.fg for p in pairs]), as_stack([p.fgf for p in pairs])
    a = [p.norm_fg for p in pairs]
    norm_fgf = [spectral_norms([matrix])[0] for matrix in fgf]
    residuals = [abs(norm - x * x) for norm, x in zip(norm_fgf, a)]
    gaps = verify._Gaps(residuals, tol, floor)
    powers = islice(verify._powers(fg, m_max), 1, None)
    for m, (power, prefix) in enumerate(zip(powers, verify._powers(fgf, m_max - 1)), start=2):
        for i, matrix in enumerate(power):
            residuals[i] = max(residuals[i], spectral_norms([matrix])[0] - a[i] ** (2 * m - 1))
        gaps.add(list(power - prefix @ fg), [*range(k)], [1.0] * k)
    gaps.finish()
    return [(norm, max(residual, 0.0)) for norm, residual in zip(norm_fgf, residuals)]


def assert_product_powers_match(pairs, m_max, tol, floor, label):
    reports = check_lemma_product_powers(pairs, m_max, tol, floor=floor)
    expected = product_powers_one_norm_at_a_time(pairs, m_max, tol, floor)
    for report, (norm_fgf, residual) in zip(reports, expected, strict=True):
        assert bits(report.quantities["norm_fgf"]) == bits(norm_fgf), label
        assert bits(report.residual) == bits(residual), label


@pytest.mark.parametrize("dim", [64, 96])
def test_product_power_norms_run_long_enough_to_release_the_gil(dim, eigvalsh_calls):
    # Where one matrix fills a stack, ||fgf|| and the norms of (fg)^2 ..
    # (fg)^m_max reach eigvalsh as runs of (run, dim, dim) Grams with
    # run * dim > 500, numpy's threshold for releasing the GIL, once there
    # are enough of them (m_max per pair), and as one run before. Every
    # other eigensolve is a gap's, one matrix at a time. The norms, the
    # residuals and so the verdicts keep the bits of measuring each norm on
    # its own, with a floor as with none.
    pairs = random_pairs(dim, [3, 4])
    for pair in pairs:
        pair.norm_fg  # measured once, before the calls are counted
    for k in (1, 2):
        for m_max in (1, 2, 8, 12, 32):
            for floor in (None, 0.0, 1e-15):
                label = f"{k} pairs, m_max {m_max}, floor {floor}"
                eigvalsh_calls.clear()
                check_lemma_product_powers(pairs[:k], m_max, floor=floor)
                runs = [shape for shape in eigvalsh_calls if shape != (1, dim, dim)]
                if k * m_max == 1:
                    assert eigvalsh_calls == [(1, dim, dim)], label
                    continue
                assert sum(run for run, _, _ in runs) == k * m_max, label
                assert all(shape[1:] == (dim, dim) for shape in runs), label
                threshold = verify.EIGVALSH_GIL_THRESHOLD
                if k * m_max * dim > threshold:
                    # and shorter than twice the fewest that suffice, whatever m_max
                    assert all(threshold < run * dim and run < 2 * (threshold // dim + k)
                               for run, _, _ in runs), label
                else:
                    assert len(runs) == 1, label
                assert_product_powers_match(pairs[:k], m_max, 1e-8, floor, label)


@pytest.mark.parametrize("dim", [2, 5, 16, 48])
def test_product_power_norms_match_below_dim_64(dim):
    # Below dim 64 the norms are measured in the same runs of Grams, one run
    # holding several pairs' degrees, and keep the same bits.
    pairs = random_pairs(dim, list(range(5)))
    for k in (1, 2, 5):
        for m_max in (1, 2, 8, 12):
            for floor in (None, 0.0, 1e-15):
                assert_product_powers_match(pairs[:k], m_max, 1e-8, floor,
                                            f"{k} pairs, m_max {m_max}, floor {floor}")


def test_product_powers_measure_underflowing_norms_again_scaled(monkeypatch):
    # ||fg|| is about 2^-40, so ||(fg)^7|| and ||(fg)^8|| lie below
    # UNDERFLOW_NORM: their Grams underflow, to subnormals and to zero, and
    # the run's eigensolve reads norms that have lost their digits. Each is
    # formed again and measured scaled, as spectral_norms measures it. Their
    # residual terms, norm - ||fg||^(2m-1), are negative either way, so the
    # norms themselves are watched as stack_norms returns them; the gaps'
    # norms, near 0, cannot be mistaken for them.
    pair = pair_from_angles(AngleSpec((math.acos(2.0**-40),) + (math.pi / 2,) * 31))
    underflowing = [reduce(np.matmul, repeat(pair.fg, m)) for m in (7, 8)]
    for power in underflowing:
        [from_gram] = gram_norms(grams(power[np.newaxis])[1])
        assert from_gram < UNDERFLOW_NORM and bits(from_gram) != bits(spectral_norm(power))
    returned = []

    def watched(stack, gram):
        norms = linalg.stack_norms(stack, gram)
        returned.extend(map(bits, norms))
        return norms

    monkeypatch.setattr(verify, "stack_norms", watched)
    for floor in (None, 0.0):
        returned.clear()
        assert_product_powers_match([pair], 8, 1e-8, floor, f"floor {floor}")
        assert {bits(spectral_norm(power)) for power in underflowing} <= set(returned)
    report = check_lemma_product_power(pair)
    assert report.passed and report.quantities["norm_fgf"] == pytest.approx(2.0**-80)


def test_nw_block_chunks_mix_ranks_of_f():
    # dim-5 pairs whose f has rank 1 (one pair), 4 = dim - 1 (many, one of
    # them axis-aligned and one rotated), 2 (random) and the empty ranks 0
    # and 5, interleaved, so each rank's blocks stack apart from the others
    pool = random_pairs(5, list(range(60)))
    by_rank = {}
    for pair in pool:
        by_rank.setdefault(pair.provenance.params["rank_f"], []).append(pair)
    chunk = [*by_rank[4][:4], angle_pair(0.7, extra_f=3), by_rank[1][0],
             rotated(angle_pair(1.1, extra_f=3), 3), *by_rank[2][:3],
             angle_pair(extra_g=5), angle_pair(extra_f=5)]
    chunk = chunk[1::2] + chunk[0::2]
    ranks = [round(np.trace(pair.f).real) for pair in chunk]
    assert sorted(ranks) == [0, 1, 2, 2, 2, 4, 4, 4, 4, 4, 4, 5]
    for k in LOOP_LENGTHS:
        reports = check_nw_blocks(chunk, n_max=k)
        for i, (pair, report) in enumerate(zip(chunk, reports)):
            label = f"nw_block at loop length {k}, pair {i} (rank {ranks[i]})"
            assert_bit_equal(report, serial_nw_block(pair, k, 1e-8), label)
    for pair, blocks in zip(chunk, halmos_decompositions(chunk)):
        D, Dp, V, basis, residuals, norm_D = serial_halmos_decompose(pair)
        assert blocks.D.tobytes() == D.tobytes() and blocks.V.shape == V.shape
        assert blocks.basis.tobytes() == basis.tobytes()
        assert {k: bits(v) for k, v in blocks.relation_residuals.items()} == {
            k: bits(v) for k, v in residuals.items()}
        assert bits(blocks.norm_D) == bits(norm_D)


# --- certified relation gaps -----------------------------------------------------


def scaled_g(pair, scale, shift=0.0):
    """The pair with g replaced by scale g + shift f, no longer a projection."""
    return ProjectionPair(pair.f, scale * pair.g + shift * pair.f, pair.dim, Provenance("scaled"))


def exact_decomposition_error(pair, tol):
    """The message and residuals of the DecompositionError that measuring every
    relation gap of the pair raises, or None when that passes it."""
    _, _, _, _, residuals, norm_D = serial_halmos_decompose(pair)
    residuals = dict(residuals, norm_identity=abs(pair.norm_fg**2 - norm_D))
    if max(residuals.values()) <= tol:
        return None
    return f"block relations violated beyond tol={tol:.3e}: {residuals}", residuals


def test_certified_relations_leave_one_eigensolve_per_rank_for_norm_D(eigvalsh_calls):
    # dim-8 pairs whose f has ranks 2, 4 and 6: every relation gap is
    # rounding, which the Frobenius bound certifies, so each rank's stack
    # makes one eigensolve, for ||D||; the residuals are measured when read
    chunk = [pair for pair in random_pairs(8, list(range(40)))
             if pair.provenance.params["rank_f"] in (2, 4, 6)][:9]
    ranks = Counter(pair.provenance.params["rank_f"] for pair in chunk)
    assert ranks.keys() == {2, 4, 6}
    for pair in chunk:
        pair.norm_fg  # the norm identity's ||fg||, measured beforehand
    eigvalsh_calls.clear()
    blocks = halmos_decompositions(chunk)
    assert sorted(eigvalsh_calls) == sorted((count, r, r) for r, count in ranks.items())
    for pair, block in zip(chunk, blocks):
        D, _, _, _, residuals, norm_D = serial_halmos_decompose(pair)
        assert bits(block.norm_D) == bits(norm_D)
        assert {k: bits(v) for k, v in block.relation_residuals.items()} == {
            k: bits(v) for k, v in residuals.items()}


def test_uncertain_relations_are_measured_and_pass_within_tol(eigvalsh_calls):
    # 16 cells at pi/4 make D, V and Dprime multiples of I_16, so scaling g by
    # 1 + tol makes each relation gap about tol/2 I_16: its Frobenius norm,
    # 2 tol, certifies nothing, but its norm, tol / 2, passes
    tol = 1e-6
    pair = scaled_g(angle_pair(*[math.pi / 4] * 16), 1.0 + tol)
    pair.norm_fg
    eigvalsh_calls.clear()
    blocks = halmos_decompose(pair, tol)
    assert len(eigvalsh_calls) == 3  # each relation, ||D|| with the range block's
    assert exact_decomposition_error(pair, tol) is None
    _, _, _, _, residuals, norm_D = serial_halmos_decompose(pair)
    assert bits(blocks.norm_D) == bits(norm_D)
    for name, residual in residuals.items():
        assert tol / 4 < residual <= tol, name
        assert bits(blocks.relation_residuals[name]) == bits(residual), name


@pytest.mark.parametrize("scale, shift", [(1.0 + 4e-6, 0.0), (1.0, 1e-5)])
def test_decomposition_error_matches_measuring_every_gap(scale, shift):
    # scaling g breaks all three relations; shifting it by a multiple of f
    # breaks the range and mixed ones and leaves the kernel one rounding,
    # which the bound certifies, yet the message names its measured norm
    tol = 1e-6
    good = angle_pair(*[0.3] * 16)
    bad = scaled_g(good, scale, shift)
    other = scaled_g(rotated(good, 5), 1.0 + 1e-3)
    message, residuals = exact_decomposition_error(bad, tol)
    assert exact_decomposition_error(good, tol) is None
    for chunk in ([bad], [good, bad, other]):
        with pytest.raises(DecompositionError) as excinfo:
            halmos_decompositions(chunk, tol)
        assert str(excinfo.value) == message
        assert {k: bits(v) for k, v in excinfo.value.residuals.items()} == {
            k: bits(v) for k, v in residuals.items()}
    if shift:
        assert 0.0 < residuals["kernel_block"] < tol / 100


def test_relation_residuals_measure_each_shape_of_gap_once(eigvalsh_calls):
    # the range, mixed and kernel gaps are r x r, r x (dim - r) and
    # (dim - r) x (dim - r): at dim = 2r they share one eigensolve, else the
    # shapes get one each, and the norms keep their bits and their order
    search_pair, _ = find_commutator_identity_counterexample(4, "random", 100, 1)
    for pair, grams in ((angle_pair(0.3, 0.9), [(3, 2, 2)]),
                        (search_pair, [(3, 2, 2)]),
                        (angle_pair(0.3, 0.9, extra_g=1), [(1, 2, 2), (1, 3, 3), (1, 3, 3)])):
        blocks = halmos_decompose(pair)
        eigvalsh_calls.clear()
        residuals = blocks.relation_residuals
        assert eigvalsh_calls == grams
        _, _, _, _, expected, _ = serial_halmos_decompose(pair)
        assert list(residuals) == ["range_block", "mixed_block", "kernel_block"]
        assert {k: bits(v) for k, v in residuals.items()} == {
            k: bits(v) for k, v in expected.items()}
    # the search's pair, as decompose measures it: ||fg||, ||D|| with the
    # uncertain range gaps (here none), and the three relation residuals
    pair = ProjectionPair(search_pair.f, search_pair.g, 4, Provenance("file"))
    eigvalsh_calls.clear()
    halmos_decompose(pair).relation_residuals
    assert len(eigvalsh_calls) == 3


# --- linalg stacks -----------------------------------------------------------------


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("shape", [(7, 3, 3), (5, 4, 2), (20, 24, 24), (3, 64, 64), (3, 70, 40)])
def test_spectral_norms_match_spectral_norm(shape):
    rng = np.random.default_rng(sum(shape))
    mats = random_complex(rng, shape)
    expected = [bits(spectral_norm(m)) for m in mats]
    assert [bits(x) for x in spectral_norms(mats)] == expected
    assert [bits(x) for x in spectral_norms(list(mats))] == expected


def test_spectral_norms_of_empty_matrices_and_sequences():
    assert spectral_norms(np.zeros((3, 0, 4))) == [0.0, 0.0, 0.0]
    assert spectral_norms([np.zeros((4, 0))] * 2) == [0.0, 0.0]
    assert spectral_norms([]) == []


def test_spectral_norms_reject_non_finite_and_ragged_input():
    mats = [np.eye(3), np.full((3, 3), np.nan)]
    with pytest.raises(ValueError, match="finite"):
        spectral_norms(mats)
    with pytest.raises(ValueError):
        spectral_norms([np.eye(3), np.eye(2)])


@pytest.mark.parametrize("shape", [(6, 2, 2), (9, 5, 5), (20, 24, 24), (3, 0, 0)])
def test_hermitian_eigens_match_serial_eigh(shape):
    rng = np.random.default_rng(sum(shape))
    mats = random_complex(rng, shape)
    mats = (mats + adjoint(mats)) / 2
    mats[0] = np.eye(shape[-1])  # a degenerate spectrum keeps the solver's order
    assert len(mats) * mats[0].nbytes > STACK_BYTES or shape[-1] < 24  # 24 splits
    eigs = hermitian_eigens(mats)
    assert len(eigs) == len(mats)
    for A, eig in zip(mats, eigs):
        w, v = np.linalg.eigh((A + adjoint(A)) / 2.0)
        order = np.argsort(-w, kind="stable")
        assert eig.eigenvalues.tobytes() == w[order].tobytes()
        assert eig.eigenvectors.tobytes() == v[:, order].tobytes()
        alone = hermitian_eigen(A)
        assert alone.eigenvectors.tobytes() == eig.eigenvectors.tobytes()
    assert hermitian_eigens([]) == []


def test_hermitian_eigens_check_each_matrix():
    # one non-Hermitian matrix among Hermitian ones is rejected
    mats = np.stack([np.eye(3), np.eye(3), np.triu(np.ones((3, 3)))])
    with pytest.raises(NonHermitianError):
        hermitian_eigens(mats)
    with pytest.raises(ValueError, match="square"):
        hermitian_eigens(np.ones((2, 3, 4)))


# coefficient lists of mixed lengths: zero polynomial, constants, inner zeros,
# leading coefficients other than 1, as Q_n and F_n have, negative ones among
# them
POLYS = [(), (0,), (3,), (0, 1), (1, 2, 3), (0, -3, 0, 0, 2), (5, 0, 0), (0, 0, 1), (-7, 1),
         (0, 0, 4, 4), (2, 0, -4), (1, 10, 5, 9, 0, -6)]
# as many lists as POLYS, each of a different polynomial
OTHER_POLYS = [tuple(c + 1 for c in p) for p in POLYS]


def horner_parities(polys):
    """The buffer parity each slice of length >= 2 starts at, in a pass over polys."""
    top = max(map(len, polys))
    return {(top - len(p)) % 2 for p in polys if len(p) >= 2}


@pytest.mark.parametrize("dim", [1, 3, 24, 64])
def test_mat_poly_evals_match_serial_horner(dim):
    rng = np.random.default_rng(dim)
    polys = POLYS + POLYS[::-1]
    assert horner_parities(polys) == {0, 1}
    mats = random_complex(rng, (len(polys), dim, dim)) / math.sqrt(dim)
    assert len(polys) * mats[0].nbytes > STACK_BYTES or dim < 24  # 24 and 64 split
    # a repeat call, which reuses the plan, and then, back to back, a list of
    # as many other polynomials, which a plan keyed on less than the
    # coefficients themselves would evaluate with the first list's plan
    runs = [(polys, list(mat_poly_evals(polys, mats))),
            (polys, list(mat_poly_evals(polys, list(mats)))),
            (OTHER_POLYS * 2, list(mat_poly_evals(OTHER_POLYS * 2, mats)))]
    for run_polys, values in runs:
        assert len(values) == len(run_polys)
        for p, A, value in zip(run_polys, mats, values):
            # equal entry for entry; a zero entry may differ in sign, because
            # the constant term now goes on the diagonal only, where the loop
            # added c * I, and so +0.0, to every entry, and the first product
            # is c * A, where the loop formed (c * I) @ A
            expected = serial_horner(p, A)
            assert value.shape == expected.shape
            assert np.array_equal(value, expected), p
    for first, repeat in zip(runs[0][1], runs[1][1], strict=True):
        assert first.tobytes() == repeat.tobytes()


def test_mat_poly_evals_rejects_bad_input():
    with pytest.raises(ValueError, match="polynomials for"):
        mat_poly_evals([(1,)], [np.eye(2)] * 2)
    with pytest.raises(ValueError, match="finite"):
        list(mat_poly_evals([(1,), (1,)], [np.eye(2), np.full((2, 2), np.inf)]))
    with pytest.raises(ValueError, match="square"):
        list(mat_poly_evals([(1,)], [np.ones((2, 3))]))
    assert list(mat_poly_evals([], [])) == []


def test_horner_pass_makes_length_minus_two_products_per_slice(monkeypatch):
    # the first product of a slice of length L, (c I) @ A, is written as c A,
    # so the pass multiplies L - 2 matrices for it: one stack per step, each
    # stack holding every slice that multiplies at that step
    products = []
    real = np.matmul

    def counting(a, b, *args, **kwargs):
        products.append(len(a))
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "matmul", counting)
    mats = random_complex(np.random.default_rng(0), (len(POLYS), 3, 3))
    for p, A in zip(POLYS, mats):
        products.clear()
        list(mat_poly_evals([p], [A]))
        assert products == [1] * max(0, len(p) - 2), p
    products.clear()
    list(mat_poly_evals(POLYS, mats))
    assert sum(products) == sum(max(0, len(p) - 2) for p in POLYS)
    assert len(products) == max(map(len, POLYS)) - 2
    # at the benchmark's n_max = 8: P_n and Q_n at fg, gf, fgf and gfg for
    # n = 1..8 make 98 products, and F_0..F_8 at D make 28
    terms = [poly for n in range(1, 9) for p, q in [poly_PQ_recursive(n)] for poly in (p, p, q, q)]
    for polys, count in ((terms, 98), ([poly_F(n) for n in range(9)], 28)):
        products.clear()
        list(mat_poly_evals(polys, [np.eye(2)] * len(polys)))
        assert sum(products) == count


def test_horner_plans_once_per_list_in_a_bounded_cache():
    linalg._horner_plan.cache_clear()
    mats = random_complex(np.random.default_rng(1), (len(POLYS), 2, 2))
    for polys in (POLYS, POLYS, OTHER_POLYS, POLYS, OTHER_POLYS):
        list(mat_poly_evals(polys, mats))
    info = linalg._horner_plan.cache_info()
    assert (info.misses, info.hits) == (2, 3)
    for i in range(linalg.HORNER_PLANS + 10):
        list(mat_poly_evals([(i, 1)], mats[:1]))
    assert linalg._horner_plan.cache_info().currsize == linalg.HORNER_PLANS


# --- seeded construction -----------------------------------------------------------


def serial_box_muller(rng, count):
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return z[:count]


def serial_random_projection(dim, rank, seed):
    if rank == 0:
        return np.zeros((dim, dim), dtype=np.complex128)
    if rank == dim:
        return np.eye(dim, dtype=np.complex128)
    rng = np.random.Generator(np.random.PCG64(seed))
    re = serial_box_muller(rng, dim * rank)
    im = serial_box_muller(rng, dim * rank)
    q, _ = np.linalg.qr((re + 1j * im).reshape(dim, rank))
    proj = q @ adjoint(q)
    return (proj + adjoint(proj)) / 2.0


def serial_random_pair(dim, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    rank_f = int(rng.integers(1, dim))
    rank_g = int(rng.integers(1, dim))
    f = serial_random_projection(dim, rank_f, int(rng.integers(0, 2**63)))
    g = serial_random_projection(dim, rank_g, int(rng.integers(0, 2**63)))
    return f, g, Provenance("random", {"seed": seed, "rank_f": rank_f, "rank_g": rank_g})


def serial_search(dim, budget, seed):
    """The random counterexample search as one loop, one pair per step:
    (f, g, violation) of the first pair of largest violation."""
    rng = np.random.Generator(np.random.PCG64(seed))
    best = None
    for _ in range(budget):
        f = serial_random_projection(dim, dim // 2, int(rng.integers(0, 2**63)))
        g = serial_random_projection(dim, dim // 2, int(rng.integers(0, 2**63)))
        fg = f @ g
        a, comm = spectral_norm(fg), spectral_norm(fg - g @ f)
        violation = abs(comm**2 - a**2 * (1.0 - a**2))
        if best is None or violation > best[2]:
            best = f, g, violation
    return best


@pytest.mark.parametrize("dim", [2, 3, 5, 16, 32, 64])
def test_stacked_construction_matches_per_seed_loop(dim):
    seeds = list(range(40, 52))
    for rank in sorted({0, 1, dim - 1, dim}):
        expected = [serial_random_projection(dim, rank, seed).tobytes() for seed in seeds]
        stacked = random_projections(dim, [rank] * len(seeds), seeds)
        assert stacked.shape == (len(seeds), dim, dim)
        assert [P.tobytes() for P in stacked] == expected, f"rank {rank}"
        assert [random_projection(dim, rank, seed).tobytes() for seed in seeds] == expected
    # ranks mixed in one call: each rank is its own group, each seed its own stream
    ranks = [seed % (dim + 1) for seed in seeds]
    assert [P.tobytes() for P in random_projections(dim, ranks, seeds)] == [
        serial_random_projection(dim, rank, seed).tobytes() for rank, seed in zip(ranks, seeds)]
    pairs = random_pairs(dim, seeds)
    reports = validate_projections([p.f for p in pairs] + [p.g for p in pairs])
    for pair, f_report, g_report in zip(pairs, reports, reports[len(pairs):]):
        f, g, provenance = serial_random_pair(dim, pair.provenance.params["seed"])
        alone = random_pair(dim, pair.provenance.params["seed"])
        for built in (pair, alone):
            assert (built.f.tobytes(), built.g.tobytes()) == (f.tobytes(), g.tobytes())
            assert built.provenance == provenance
        for member, report in ((f, f_report), (g, g_report)):
            idem, herm = serial_validate(member)
            assert bits(report.idempotency_residual) == bits(idem)
            assert bits(report.hermiticity_residual) == bits(herm)
            assert report == validate_projection(member)
    assert [p.provenance.params["seed"] for p in pairs] == seeds


def test_stacked_construction_rejects_bad_arguments():
    with pytest.raises(ValueError, match="dim"):
        random_projections(0, [0], [1])
    with pytest.raises(ValueError, match="rank"):
        random_projections(4, [1, 5], [1, 2])
    with pytest.raises(ValueError, match="2 ranks for 3 seeds"):
        random_projections(4, [1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="dim >= 2"):
        random_pairs(1, [0, 1])
    with pytest.raises(ValueError, match="square"):
        validate_projections(np.ones((2, 3, 4)))
    assert random_pairs(4, []) == []
    assert validate_projections([]) == []


# the ends of the ranges one and two 32-bit words of entropy cover
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1]


@pytest.fixture
def bulk_passes(monkeypatch):
    """The number of seeds of each bulk seeding pass, in order."""
    passes = []
    real = projections._bulk_states

    def recording(seeds):
        passes.append(len(seeds))
        return real(seeds)

    monkeypatch.setattr(projections, "_bulk_states", recording)
    return passes


@pytest.mark.parametrize("count", [2, BULK_SEEDS - 1, BULK_SEEDS, 3 * BULK_SEEDS + 6])
def test_construction_on_both_sides_of_bulk_seeding_matches_per_seed_loop(count, bulk_passes):
    # the seeds cut into calls of `count` seeds, the last perhaps shorter:
    # calls below BULK_SEEDS seed each stream with numpy, the others in one
    # bulk pass, and every seed gets the stream numpy gives it either way
    seeds = [*EDGE_SEEDS, *range(500, 500 + 3 * BULK_SEEDS)]
    dim = 5
    calls = [seeds[i : i + count] for i in range(0, len(seeds), count)]
    for call in calls:
        ranks = [1 + seed % (dim - 1) for seed in call]
        expected = [serial_random_projection(dim, rank, seed) for rank, seed in zip(ranks, call)]
        built = random_projections(dim, ranks, call)
        assert [P.tobytes() for P in built] == [P.tobytes() for P in expected], call
        for pair, seed in zip(random_pairs(dim, call), call, strict=True):
            f, g, provenance = serial_random_pair(dim, seed)
            assert (pair.f.tobytes(), pair.g.tobytes()) == (f.tobytes(), g.tobytes()), seed
            assert pair.provenance == provenance
    # random_projections: one pass per bulk-sized call; random_pairs: one for
    # the pairs' seeds of such a call and one for their members' seeds of any
    # call of BULK_SEEDS / 2 pairs or more
    expected = []
    for call in calls:
        expected += [len(call)] * (len(call) >= BULK_SEEDS)
        expected += [len(call)] * (len(call) >= BULK_SEEDS)
        expected += [2 * len(call)] * (2 * len(call) >= BULK_SEEDS)
    assert bulk_passes == expected


def test_long_calls_seed_bulk_pass_by_bulk_pass(bulk_passes, monkeypatch):
    monkeypatch.setattr(projections, "BULK_PASS", 7)
    seeds = [*EDGE_SEEDS, *range(500, 530)]
    built = random_projections(5, [2] * len(seeds), seeds)
    assert [P.tobytes() for P in built] == [serial_random_projection(5, 2, seed).tobytes()
                                           for seed in seeds]
    assert bulk_passes == [7, 7, 7, 7, 7, 1]


def test_bulk_states_match_numpy_seeding():
    # numpy's SeedSequence and PCG64 seeding, restated: this fails if numpy
    # ever changes either
    rng = np.random.default_rng(19)
    seeds = [*EDGE_SEEDS, *range(300), *rng.integers(0, 2**32, size=500).tolist(),
             *rng.integers(0, 2**64, size=2500, dtype=np.uint64).tolist()]
    assert projections._bulk_states(seeds) == [np.random.PCG64(seed).state for seed in seeds]


def numpy_seeding_error(seeds):
    """The type and text of what seeding numpy's PCG64 with each seed in turn
    first raises, or None."""
    for seed in seeds:
        try:
            np.random.PCG64(seed)
        except Exception as exc:  # noqa: BLE001  (the exception itself is compared)
            return type(exc), str(exc)
    return None


@pytest.mark.parametrize("seed", [-1, 2**64, 2**70, np.int64(7), np.uint64(2**64 - 1), 1.5,
                                  True], ids=repr)
def test_seeds_outside_the_bulk_pass_keep_numpys_streams_and_errors(seed):
    # alone, and among enough valid seeds for a bulk pass, which such a seed
    # turns into numpy's seeding of every stream: numpy's error, raised at
    # the first seed that causes it, or numpy's streams
    dim, rank = 4, 2
    for seeds in ([seed], [*range(BULK_SEEDS), seed, 3]):
        error = numpy_seeding_error(seeds)
        builds = {"random_projections": lambda: random_projections(dim, [rank] * len(seeds), seeds),
                  "random_pairs": lambda: random_pairs(dim, seeds)}
        if len(seeds) == 1:
            builds["random_projection"] = lambda: random_projection(dim, rank, seed)[np.newaxis]
        for name, build in builds.items():
            if error:
                with pytest.raises(error[0]) as excinfo:
                    build()
                assert str(excinfo.value) == error[1], name
            elif name == "random_pairs":
                for pair, s in zip(build(), seeds, strict=True):
                    f, g, _ = serial_random_pair(dim, s)
                    assert (pair.f.tobytes(), pair.g.tobytes()) == (f.tobytes(), g.tobytes())
            else:
                assert [P.tobytes() for P in build()] == [
                    serial_random_projection(dim, rank, s).tobytes() for s in seeds], name
    # rank 0 and rank dim draw nothing, so their seeds are never read
    ranks = [0, dim, *[rank] * BULK_SEEDS]
    built = random_projections(dim, ranks, [seed, seed, *range(BULK_SEEDS)])
    assert [P.tobytes() for P in built] == [serial_random_projection(dim, r, s).tobytes()
                                            for r, s in zip(ranks, [0, 0, *range(BULK_SEEDS)])]


# --- counterexample search and campaign chunks -----------------------------------------


@pytest.mark.parametrize("dim", [4, 8])
def test_chunked_search_matches_serial_loop(dim):
    capacity = stack_capacity((dim, dim))
    # one pair, a chunk short of full, full, one over, and three chunks
    for budget in (1, capacity - 1, capacity, capacity + 1, 2 * capacity + 1):
        pair, violation = find_commutator_identity_counterexample(dim, "random", budget, budget)
        f, g, expected = serial_search(dim, budget, budget)
        assert (pair.f.tobytes(), pair.g.tobytes()) == (f.tobytes(), g.tobytes()), budget
        assert bits(violation) == bits(expected), budget
        assert pair.provenance == Provenance("random", {"seed": budget})


def traced_peak(run):
    """Peak bytes tracemalloc sees while `run()` runs, after one untraced warm-up run."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_search_and_campaign_memory_does_not_grow_with_the_run():
    # Both hold one chunk of pairs at a time (the search also its best pair
    # so far), so four times the budget or the trials needs no more memory.
    step = stack_capacity((4, 4))
    search = [traced_peak(lambda: find_commutator_identity_counterexample(4, "random", budget, 0))
              for budget in (2 * step, 8 * step)]
    assert search[1] < 1.1 * search[0], search
    campaign = [traced_peak(lambda: run_trials(TrialConfig(dims=(8,), trials=trials,
                                                           checks=("theorem",))))
                for trials in (100, 400)]
    assert campaign[1] < 1.1 * campaign[0], campaign


@pytest.mark.parametrize("check, dim", [(check_lemma_product_powers, 64),
                                        (check_power_expansions, 64), (check_nw_blocks, 64),
                                        (check_lemma_product_powers, 48)])
def test_unfloored_power_loops_hold_one_run_of_degrees(check, dim):
    # With no floor, each run of degrees is measured and freed before the
    # next, so four times the loop needs no more memory. The shorter loop is
    # as long as lemma_product_power's shortest run of Grams, 8 degrees at
    # dim 64 and 11 at dim 48; a loop shorter than that is one shorter run,
    # and holds fewer Grams. (Under a floor the gap terms' Grams are held to
    # the end: power_expansion's peak on a dim-64 pair grows about 3x from 8
    # to 32 degrees.)
    pairs = random_pairs(dim, [0])
    degrees = verify.EIGVALSH_GIL_THRESHOLD // dim + 1
    peaks = [traced_peak(lambda: check(pairs, n, floor=None)) for n in (degrees, 4 * degrees)]
    assert peaks[1] < 1.1 * peaks[0], peaks

