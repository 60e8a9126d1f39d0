import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projpair.linalg import adjoint, spectral_norm
from projpair.projections import (
    PROJ_TOL,
    AngleSpec,
    DecompositionError,
    ProjectionPair,
    Provenance,
    halmos_decompose,
    load_pair_json,
    pair_from_angles,
    projection_failures,
    random_pair,
    random_projection,
    reference_2x2_pair,
    save_pair_json,
    universal_pair_approx,
    validate_projection,
    validate_projections,
)


# --- validate_projection ---------------------------------------------------------


def test_validate_identity():
    report = validate_projection(np.eye(4))
    assert report.ok
    assert report.idempotency_residual == 0.0
    assert report.hermiticity_residual == 0.0
    # a nan tol is refused rather than failing every matrix
    with pytest.raises(ValueError, match="tol must be finite and positive, got nan"):
        validate_projection(np.eye(4), tol=math.nan)


def test_validate_reference_g():
    assert validate_projection(np.full((2, 2), 0.5)).ok


def test_validate_rejects_non_hermitian():
    report = validate_projection(np.array([[1.0, 1.0], [0.0, 0.0]]))
    assert not report.ok
    assert report.hermiticity_residual > report.tol


# --- projection_failures -----------------------------------------------------------

BOUNDARY_TOL = 1e-6


def _range_bump(size: float) -> np.ndarray:
    """A seeded dim-6 projection P plus eps v v*, v a unit vector in its range,
    with eps + eps^2 = size: the idempotency gap is then (eps + eps^2) v v*,
    rank one, so its spectral and Frobenius norms agree, and the Hermiticity
    gap is 0."""
    P = random_projection(6, 3, 17)
    v = P[:, 0] / np.linalg.norm(P[:, 0])
    eps = 2 * size / (1 + math.sqrt(1 + 4 * size))
    return P + eps * np.outer(v, v.conj())


def test_projection_failures_certifies_below_half_tol(eigvalsh_calls):
    assert projection_failures([_range_bump(0.4 * BOUNDARY_TOL)], BOUNDARY_TOL) == []
    assert eigvalsh_calls == []


def test_projection_failures_measures_between_half_tol_and_tol(eigvalsh_calls):
    member = _range_bump(0.6 * BOUNDARY_TOL)
    assert projection_failures([member], BOUNDARY_TOL) == []
    assert eigvalsh_calls
    assert validate_projection(member, BOUNDARY_TOL).ok


def test_projection_failures_returns_exact_report_above_tol():
    members = [random_projection(6, 2, 3), _range_bump(1.5 * BOUNDARY_TOL)]
    [(position, report)] = projection_failures(members, BOUNDARY_TOL)
    assert position == 1
    assert report == validate_projection(members[1], BOUNDARY_TOL)
    assert report.idempotency_residual == pytest.approx(1.5 * BOUNDARY_TOL)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_projection_failures_raises_validation_errors():
    nan, gram_overflow, square_overflow = (random_projection(4, 2, 0) for _ in range(3))
    nan[1, 2] = math.nan
    gram_overflow[1, 2] = 1e200  # P^2 - P is finite, its Gram product is not
    square_overflow[1, 2] = square_overflow[2, 1] = 1e200
    for mats in ([np.eye(4), nan], [np.eye(4), gram_overflow], [square_overflow],
                 np.ones((2, 3, 4))):
        with pytest.raises(Exception) as exact:
            validate_projections(mats)
        with pytest.raises(type(exact.value), match=re.escape(str(exact.value))):
            projection_failures(mats)
    for tol in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="tol must be finite and positive"):
            projection_failures([np.eye(4)], tol)
    assert projection_failures([]) == []


def test_validators_fail_a_projection_too_small_for_its_gram():
    # P = 1e-170 I_4 is no projection: P^2 - P = -1e-170 I_4, whose Gram and
    # squared entries underflow to zero, so neither the norm nor the
    # Frobenius certificate may read them as 0
    P = 1e-170 * np.eye(4)
    report = validate_projection(P, tol=1e-300)
    assert (report.idempotency_residual, report.hermiticity_residual) == (1e-170, 0.0)
    assert not report.ok
    assert projection_failures([np.eye(4), P], tol=1e-300) == [(1, report)]


@settings(max_examples=60, deadline=None)
@given(
    dim=st.sampled_from([2, 3, 5, 8]),
    members=st.lists(
        st.tuples(st.integers(0, 2**32), st.floats(-14, -6), st.booleans()),
        min_size=1, max_size=6,
    ),
    log_tol=st.floats(-14, -6),
)
def test_projection_failures_agrees_with_validate_projections(dim, members, log_tol):
    # seeded projections plus Hermitian or non-Hermitian perturbations of
    # spectral size 10^u, on either side of tol and tol / 2
    mats = []
    for seed, log_size, hermitian in members:
        rng = np.random.default_rng(seed)
        E = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if hermitian:
            E = E + adjoint(E)
        rank = int(rng.integers(0, dim + 1))
        mats.append(random_projection(dim, rank, seed) + 10**log_size * E / spectral_norm(E))
    tol = 10**log_tol
    expected = [(i, r) for i, r in enumerate(validate_projections(mats, tol)) if not r.ok]
    assert projection_failures(mats, tol) == expected


# --- random_projection -------------------------------------------------------------


def test_random_projection_zero_rank():
    np.testing.assert_array_equal(random_projection(4, 0, 5), np.zeros((4, 4)))


def test_random_projection_full_rank():
    np.testing.assert_allclose(random_projection(4, 4, 5), np.eye(4), atol=1e-12)


def test_random_projection_trace_equals_rank():
    p = random_projection(8, 3, 42)
    assert abs(np.trace(p).real - 3.0) <= 1e-10
    assert abs(np.trace(p).imag) <= 1e-12


def test_random_projection_is_projection():
    for seed in range(10):
        p = random_projection(9, 4, seed)
        assert validate_projection(p, PROJ_TOL).ok


def test_random_projection_deterministic():
    a = random_projection(6, 2, 123)
    b = random_projection(6, 2, 123)
    np.testing.assert_array_equal(a, b)
    c = random_projection(6, 2, 124)
    assert not np.array_equal(a, c)


def test_random_projection_rank_out_of_range():
    with pytest.raises(ValueError):
        random_projection(4, 5, 0)
    with pytest.raises(ValueError):
        random_projection(4, -1, 0)


def test_box_muller_stream_is_plausibly_normal():
    from projpair.projections import _box_muller_normals

    rng = np.random.Generator(np.random.PCG64(1))
    z = _box_muller_normals(rng.random(10000), rng.random(10000), 20000)
    assert z.shape == (20000,)
    assert abs(float(np.mean(z))) < 0.05
    assert abs(float(np.std(z)) - 1.0) < 0.05


def test_random_pair_ranks_and_determinism():
    pair1 = random_pair(8, 99)
    pair2 = random_pair(8, 99)
    np.testing.assert_array_equal(pair1.f, pair2.f)
    np.testing.assert_array_equal(pair1.g, pair2.g)
    assert pair1.provenance.tag == "random"
    assert 1 <= pair1.provenance.params["rank_f"] <= 7
    with pytest.raises(ValueError):
        random_pair(1, 0)


# --- pair_from_angles -----------------------------------------------------------------


def test_zero_angle_gives_equal_projections():
    pair = pair_from_angles(AngleSpec((0.0,)))
    np.testing.assert_allclose(pair.f, pair.g, atol=0)
    assert spectral_norm(pair.f @ pair.g) == pytest.approx(1.0, abs=1e-14)


def test_quarter_pi_angle_norms():
    pair = pair_from_angles(AngleSpec((math.pi / 4,)))
    fg = pair.f @ pair.g
    gf = pair.g @ pair.f
    assert spectral_norm(fg) == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
    assert spectral_norm(fg - gf) == pytest.approx(0.5, abs=1e-14)


def test_right_angle_orthogonal_ranges():
    pair = pair_from_angles(AngleSpec((math.pi / 2,)))
    np.testing.assert_allclose(pair.f @ pair.g, np.zeros((2, 2)), atol=1e-16)


def test_extra_dims_layout():
    spec = AngleSpec((math.pi / 3,), extra_f_dims=2, extra_g_dims=1)
    pair = pair_from_angles(spec)
    assert pair.dim == 5
    assert validate_projection(pair.f).ok and validate_projection(pair.g).ok
    # extra f coordinates: f acts alone there
    assert pair.f[2, 2] == 1 and pair.g[2, 2] == 0
    assert pair.f[4, 4] == 0 and pair.g[4, 4] == 1


def test_product_norm_is_max_cosine():
    angles = (0.1, 0.7, 1.2, math.pi / 2)
    pair = pair_from_angles(AngleSpec(angles, extra_f_dims=1, extra_g_dims=1))
    expected = max(math.cos(t) for t in angles)
    assert spectral_norm(pair.f @ pair.g) == pytest.approx(expected, abs=1e-10)


def test_angle_out_of_range_rejected():
    with pytest.raises(ValueError):
        AngleSpec((1.8,))
    with pytest.raises(ValueError):
        AngleSpec((-0.1,))
    with pytest.raises(ValueError):
        AngleSpec(())


# --- reference pair fixture --------------------------------------------------------------


def test_reference_pair_matrices():
    pair = reference_2x2_pair()
    np.testing.assert_array_equal(pair.f, np.array([[1, 0], [0, 0]], dtype=complex))
    np.testing.assert_array_equal(pair.g, np.full((2, 2), 0.5, dtype=complex))


def test_reference_pair_product_norm():
    pair = reference_2x2_pair()
    assert spectral_norm(pair.f @ pair.g) == pytest.approx(1 / math.sqrt(2), abs=1e-14)


def test_reference_pair_commutator_norm():
    pair = reference_2x2_pair()
    comm = pair.f @ pair.g - pair.g @ pair.f
    assert spectral_norm(comm) == pytest.approx(0.5, abs=1e-14)


def test_reference_pair_anticommutator_by_quadratic_formula():
    # independent oracle: ab + ba = [[1, 1/2], [1/2, 0]] has eigenvalues
    # (1 +- sqrt(2))/2 by the characteristic equation x^2 - x - 1/4 = 0
    pair = reference_2x2_pair()
    anti = pair.f @ pair.g + pair.g @ pair.f
    np.testing.assert_allclose(anti, np.array([[1.0, 0.5], [0.5, 0.0]]), atol=1e-16)
    oracle = (1 + math.sqrt(2)) / 2
    assert spectral_norm(anti) == pytest.approx(oracle, abs=1e-14)
    assert oracle == pytest.approx(1.2071067811865475, abs=1e-15)


# --- halmos_decompose ------------------------------------------------------------------


def test_decompose_reference_pair():
    blocks = halmos_decompose(reference_2x2_pair())
    np.testing.assert_allclose(blocks.D, [[0.5]], atol=1e-14)
    np.testing.assert_allclose(np.abs(blocks.V), [[0.5]], atol=1e-14)
    np.testing.assert_allclose(blocks.Dprime, [[0.5]], atol=1e-14)
    # D - D^2 = VV*: 1/2 - 1/4 = 1/4
    np.testing.assert_allclose(blocks.D - blocks.D @ blocks.D, [[0.25]], atol=1e-14)


@pytest.mark.parametrize("theta", [0.2, 0.9, 1.4])
def test_decompose_single_angle_cell(theta):
    pair = pair_from_angles(AngleSpec((theta,)))
    blocks = halmos_decompose(pair)
    np.testing.assert_allclose(blocks.D, [[math.cos(theta) ** 2]], atol=1e-12)


def test_decompose_full_range_f():
    pair = ProjectionPair(np.eye(3), np.eye(3), 3, Provenance("angles"))
    blocks = halmos_decompose(pair)
    np.testing.assert_allclose(blocks.D, np.eye(3), atol=1e-14)
    assert blocks.V.shape == (3, 0)
    assert blocks.Dprime.shape == (0, 0)


def test_decompose_identity_f_keeps_g_verbatim():
    # with f = I the whole space is range(f), so D is g itself
    g = pair_from_angles(AngleSpec((0.7,))).g
    pair = ProjectionPair(np.eye(2), g, 2, Provenance("angles"))
    blocks = halmos_decompose(pair)
    np.testing.assert_allclose(blocks.D, g, atol=1e-14)


def test_decompose_zero_f():
    pair = ProjectionPair(np.zeros((3, 3)), np.eye(3), 3, Provenance("angles"))
    blocks = halmos_decompose(pair)
    assert blocks.D.shape == (0, 0)
    np.testing.assert_allclose(blocks.Dprime, np.eye(3), atol=1e-14)


def test_decompose_rejects_non_projection_f():
    pair = ProjectionPair(0.5 * np.eye(2), np.eye(2), 2, Provenance("angles"))
    with pytest.raises(DecompositionError):
        halmos_decompose(pair)


def test_decompose_reports_residuals_for_non_projection_g():
    # f is fine but g = I/2 breaks the block relations; the error carries them
    pair = ProjectionPair(np.diag([1.0, 0.0]), 0.5 * np.eye(2), 2, Provenance("angles"))
    with pytest.raises(DecompositionError) as excinfo:
        halmos_decompose(pair)
    residuals = excinfo.value.residuals
    assert residuals and residuals["range_block"] == pytest.approx(0.25, abs=1e-12)
    # an infinite tol would let these residuals through
    with pytest.raises(ValueError, match="tol must be finite and positive, got inf"):
        halmos_decompose(pair, tol=math.inf)


def test_decompose_blocks_hermitian_psd():
    for seed in range(10):
        blocks = halmos_decompose(random_pair(9, 3000 + seed))
        for block in (blocks.D, blocks.Dprime):
            if block.size == 0:
                continue
            assert spectral_norm(block - adjoint(block)) <= PROJ_TOL
            eigenvalues = np.linalg.eigvalsh((block + adjoint(block)) / 2)
            assert float(eigenvalues.min()) >= -PROJ_TOL


def test_decompose_reassembles_pair():
    for seed in range(20):
        pair = random_pair(12, seed)
        blocks = halmos_decompose(pair)
        r = blocks.D.shape[0]
        embedded = np.block(
            [[blocks.D, blocks.V], [adjoint(blocks.V), blocks.Dprime]]
        )
        g_back = blocks.basis @ embedded @ adjoint(blocks.basis)
        assert spectral_norm(g_back - pair.g) <= 10 * PROJ_TOL
        f_model = np.zeros((pair.dim, pair.dim), dtype=complex)
        f_model[:r, :r] = np.eye(r)
        f_back = blocks.basis @ f_model @ adjoint(blocks.basis)
        assert spectral_norm(f_back - pair.f) <= 10 * PROJ_TOL


def test_decompose_relation_residuals_small():
    for seed in range(20):
        blocks = halmos_decompose(random_pair(16, 1000 + seed))
        residuals = blocks.relation_residuals
        assert max(residuals.values()) <= 1e-9


def test_decompose_norm_identity():
    for seed in range(20):
        pair = random_pair(10, 2000 + seed)
        blocks = halmos_decompose(pair)
        norm_fg_sq = spectral_norm(pair.f @ pair.g) ** 2
        assert abs(norm_fg_sq - spectral_norm(blocks.D)) <= 1e-9


# --- universal grid approximant ------------------------------------------------------------


def test_universal_single_cell_grid():
    approx = universal_pair_approx(1)
    assert approx.angles == (math.pi / 4,)
    assert approx.norm_product() == pytest.approx(math.sqrt(2) / 2, abs=1e-14)
    assert approx.norm_commutator() == pytest.approx(0.5, abs=1e-14)


def test_universal_grid_inserts_quarter_pi():
    approx = universal_pair_approx(4)  # even grid misses pi/4
    assert math.pi / 4 in approx.angles
    assert len(approx.angles) == 5
    approx_odd = universal_pair_approx(3)
    assert math.pi / 4 in approx_odd.angles
    assert len(approx_odd.angles) == 3


def test_universal_grid_matches_the_python_formula_bit_for_bit():
    # the numpy pass divides and multiplies once per angle, as this loop does
    for k in [*range(1, 1100), 4096, 10**5, 10**6 - 1, 10**6]:
        expected = [(i / (k + 1)) * (math.pi / 2) for i in range(1, k + 1)]
        if math.pi / 4 not in expected:
            expected = sorted([*expected, math.pi / 4])
        angles = universal_pair_approx(k).angles
        assert type(angles) is tuple and all(type(t) is float for t in angles)
        assert angles == tuple(expected)


def test_universal_blockwise_matches_dense():
    approx = universal_pair_approx(4)
    pair = approx.materialize()
    assert pair.provenance.tag == "universal_grid"
    fg = pair.f @ pair.g
    gf = pair.g @ pair.f
    assert approx.norm_product() == pytest.approx(spectral_norm(fg), abs=1e-12)
    assert approx.norm_commutator() == pytest.approx(spectral_norm(fg - gf), abs=1e-12)
    assert approx.norm_anticommutator() == pytest.approx(spectral_norm(fg + gf), abs=1e-12)


def test_universal_limits_at_k999():
    approx = universal_pair_approx(999)
    assert approx.norm_product() >= 1 - 1e-5
    assert abs(approx.norm_commutator() - 0.5) <= 1e-5
    assert approx.anticommutator_residual() <= 1e-10


@pytest.mark.parametrize("k", [1, 2, 7, 50])
def test_universal_commutator_never_exceeds_half(k):
    assert universal_pair_approx(k).norm_commutator() <= 0.5 + 1e-12


def test_universal_rejects_bad_grid():
    with pytest.raises(ValueError):
        universal_pair_approx(0)


# --- pair JSON round trip ---------------------------------------------------------------------


def test_pair_json_round_trip(tmp_path):
    path = tmp_path / "pair.json"
    pair = random_pair(5, 77)
    save_pair_json(pair, path)
    loaded = load_pair_json(path)
    assert loaded.dim == 5
    assert loaded.provenance.tag == "file"
    np.testing.assert_array_equal(loaded.f, pair.f)
    np.testing.assert_array_equal(loaded.g, pair.g)


def test_pair_json_rejects_non_finite(tmp_path):
    path = tmp_path / "bad.json"
    entries = [[0.0, 0.0]] * 4
    # json emits bare NaN, loads accepts it; JSON booleans load as Python bools,
    # which isinstance counts as ints
    for entry, match in (([float("nan"), 0.0], "non-finite"), ([True, False], "non-numeric")):
        payload = {"dim": 2, "f": [entry] + entries[1:], "g": entries}
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=match):
            load_pair_json(path)


def test_pair_json_rejects_wrong_length(tmp_path):
    path = tmp_path / "short.json"
    path.write_text(json.dumps({"dim": 2, "f": [[1.0, 0.0]], "g": [[1.0, 0.0]] * 4}))
    with pytest.raises(ValueError, match="flat list"):
        load_pair_json(path)


def test_pair_json_rejects_bad_dim(tmp_path):
    path = tmp_path / "dim.json"
    for dim in (0, True):
        path.write_text(json.dumps({"dim": dim, "f": [[1.0, 0.0]], "g": [[1.0, 0.0]]}))
        with pytest.raises(ValueError, match="dim"):
            load_pair_json(path)
