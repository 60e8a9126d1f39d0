"""projections.Spectrum, the two-subspace cell model, against the per-cell
construction it replaced and against dense norms and checks."""

import math

import numpy as np
import pytest

from projpair.projections import (
    AngleSpec,
    Provenance,
    Spectrum,
    pair_from_angles,
    projection_failures,
    universal_pair_approx,
)
from projpair.verify import CHECKS, DEFAULT_TOL, TrialConfig
from reference_cells import cell_loop_members
from test_stacking import EPS, PAIRS, rotated

# --- bit equality with the per-cell loop ---------------------------------------------

QUARTER = math.pi / 4
RIGHT = math.pi / 2
# (angles, extra_f_dims, extra_g_dims) of every AngleSpec the tests build,
# and the deterministic counterexample's angles at the even dims 4 to 64
TEST_SPECS = [
    *(((t,), 0, 0) for t in (0.0, QUARTER, RIGHT, 0.2, 0.3, 0.7, 0.8, 0.9, 1.2, 1.4)),
    ((math.pi / 3,), 2, 1),
    ((0.1, 0.7, 1.2, RIGHT), 1, 1),
    ((0.0, RIGHT, 0.3), 1, 2),
    ((0.7,), 4, 0),
    ((0.7,), 3, 0),
    ((1.1,), 5, 0),
    ((1.1,), 3, 0),
    ((), 0, 5),
    ((), 5, 0),
    ((EPS, RIGHT - EPS, 2 * EPS), 0, 0),
    ((EPS, RIGHT - EPS, 2 * EPS), 0, 1),
    ((QUARTER,) * 16, 0, 0),
    ((0.3,) * 16, 0, 0),
    ((0.3, 0.9), 0, 0),
    ((0.3, 0.9), 0, 1),
    *(((0.0,) + (QUARTER,) * (dim // 2 - 1), 0, 0) for dim in range(4, 65, 2)),
]


def random_specs(count=40):
    """Seeded angle lists of 0 to 12 angles, uniform in [0, pi/2] with exact
    0, pi/4 and pi/2 and tiny angles mixed in, and 0 to 3 extra dimensions of
    each kind."""
    rng = np.random.default_rng(2024)
    specs = []
    while len(specs) < count:
        angles = rng.uniform(0.0, RIGHT, rng.integers(0, 13))
        special = rng.random(len(angles)) < 0.25
        angles[special] = rng.choice([0.0, QUARTER, RIGHT, 1e-9, RIGHT - 1e-9], special.sum())
        extra_f, extra_g = (int(n) for n in rng.integers(0, 4, 2))
        if len(angles) or extra_f + extra_g:
            specs.append((tuple(angles.tolist()), extra_f, extra_g))
    return specs


def assert_members_bit_equal(pair, angles, extra_f, extra_g):
    f, g = cell_loop_members(angles, extra_f, extra_g)
    for got, want in ((pair.f, f), (pair.g, g)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("angles, extra_f, extra_g", TEST_SPECS + random_specs())
def test_pair_from_angles_matches_the_cell_loop_bit_for_bit(angles, extra_f, extra_g):
    pair = pair_from_angles(AngleSpec(angles, extra_f, extra_g))
    assert pair.dim == 2 * len(angles) + extra_f + extra_g
    assert_members_bit_equal(pair, angles, extra_f, extra_g)


def test_universal_grids_match_the_cell_loop_bit_for_bit():
    for k in range(1, 65):
        approx = universal_pair_approx(k)
        assert_members_bit_equal(pair_from_angles(AngleSpec(approx.angles)), approx.angles, 0, 0)
        pair = approx.materialize()
        assert pair.provenance == Provenance("universal_grid",
                                             {"grid_size": k, "cells": len(approx.angles)})
        assert_members_bit_equal(pair, approx.angles, 0, 0)


# --- the spectrum's own members ----------------------------------------------------------


def test_from_angles_keeps_cosines_and_sines_and_counts():
    angles = (0.0, 0.4, RIGHT)
    spectrum = Spectrum.from_angles(angles, only_f=2, only_g=3)
    assert spectrum.cos.tobytes() == np.cos(np.array(angles)).tobytes()
    assert spectrum.sin.tobytes() == np.sin(np.array(angles)).tobytes()
    assert (spectrum.only_f, spectrum.only_g, spectrum.dim) == (2, 3, 11)


def test_norm_without_cells_is_zero():
    for spectrum in (Spectrum.from_angles((), only_f=3), Spectrum.from_angles((), only_g=2)):
        assert [spectrum.norm(word) for word in ("fg", "comm", "anti")] == [0.0, 0.0, 0.0]
    with pytest.raises(KeyError):
        Spectrum.from_angles((0.3,)).norm("gf")


# --- a second path for structured pairs ------------------------------------------------

STRUCTURED = ("equal", "orthogonal", "intersecting_and_orthogonal", "rank_dim_minus_1",
              "f_zero", "f_identity", "nearly_commuting")
ROTATIONS = range(1, 21)
# Largest |dense norm - spectrum norm| / (dim eps) over these pairs, both as
# built and rotated by ROTATIONS, was 5.0: ||fg + gf|| of "equal" rotated by
# seed 14 (2-vCPU x86, numpy 2.4). K leaves room for another BLAS's rounding.
K = 8


def spectrum_of(pair) -> Spectrum:
    params = pair.provenance.params
    return Spectrum.from_angles(params["angles"], params["extra_f_dims"], params["extra_g_dims"])


@pytest.mark.parametrize("name", STRUCTURED)
def test_dense_norms_and_checks_agree_with_the_spectrum(name):
    built = PAIRS[name]
    spectrum = spectrum_of(built)
    assert spectrum.dim == built.dim
    config = TrialConfig(dims=(built.dim,), tol=DEFAULT_TOL)
    for pair in (built, *(rotated(built, seed) for seed in ROTATIONS)):
        bound = K * pair.dim * np.finfo(float).eps
        for word, dense in (("fg", pair.norm_fg), ("comm", pair.norm_comm),
                            ("anti", pair.norm_anti)):
            assert abs(dense - spectrum.norm(word)) <= bound, (word, pair.provenance)
        for check, run in CHECKS.items():
            report = run([pair], config, None)[0]
            assert report.passed, (check, pair.provenance, report.residual)


# The pairs the proofs turn on, as Spectrum cells, each in seeded bases that
# are not axis-aligned
PROOF_SPECTRA = {
    "intersecting": Spectrum.from_angles((0.0, 0.4, 1.1), only_f=1, only_g=1),
    "orthogonal": Spectrum.from_angles((RIGHT,) * 3, only_g=2),
    "nearly_commuting": Spectrum.from_angles((1e-7, RIGHT - 1e-7, 1e-9)),
    "rank_1_f": Spectrum.from_angles((0.7,), only_g=5),
    "rank_dim_minus_1_f": Spectrum.from_angles((1.1,), only_f=5),
}


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("name", PROOF_SPECTRA)
def test_proof_pairs_in_random_bases_match_their_spectrum(name, seed):
    # Over these pairs and seeds the largest |dense norm - spectrum norm|
    # was 11 eps (2.4e-15) and the largest residual 67 eps (1.5e-14), on a
    # 2-vCPU x86 with numpy 2.4
    spectrum = PROOF_SPECTRA[name]
    pair = rotated(spectrum.realize(Provenance("angles")), seed)
    assert projection_failures([pair.f, pair.g]) == []
    for word, dense in (("fg", pair.norm_fg), ("anti", pair.norm_anti),
                        ("comm", pair.norm_comm)):
        assert abs(dense - spectrum.norm(word)) <= 1e-13, word
    config = TrialConfig(dims=(pair.dim,))
    for check, run in CHECKS.items():
        report = run([pair], config, None)[0]
        assert report.passed and report.residual <= 1e-13, (check, report.residual)
