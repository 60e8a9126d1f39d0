import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projpair.linalg import (
    GRAM_MARGIN,
    NonHermitianError,
    adjoint,
    as_matrix,
    gram_bounds,
    gram_moment_bounds,
    gram_norms,
    grams,
    hermitian_eigen,
    mat_poly_eval,
    max_spectral_norm,
    spectral_norm,
    spectral_norms,
)
from projpair.projections import reference_2x2_pair

# Accuracy the eigensolver is held to (residuals, orthonormality).
EIG_TOL = 1e-9


def random_complex(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_hermitian(rng, dim):
    a = random_complex(rng, (dim, dim))
    return (a + a.conj().T) / 2


# --- as_matrix ---------------------------------------------------------------


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 3)))


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[1.0, 1j * np.inf], [0.0, 1.0]]))


@pytest.mark.parametrize("call, square", [
    (spectral_norm, False),
    (hermitian_eigen, True),
    (lambda A: mat_poly_eval([1, 2], A), True),
], ids=["spectral_norm", "hermitian_eigen", "mat_poly_eval"])
def test_one_matrix_calls_reject_malformed_input(call, square):
    # the stacked forms these pass their matrix to do the checking
    bad = [np.array([[1.0, np.nan], [0.0, 1.0]]), np.ones(3), np.ones((2, 2, 2))]
    if square:
        bad.append(np.ones((2, 3)))
    for A in bad:
        with pytest.raises(ValueError):
            call(A)


# --- adjoint -----------------------------------------------------------------


def test_adjoint_identity():
    np.testing.assert_array_equal(adjoint(np.eye(3)), np.eye(3, dtype=complex))


def test_adjoint_real_transpose():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_array_equal(adjoint(a), np.array([[0.0, 0.0], [1.0, 0.0]]))


def test_adjoint_is_involution():
    rng = np.random.default_rng(7)
    for _ in range(10):
        a = random_complex(rng, (5, 5))
        np.testing.assert_array_equal(adjoint(adjoint(a)), a)


def test_adjoint_conjugates():
    a = np.array([[1 + 2j]])
    assert adjoint(a)[0, 0] == 1 - 2j


# --- hermitian_eigen ----------------------------------------------------------


def test_eigen_diagonal_sorted_descending():
    eig = hermitian_eigen(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(eig.eigenvalues, [3.0, 2.0, 1.0], atol=1e-14)


def test_eigen_rank_one_projection():
    eig = hermitian_eigen(np.full((2, 2), 0.5))
    np.testing.assert_allclose(eig.eigenvalues, [1.0, 0.0], atol=1e-14)


def test_eigen_reference_fgf():
    # fgf for the reference pair is (1/2)[[1,0],[0,0]]: eigenvalues 1/2 and 0
    pair = reference_2x2_pair()
    fgf = pair.f @ pair.g @ pair.f
    eig = hermitian_eigen(fgf)
    np.testing.assert_allclose(eig.eigenvalues, [0.5, 0.0], atol=1e-14)


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NonHermitianError):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("dim", [2, 3, 8, 17, 64])
def test_eigen_reconstruction_and_orthonormality(dim):
    rng = np.random.default_rng(dim)
    a = random_hermitian(rng, dim)
    eig = hermitian_eigen(a)
    u, w = eig.eigenvectors, eig.eigenvalues
    assert list(w) == sorted(w, reverse=True)
    rebuilt = u @ np.diag(w) @ u.conj().T
    norm_a = spectral_norm(a)
    assert spectral_norm(a - rebuilt) <= 1e-10 * max(1.0, norm_a)
    assert spectral_norm(u @ u.conj().T - np.eye(dim)) <= EIG_TOL
    # per-pair residuals
    for i in range(dim):
        v = u[:, i]
        assert np.linalg.norm(a @ v - w[i] * v) <= EIG_TOL * max(1.0, norm_a)


def test_eigen_deterministic():
    rng = np.random.default_rng(3)
    a = random_hermitian(rng, 12)
    e1 = hermitian_eigen(a)
    e2 = hermitian_eigen(a.copy())
    np.testing.assert_array_equal(e1.eigenvalues, e2.eigenvalues)
    np.testing.assert_array_equal(e1.eigenvectors, e2.eigenvectors)


# --- spectral_norm -------------------------------------------------------------


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, abs=1e-14)


def test_spectral_norm_zero():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_norm_hand_value():
    # A adjoint(A) = [[2,0],[0,0]] by hand, so the norm is sqrt(2)
    a = np.array([[1.0, 1.0], [0.0, 0.0]])
    assert spectral_norm(a) == pytest.approx(math.sqrt(2), abs=1e-14)


def test_spectral_norm_rectangular():
    row = np.array([[1.0, 1.0, 1.0]])
    assert spectral_norm(row) == pytest.approx(math.sqrt(3), abs=1e-14)
    assert spectral_norm(np.zeros((0, 3))) == 0.0


def test_spectral_norm_submultiplicative():
    rng = np.random.default_rng(11)
    for _ in range(50):
        a = random_complex(rng, (6, 6))
        b = random_complex(rng, (6, 6))
        assert spectral_norm(a @ b) <= spectral_norm(a) * spectral_norm(b) + 1e-10


def test_spectral_norm_adjoint_invariant():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_complex(rng, (7, 7))
        assert abs(spectral_norm(adjoint(a)) - spectral_norm(a)) <= 1e-12


def test_gram_norms_root_rule(monkeypatch):
    # a -0.0 top keeps its sign, a slightly negative top is clamped to 0.0,
    # and a nan or inf top (an overflowed Gram) raises instead of passing on
    # a non-finite norm
    gram = np.zeros((1, 2, 2), dtype=complex)
    for top, root in ((-0.0, "-0.0"), (-1e-17, "0.0"), (math.nan, None), (math.inf, None)):
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda _: np.array([[-1.0, top]]))
        if root is None:
            with pytest.raises(OverflowError, match="overflows"):
                gram_norms(gram)
        else:
            assert repr(gram_norms(gram)[0]) == root


@pytest.mark.parametrize("entry", [1e160, 1e200, 1e300])
def test_spectral_norms_reject_overflowing_grams(entry):
    # finite input whose Gram overflows: at dim 2 the eigensolver returns a
    # nan top rather than an error, which must not come out as a norm
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(OverflowError, match="overflows"):
            spectral_norms([[[1.0, entry], [0.0, 0.0]]])


def test_max_spectral_norm_is_blockwise_spectral_norm():
    rng = np.random.default_rng(17)
    for shape in ((3, 3), (4, 2), (5, 3, 3), (4, 2, 5), (2, 3, 4, 4)):
        a = random_complex(rng, shape)
        expected = max(spectral_norm(c) for c in a.reshape(-1, *shape[-2:]))
        assert max_spectral_norm(a) == expected  # exact: the same arithmetic per block


# --- Gram bounds ----------------------------------------------------------------


def bound_cases():
    """Stacks of 6 x 4 matrices: random, rank 1, zero, and random scaled so
    that their Grams' sums of squares underflow or overflow."""
    rng = np.random.default_rng(11)
    mats = random_complex(rng, (5, 6, 4))
    rank_one = np.einsum("ki,kj->kij", random_complex(rng, (5, 6)), random_complex(rng, (5, 4)))
    return {"random": mats, "rank 1": rank_one, "zero": np.zeros((2, 6, 4), dtype=complex),
            "1e-150": mats * 1e-150, "1e150": mats * 1e150}


@pytest.mark.parametrize("case", list(bound_cases()))
def test_gram_bounds_cover_spectral_norms(case):
    mats = bound_cases()[case]
    norms = np.array(spectral_norms(mats))
    gram = grams(mats)
    assert gram_norms(gram) == list(norms)
    frobenius, moment = gram_bounds(gram), gram_moment_bounds(gram)
    assert np.all(moment >= norms) and np.all(frobenius >= norms)
    assert np.all(moment <= frobenius * (1 + 1e-12))
    if case == "rank 1":  # G = |v|^2 w w*: both bounds are the norm, plus the margin
        np.testing.assert_allclose(moment, norms * (1 + GRAM_MARGIN), rtol=1e-12)
    if case == "zero":
        assert frobenius.tolist() == moment.tolist() == [0.0, 0.0]
    else:
        assert np.all(moment <= norms * 1.5)


def test_gram_bounds_certify_nothing_for_non_finite_or_subnormal_grams():
    eye = np.eye(3, dtype=complex)
    bad = [np.full((3, 3), np.nan, dtype=complex), np.where(eye, np.inf, 0).astype(complex),
           np.where(eye, complex(0, -np.inf), 0), eye * 1e-310,
           np.full((3, 3), 5e-324, dtype=complex)]
    for bound in (gram_bounds, gram_moment_bounds):
        alone = bound(eye[np.newaxis]).tolist()
        assert alone[0] >= 1.0
        for gram in bad:
            stack = np.stack([eye, gram, np.zeros((3, 3), dtype=complex)])
            assert bound(stack).tolist() == alone + [math.inf, 0.0]
        assert bound(np.zeros((2, 0, 0), dtype=complex)).tolist() == [0.0, 0.0]
        with np.errstate(over="ignore", invalid="ignore"):
            overflowed = grams(np.full((1, 2, 2), 1e200, dtype=complex))
        assert bound(overflowed).tolist() == [math.inf]


# --- mat_poly_eval --------------------------------------------------------------


def test_poly_eval_linear_is_identity_map():
    rng = np.random.default_rng(2)
    a = random_complex(rng, (4, 4))
    np.testing.assert_allclose(mat_poly_eval([0, 1], a), a, atol=0)


def test_poly_eval_constant_gives_identity():
    a = np.zeros((3, 3))
    np.testing.assert_array_equal(mat_poly_eval([1], a), np.eye(3, dtype=complex))


def test_poly_eval_zero_polynomial():
    a = np.eye(2)
    np.testing.assert_array_equal(mat_poly_eval([], a), np.zeros((2, 2), dtype=complex))


def test_poly_eval_square_of_reference_product():
    # (fg)^2 = (1/2) fg for the reference pair; oracle is direct multiplication
    pair = reference_2x2_pair()
    fg = pair.f @ pair.g
    brute = fg @ fg
    np.testing.assert_allclose(mat_poly_eval([0, 0, 1], fg), brute, atol=1e-15)
    np.testing.assert_allclose(brute, 0.5 * fg, atol=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    p=st.lists(st.integers(-50, 50), min_size=0, max_size=11),
    q=st.lists(st.integers(-50, 50), min_size=0, max_size=11),
)
def test_poly_eval_additive(p, q):
    rng = np.random.default_rng(17)
    a = random_complex(rng, (5, 5))
    a = a / max(spectral_norm(a), 1.0)  # keep powers bounded
    total = [0] * max(len(p), len(q))
    for i, c in enumerate(p):
        total[i] += c
    for i, c in enumerate(q):
        total[i] += c
    lhs = mat_poly_eval(total, a)
    rhs = mat_poly_eval(p, a) + mat_poly_eval(q, a)
    assert spectral_norm(lhs - rhs) <= 1e-9
