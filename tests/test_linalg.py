import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from projpair import linalg
from projpair.linalg import (
    GRAM_MARGIN,
    NonHermitianError,
    _frobenius,
    adjoint,
    as_matrix,
    as_stack,
    cell_bounds,
    gram_bounds,
    gram_moment_bounds,
    gram_norms,
    grams,
    stack_norms,
    hermitian_eigen,
    largest_norm,
    mat_poly_eval,
    spectral_norm,
    spectral_norms,
)
from projpair.projections import reference_2x2_pair, universal_pair_approx
from reference_cells import angle_cells

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


@pytest.mark.parametrize("dim", [0, 2, 3, 8, 17, 64])
def test_eigen_reconstruction_and_orthonormality(dim):
    rng = np.random.default_rng(dim)
    a = random_hermitian(rng, dim)
    eig = hermitian_eigen(a)
    u, w = eig.eigenvectors, eig.eigenvalues
    assert (w.dtype, w.shape, u.dtype, u.shape) == (np.float64, (dim,), np.complex128, (dim, dim))
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


def test_spectral_norm_of_matrices_whose_grams_underflow():
    # entries below about 1e-154 square to subnormals or to zero, which used
    # to lose the Gram's top: such a matrix is measured scaled by a power of
    # two, a zero matrix still gives 0.0
    assert spectral_norm(1e-170 * np.eye(4)) == 1e-170
    assert spectral_norm(np.array([[5e-324]])) == 5e-324
    A = random_complex(np.random.default_rng(23), (3, 5))
    for scale in (1e-150, 1e-160, 1e-170, 1e-250, 1e-300):
        assert spectral_norm(A * scale) == pytest.approx(spectral_norm(A) * scale, rel=1e-13, abs=0)
    stack = [A, A * 1e-170, np.zeros((3, 5)), 1e-300 * np.ones((3, 5))]
    norms = spectral_norms(stack)
    assert norms == [spectral_norm(X) for X in stack]
    assert norms[2] == 0.0 and norms[3] == pytest.approx(math.sqrt(15) * 1e-300, rel=1e-13, abs=0)


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
    stack, gram = grams(mats)
    assert stack_norms(stack, gram) == list(norms)
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
            _, overflowed = grams(np.full((1, 2, 2), 1e200, dtype=complex))
        assert bound(overflowed).tolist() == [math.inf]


# --- closed-form cell bounds --------------------------------------------------------


def cell_cases():
    """(k, 4) arrays of the entries a, b, c, d of real 2 x 2 cells
    [[a, b], [c, d]]: equal singular values (x times a rotation, and the
    commutator cells [[0, x], [-x, 0]]), rank 1, the Hermitian
    [[2a, b], [b, 0]] of the anticommutator cells, and random entries."""
    rng = np.random.default_rng(31)
    x, t = rng.uniform(0.1, 2.0, 200), rng.uniform(0.0, 2 * np.pi, 200)
    c, s, zero = np.cos(t), np.sin(t), np.zeros(200)
    a, b = rng.uniform(0.0, 1.0, (2, 200))
    return {"equal singular values": np.stack([x * c, -x * s, x * s, x * c], axis=-1),
            "commutator": np.stack([zero, x, -x, zero], axis=-1),
            "rank 1": np.einsum("ki,kj->kij", *rng.standard_normal((2, 200, 2))).reshape(200, 4),
            "hermitian": np.stack([2 * a, b, b, zero], axis=-1),
            "random": rng.standard_normal((200, 4))}


def as_cells(entries) -> np.ndarray:
    """The complex (k, 2, 2) stack of the cells whose entries are the rows of entries."""
    return np.asarray(entries, dtype=float).reshape(len(entries), 2, 2).astype(np.complex128)


@pytest.mark.parametrize("case", list(cell_cases()))
def test_cell_bounds_cover_spectral_norms_within_the_margin(case):
    entries = cell_cases()[case]
    norms = np.array(spectral_norms(as_cells(entries)))
    bounds = cell_bounds(*entries.T)
    # the bound is the norm plus the margin, to about sqrt(eps) where the
    # two singular values are close: never the sqrt(2) of ||X||_F
    assert np.all(bounds >= norms)
    assert np.all(bounds <= norms * (1 + GRAM_MARGIN) * (1 + 1e-7))


@pytest.mark.parametrize("exponent", range(-150, 151, 10))
def test_cell_bounds_certify_nothing_where_the_fourth_power_underflows_or_overflows(exponent):
    # F^4 of entries near 1e-80 or below may underflow, and of entries near
    # 1e80 or above overflows: those bounds are inf, and largest_norm
    # measures every cell
    entries = np.random.default_rng(exponent + 150).standard_normal((50, 4)) * 10.0**exponent
    cells = as_cells(entries)
    norms = np.array(spectral_norms(cells))
    bounds = cell_bounds(*entries.T)
    if -70 <= exponent <= 70:
        assert np.all(bounds >= norms)
        assert np.all(bounds <= norms * (1 + GRAM_MARGIN) * (1 + 1e-7))
    else:
        assert bounds.tolist() == [math.inf] * len(bounds)
    assert largest_norm(bounds, cells.__getitem__).hex() == full_max(cells).hex()


# --- largest_norm ---------------------------------------------------------------


@pytest.fixture
def measured(monkeypatch):
    """Every matrix largest_norm hands to spectral_norms, in order."""
    mats = []
    real = linalg.spectral_norms

    def recording(stack):
        mats.extend(np.array(stack, copy=True))
        return real(stack)

    monkeypatch.setattr(linalg, "spectral_norms", recording)
    return mats


def measured_indices(measured, stack) -> list[int]:
    """The position in stack of each measured matrix, whose entries must
    match exactly one of stack's."""
    indices = []
    for m in measured:
        (hits,) = np.nonzero([np.array_equal(m, x) for x in stack])
        assert len(hits) == 1
        indices.append(int(hits[0]))
    return indices


def outcome(fn, stack):
    """fn(stack) as the hex of its value, or the type and text of what it raises."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(stack).hex()
    except Exception as exc:  # noqa: BLE001  (the exception itself is compared)
        return type(exc), str(exc)


def full_max(stack) -> float:
    return max(spectral_norms(stack))


def largest(mats) -> float:
    """largest_norm of the matrices of mats, a (k, m, n) array or a sequence of
    equally shaped matrices, by their bounds (1 + GRAM_MARGIN) ||X||_F, built
    by indexing their stack; no matrices make an empty stack."""
    stack = as_stack(mats) if len(mats) else np.zeros((0, 2, 2), dtype=complex)
    return largest_norm(_frobenius(stack) * (1.0 + GRAM_MARGIN), stack.__getitem__)


def product_stacks(grid):
    """The pq, pq - qp and pq + qp cell stacks of the grid approximant, by
    matrix products of its angle cells."""
    f, g = angle_cells(universal_pair_approx(grid).angles)
    pq, qp = np.matmul(f, g), np.matmul(g, f)
    return pq, pq - qp, pq + qp


@pytest.mark.parametrize("grid", [1, 2, 3, 4, 7, 8, 999, 1000, 4096, 10**5])
def test_largest_norm_matches_the_full_maximum_on_the_universal_stacks(grid):
    norms = universal_pair_approx(grid)._norms
    assert [x.hex() for x in norms] == [full_max(stack).hex() for stack in product_stacks(grid)]


def near_tie_stacks():
    """Seeded stacks, some spanning several STACK_BYTES stacks, with planted
    near-ties at random positions: a top matrix and copies of it scaled by
    1 - d for d of a few rounding steps, and a rank-1 matrix of the top's
    norm, whose bound is its norm times 1 + GRAM_MARGIN, scaled by 1 - d for
    d from -1 rounding step to past the margin."""
    rng = np.random.default_rng(29)
    for k, m, n in ((300, 2, 2), (3000, 2, 2), (200, 3, 5), (150, 8, 8), (12, 64, 64)):
        stack = random_complex(rng, (k, m, n)) * 0.1
        top = random_complex(rng, (m, n))
        rank_one = np.outer(random_complex(rng, m), random_complex(rng, n))
        rank_one *= spectral_norm(top) / spectral_norm(rank_one)
        planted = [top, *(top * (1 - d) for d in (2**-53, 1e-15, 1e-12))]
        planted += [rank_one * (1 - d) for d in (-(2**-52), 0, 2**-52, 0.005, 0.0099, 0.0101, 0.02)]
        positions = rng.choice(k, size=len(planted), replace=False)
        stack[positions] = planted
        yield stack


@pytest.mark.parametrize("stack", list(near_tie_stacks()), ids=lambda s: "x".join(map(str, s.shape)))
def test_largest_norm_matches_the_full_maximum_on_near_ties_measuring_each_once(stack, measured):
    value = largest(stack)
    indices = measured_indices(measured, stack)
    assert value.hex() == full_max(stack).hex()
    assert len(set(indices)) == len(indices) < len(stack)


@pytest.mark.parametrize("product", range(3), ids=["pq", "pq - qp", "pq + qp"])
def test_largest_norm_by_cell_bounds_matches_the_full_maximum_on_near_ties(product, measured):
    # the grid 10^5 cells, thousands of whose bounds reach the largest norm,
    # across several STACK_BYTES stacks, with the largest cell's copies scaled
    # by 1 - d, d from -1 rounding step to past the margin, planted among them
    cells = product_stacks(10**5)[product]
    top = cells[np.argmax(spectral_norms(cells))]
    rng = np.random.default_rng(product)
    scales = [1 - d for d in (-(2**-52), 2**-52, 1e-15, 1e-12, 0.005, 0.0099, 0.0101, 0.02)]
    cells[rng.choice(len(cells), size=len(scales), replace=False)] = [top * x for x in scales]
    entries = cells.real.reshape(len(cells), 4)
    built = []  # commutator cells at angles t and pi/2 - t can share their bits

    def build(indices):
        built.extend(indices.tolist())
        return cells[indices]

    value = largest_norm(cell_bounds(*entries.T), build)
    assert value.hex() == full_max(cells).hex()
    np.testing.assert_array_equal(np.stack(measured), cells[built])
    assert len(set(built)) == len(built) < len(cells) / 5
    assert len(built) > linalg.stack_capacity((2, 2))


def zero_norm_stacks():
    """Stacks whose norms are all zero: filled with 0.0, -0.0 or -0.0 - 0.0j."""
    return {repr(fill): np.full((5, 3, 2), fill, dtype=complex)
            for fill in (0.0, -0.0, complex(-0.0, -0.0))}


@pytest.mark.parametrize("name", list(zero_norm_stacks()))
def test_largest_norm_of_a_zero_norm_stack_measures_it_whole(name, measured):
    stack = zero_norm_stacks()[name]
    value = largest(stack)
    # the first matrix, then the whole stack in index order
    np.testing.assert_array_equal(np.stack(measured), stack[[0, 0, 1, 2, 3, 4]])
    assert repr(value) == repr(full_max(stack)) == "0.0"


def test_largest_norm_of_underflowing_grams_matches_the_full_maximum(measured):
    # entries so small that every Gram underflows to zero: each norm is
    # measured scaled by a power of two, so it is positive, and the largest
    # bound's matrix, not the first, is measured first
    tiny = random_complex(np.random.default_rng(5), (5, 3, 2)) * 1e-170
    tiny[3] *= 4
    value = largest(tiny)
    assert measured_indices(measured, tiny)[0] == 3
    assert value.hex() == full_max(tiny).hex()
    assert value == pytest.approx(spectral_norm(tiny[3] * 1e170) * 1e-170, rel=1e-14, abs=0)


def hostile_stacks():
    """Stacks spectral_norms rejects, or whose rejection depends on which
    STACK_BYTES stack (of 1024 2 x 2 matrices) it meets first, or that give
    a matrix no finite bound (a subnormal largest entry)."""
    eye = np.eye(2, dtype=complex)
    stacks = {}
    for name, entry in (("nan", np.nan), ("inf", np.inf), ("overflow", 1e200),
                        ("near overflow", 1e160)):
        stack = np.tile(eye, (3000, 1, 1))
        stack[1700, 0, 1] = entry
        stacks[name] = stack
    stack = np.tile(eye, (3000, 1, 1))
    stack[1700] = 5e-324
    stacks["subnormal matrix"] = stack
    stack = np.tile(eye, (3000, 1, 1))
    stack[100, 1, 0], stack[2500, 0, 0] = 1e200, np.nan
    stacks["overflow, then nan"] = stack
    stack = np.tile(eye, (3000, 1, 1))
    stack[100, 1, 0], stack[2500, 0, 0] = np.nan, 1e200
    stacks["nan, then overflow"] = stack
    # at dim 3 (455 matrices a stack) a Gram of 5e153 entries gives an inf
    # top, OverflowError, and one of 1e200 entries stops eigvalsh converging
    stack = np.tile(np.eye(3, dtype=complex), (1000, 1, 1))
    stack[100], stack[700] = 5e153, 1e200
    stacks["overflow, then no convergence, at dim 3"] = stack
    stacks["empty stack"] = np.zeros((0, 2, 2), dtype=complex)
    stacks["no matrices"] = []
    stacks["unequal shapes"] = [eye, np.eye(3)]
    stacks["one matrix, not a stack"] = eye
    return stacks


@pytest.mark.parametrize("name", list(hostile_stacks()))
def test_largest_norm_raises_what_spectral_norms_raises(name):
    stack = hostile_stacks()[name]
    assert outcome(largest, stack) == outcome(full_max, stack)


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
