# src/projpair/linalg.py

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

# Hermiticity acceptance threshold, relative to max(1, Frobenius norm).
HERM_TOL = 1e-10
# Most bytes of matrices that one stack holds, for one eigensolve or Horner
# pass; stack_slices splits longer sequences. Stacking pays at small dims,
# where call overhead dominates; from dim 46 a stack holds one complex
# matrix, and at dim >= 64 one fills the budget, so large matrices go one at
# a time, as unstacked calls do.
STACK_BYTES = 1 << 16


class NonHermitianError(ValueError):
    """Matrix handed to the Hermitian eigensolver deviates too far from its adjoint."""

    def __init__(self, residual: float, tol: float):
        super().__init__(
            f"matrix is not Hermitian: ||A - A*|| = {residual:.3e} exceeds {tol:.3e}"
        )
        self.residual = residual
        self.tol = tol


class EigenConvergenceError(RuntimeError):
    """Eigensolver failed to converge; carries the underlying diagnostic."""


def as_matrix(entries) -> np.ndarray:
    """Validate and return a square complex128 matrix with finite entries."""
    A = np.asarray(entries, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    if A.shape[0] != A.shape[1]:
        raise ValueError(f"matrix must be square, got shape {A.shape}")
    return A


def adjoint(A: np.ndarray) -> np.ndarray:
    """Conjugate transpose: result[i, j] = conj(A[j, i])."""
    return np.conj(np.swapaxes(np.asarray(A, dtype=np.complex128), -1, -2))


@dataclass(frozen=True)
class EigenDecomposition:
    """Spectrum of a Hermitian matrix.

    eigenvalues are real and sorted descending; column i of eigenvectors is the
    orthonormal eigenvector for eigenvalues[i].
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eigen(A: np.ndarray) -> EigenDecomposition:
    """Full eigendecomposition of a Hermitian matrix, eigenvalues descending.

    The input is checked against its adjoint first; anything beyond the
    Hermiticity tolerance is rejected rather than silently symmetrized.
    """
    return hermitian_eigens([A])[0]


def hermitian_eigens(mats) -> list[EigenDecomposition]:
    """hermitian_eigen for each of many equally shaped square matrices, in order.

    `mats` is a (k, n, n) array or a sequence of n x n matrices. Each matrix
    gets its own Hermiticity check; they are stacked at most STACK_BYTES at a
    time, and each stack gets one eigensolve.
    """
    return [eig for part in stack_slices(mats) for eig in _stack_eigen(mats[part])]


def _stack_eigen(mats) -> list[EigenDecomposition]:
    stack = _finite_stack(mats)
    n = stack.shape[-1]
    if stack.shape[1] != n:
        raise ValueError(f"matrix must be square, got shape {stack.shape[1:]}")
    for A in stack:
        tol = HERM_TOL * max(1.0, float(np.linalg.norm(A)))
        residual = float(np.linalg.norm(A - adjoint(A)))
        if residual > tol:
            raise NonHermitianError(residual, tol)
    try:
        w, v = np.linalg.eigh((stack + adjoint(stack)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    # stable descending sort: ties keep the solver's order, so degenerate
    # eigenspaces (e.g. of the identity) come out in the natural basis
    order = np.argsort(-w, axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[:, np.newaxis, :], axis=-1)
    return [EigenDecomposition(values, vectors) for values, vectors in zip(w, v)]


def spectral_norm(A: np.ndarray) -> float:
    """Operator norm (largest singular value) of a rectangular complex matrix.

    Always computed as sqrt of the top eigenvalue of A*A, even for Hermitian
    input, so every norm in the package shares one code path and error model.
    """
    return spectral_norms([A])[0]


def spectral_norms(mats) -> list[float]:
    """Operator norm of each matrix, by spectral_norm's rule, in order.

    `mats` is a (k, m, n) array or a sequence of equally shaped m x n
    matrices. They are stacked at most STACK_BYTES at a time, and each stack
    gets one finiteness check, one Gram product and one eigensolve. Size-0
    matrices have norm 0.0.
    """
    return [norm for part in stack_slices(mats) for norm in stack_norms(*grams(mats[part]))]


def stack_capacity(shape: tuple) -> int:
    """How many complex matrices of this shape one stack holds: as many as fit
    in STACK_BYTES, one at least."""
    return max(1, STACK_BYTES // max(1, 16 * math.prod(shape)))  # 16 bytes per complex128


def stack_slices(mats) -> list[slice]:
    """The consecutive slices that split mats, a (k, m, n) array or a
    sequence of equally shaped matrices, into stacks of stack_capacity
    matrices, the last one perhaps shorter; none for no matrices."""
    if not len(mats):
        return []
    step = stack_capacity(np.shape(mats[0]))
    return [slice(i, i + step) for i in range(0, len(mats), step)]


def as_stack(mats) -> np.ndarray:
    """mats, a (k, m, n) array or a sequence of k equally shaped m x n
    matrices, as one (k, m, n) complex array. One matrix is viewed, not
    copied, which matters at the dims where stacks hold one."""
    if len(mats) == 1:
        stack = np.asarray(mats[0], dtype=np.complex128)[np.newaxis]
    else:
        stack = np.asarray(mats, dtype=np.complex128)
    if stack.ndim != 3:
        raise ValueError(f"expected equally shaped 2-D matrices, got a stack of shape {stack.shape}")
    return stack


def _finite_stack(mats) -> np.ndarray:
    """as_stack(mats), whose entries must be finite."""
    stack = as_stack(mats)
    if not np.isfinite(stack).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return stack


def grams(mats) -> tuple[np.ndarray, np.ndarray]:
    """One stack as a (k, m, n) array and A*A for each of its matrices A:
    `mats` is a (k, m, n) array or a sequence of equally shaped matrices,
    whose entries must be finite. spectral_norms measures each stack as
    stack_norms(*grams(stack))."""
    stack = _finite_stack(mats)
    return stack, np.matmul(adjoint(stack), stack)


def gram_norms(gram: np.ndarray) -> list[float]:
    """sqrt of the top eigenvalue of each Gram matrix A*A of a stack, that is
    ||A||: one eigensolve for the stack. Size-0 Grams give 0.0. A top below
    2^-960 may have lost A's digits to underflow; stack_norms measures such
    an A again.

    A top that is not finite means the Gram of a finite matrix overflowed;
    that raises OverflowError rather than pass on a nan or inf norm."""
    if gram.size == 0:
        return [0.0] * len(gram)
    try:
        w = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    # eigvalsh sorts ascending, so each top is the last entry
    tops = w[:, -1].tolist()
    if not all(map(math.isfinite, tops)):
        raise OverflowError("matrix entries too large: the Gram product A*A overflows")
    # a -0.0 top passes the test, so its root stays -0.0
    return [math.sqrt(top) if top >= 0.0 else 0.0 for top in tops]


# Below this norm a Gram's top lies below 2^-960. At or above it, the
# products of entries of A that underflow, each off by at most 2^-1075, shift
# the top of an m x n A's Gram by a relative m n 2^-115 at most, far below
# the eigensolve's rounding.
UNDERFLOW_NORM = 2.0**-480


def stack_norms(stack: np.ndarray, gram: np.ndarray) -> list[float]:
    """||A|| for each matrix A of a stack, given their Grams: gram_norms(gram),
    except that a nonzero A whose norm there lies below UNDERFLOW_NORM, its
    Gram perhaps underflowed, is measured again scaled by a power of two to a
    largest entry near 1, and its norm scaled back. This is the rule of
    spectral_norms."""
    norms = gram_norms(gram)
    if min(norms, default=math.inf) < UNDERFLOW_NORM:
        for j, norm in enumerate(norms):
            if norm < UNDERFLOW_NORM and stack[j].any():
                norms[j] = _scaled_norm(stack[j])
    return norms


def _scaled_norm(A: np.ndarray) -> float:
    """||A|| for a nonzero A: A times 2^-e, for e the exponent of its largest
    entry, is measured and the norm times 2^e. Scaling by a power of two is
    exact, so only the eigensolve rounds."""
    exponent = math.frexp(float(np.abs(A).max()))[1]
    parts = np.ldexp(np.ascontiguousarray(A).view(np.float64), -exponent)
    return math.ldexp(gram_norms(grams(parts.view(np.complex128)[np.newaxis])[1])[0], exponent)


# Relative slack of every bound below over the norm spectral_norms computes
# for the same matrix A from its Gram G = A*A. eigvalsh is backward stable:
# its top eigenvalue is within p(n) eps ||G||_2 of G's, p a modest polynomial
# (LAPACK Users' Guide, section 4.7), and the bounds' own sums and products
# carry relative errors of at most about n^2 eps. Both stay far below 1% for
# any n a dense matrix can have, and the square and fourth roots shrink them
# further. So each bound is at least the computed norm, or is inf: it
# certifies that norm without an eigensolve.
GRAM_MARGIN = 0.01
# A Gram whose root ||G||_F^(1/2), times 1 + GRAM_MARGIN, is at least this
# has a top of at least 2^-960, since ||G||_2 >= ||G||_F / sqrt(n), for any n
# below 2^38: its gram_norms norm is the one stack_norms gives.
GRAM_UNDERFLOW_BOUND = 2.0**-470


def frobenius_bounds(mats: np.ndarray) -> np.ndarray:
    """(1 + GRAM_MARGIN) ||X||_F for each complex matrix X of a stack: at
    least the ||X|| spectral_norms gives, since ||X|| <= ||X||_F. _frobenius
    rescales entries whose squares underflow; a matrix with a non-finite
    entry, or whose largest entry is subnormal, certifies nothing and gives
    inf."""
    return _frobenius(mats) * (1.0 + GRAM_MARGIN)


def gram_bounds(stack: np.ndarray, gram: np.ndarray) -> np.ndarray:
    """(1 + GRAM_MARGIN) ||G||_F^(1/2) for each matrix A of a stack, given
    its Gram G = A*A: at least the ||A|| stack_norms gives, since ||A||^2 =
    ||G||_2 <= ||G||_F. An all-zero A gives 0.0. A Gram with a non-finite
    entry, or whose largest entry is subnormal, certifies nothing and gives
    inf; so does a nonzero A whose bound lies below GRAM_UNDERFLOW_BOUND,
    since its Gram, and so its bound, may have underflowed."""
    bounds = np.sqrt(_frobenius(gram)) * (1.0 + GRAM_MARGIN)
    if bounds.min(initial=np.inf) < GRAM_UNDERFLOW_BOUND:
        bounds[(bounds < GRAM_UNDERFLOW_BOUND) & stack.any(axis=(1, 2))] = np.inf
    return bounds


def gram_moment_bounds(gram: np.ndarray) -> np.ndarray:
    """(1 + GRAM_MARGIN) s^(1/2) ||(G/s)^2||_F^(1/4), with s = ||G||_F, for
    each complex Gram matrix G = A*A of a stack: at least the ||A||
    gram_norms gives, since ||A||^4 = ||G^2||_2 <= ||G^2||_F, and at most
    gram_bounds' bound (equal to it at rank 1), at the cost of one more
    product. Scaling by s keeps the square from overflowing or underflowing.
    It is meant for Grams that gram_bounds certifies, with a finite positive
    bound; an all-zero Gram gives 0.0, and one with a non-finite entry, or
    whose largest entry is subnormal, gives inf."""
    size = _frobenius(gram)
    roots = np.ones(len(gram))
    scaled = np.isfinite(size) & (size > 0)
    if scaled.any():
        unit = (gram if scaled.all() else gram[scaled]) / size[scaled, np.newaxis, np.newaxis]
        roots[scaled] = np.sqrt(np.sqrt(_frobenius(unit @ unit)))
    return np.sqrt(size) * roots * (1.0 + GRAM_MARGIN)


# Below this F^2, the squared Frobenius norm of a 2 x 2 matrix, F^4 may lie
# below 2^-960, where the products cell_bounds takes lose digits to underflow;
# at or above it, the squares and products that underflow, each off by at
# most 2^-1074, move F^2 and F^4 - 4 det^2 by at most 2^-110 of F^2 and F^4.
_CELL_SQUARES = 2.0**-480


def cell_bounds(a, b, c, d) -> np.ndarray:
    """(1 + GRAM_MARGIN) ||A|| for each real 2 x 2 matrix A = [[a, b], [c, d]]
    of a stack, given as 1-D arrays of its entries (0.0 for an entry that is
    zero throughout), from the closed form of its largest singular value:
    ||A||^2 = (F^2 + sqrt(F^4 - 4 det^2)) / 2, with F = ||A||_F.

    Rounding moves F^4 - 4 det^2 by a few eps F^4, so where the two singular
    values are close the root moves ||A||^2 by a relative sqrt(eps) or so,
    and elsewhere by a few eps: far below the margin, so each bound is at
    least the norm spectral_norms computes for its A. Unlike
    frobenius_bounds' ||A||_F this is tight when the singular values are
    equal, as for [[0, x], [-x, 0]]. A matrix whose F^2 lies below
    _CELL_SQUARES, an all-zero one among them, or whose bound is not finite
    certifies nothing and gives inf."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = a * a + b * b + c * c + d * d
        det = a * d - b * c
        # the difference is 0.0 at equal singular values, or a rounding below it
        spread = np.sqrt(np.maximum(squares * squares - 4.0 * det * det, 0.0))
        bounds = np.sqrt((squares + spread) / 2.0) * (1.0 + GRAM_MARGIN)
    return np.where((squares >= _CELL_SQUARES) & (bounds < np.inf), bounds, np.inf)


# Below this bound on the norm of an m x n matrix A, no entry or partial sum
# of its Gram A*A overflows, each being at most ||A||_F^2 <= min(m, n) ||A||^2
# in size, for any min(m, n) below 2^22; so spectral_norms raises nothing for
# a stack of finite matrices whose bounds all lie below it.
_GRAM_SAFE = 2.0**500


def largest_norm(bounds: np.ndarray, build) -> float:
    """max(spectral_norms(build(np.arange(len(bounds))))), bit for bit and
    with the same exceptions, from an eigensolve of only the matrices that
    can reach it, and building only those.

    bounds[i] is at least the norm spectral_norms computes for matrix i, as
    frobenius_bounds and cell_bounds give, or is inf; build(indices) returns
    the (j, m, n) stack of the matrices at an array of indices, in that
    order. The first matrix with the largest bound is
    measured, and then every other matrix whose bound is at least that norm,
    a stack of at most STACK_BYTES at a time; the rest cannot be the maximum.
    Equal positive norms have equal bits, so the order they are met in does
    not matter. If a bound is not finite or reaches _GRAM_SAFE, or the first
    norm is not positive, every matrix is built and measured, in index
    order, so the exceptions and the sign of a zero result are those of
    spectral_norms.
    """
    if len(bounds) and (bounds < _GRAM_SAFE).all():
        first = np.argmax(bounds)
        cell = build(np.array([first]))
        top = spectral_norms(cell)[0]
        if top > 0.0:
            rest = np.flatnonzero(bounds >= top)
            rest = rest[rest != first]
            step = stack_capacity(cell.shape[1:])
            return max([top, *(max(spectral_norms(build(rest[i : i + step])))
                               for i in range(0, len(rest), step))])
    return max(spectral_norms(build(np.arange(len(bounds)))))


# Below this sum of squares, or at inf or nan, _frobenius scales a matrix by
# its largest entry first; at or above it, the squares that underflow change
# the sum by at most 2 n^2 2^-1022, a relative 2^-421 n^2.
_SAFE_SQUARES = 2.0**-600


def _frobenius(mats: np.ndarray) -> np.ndarray:
    """||M||_F for each complex matrix M of a stack; inf where M has a
    non-finite entry or its largest entry is subnormal."""
    parts = np.ascontiguousarray(mats).reshape(len(mats), math.prod(mats.shape[1:]))
    parts = parts.view(np.float64)
    squares = np.einsum("ki,ki->k", parts, parts)  # einsum raises no floating-point warning
    size = np.sqrt(squares)
    # nan fails both tests; an all-zero stack, such as the P - P* of
    # Hermitian matrices P, keeps its sizes 0.0
    if squares.min(initial=np.inf) >= _SAFE_SQUARES and squares.max(initial=0.0) < np.inf:
        return size
    if not parts.any():
        return size
    unsafe = ~((squares >= _SAFE_SQUARES) & (squares < np.inf))
    with np.errstate(over="ignore", invalid="ignore"):  # |z| of a huge entry overflows
        for i in np.flatnonzero(unsafe & parts.any(axis=1)):  # all-zero matrices keep 0.0
            top = float(np.abs(mats[i]).max())
            if not np.finfo(np.float64).tiny <= top < np.inf:  # nan fails both
                size[i] = np.inf
            else:
                size[i] = top * np.linalg.norm(mats[i] / top)
    return size


def mat_poly_eval(p, A: np.ndarray) -> np.ndarray:
    """Evaluate an integer-coefficient polynomial at a square matrix via Horner.

    `p` may be an IntPolynomial or any sequence of coefficients indexed by
    power. The zero polynomial yields the zero matrix; a constant c yields c*I.
    """
    return next(mat_poly_evals([p], [A]))


def mat_poly_evals(polys, mats) -> Iterator[np.ndarray]:
    """polys[i] evaluated at mats[i], in order, by mat_poly_eval's Horner rule.

    `mats` is a (k, n, n) array or a sequence of equally shaped square
    matrices. They are stacked at most STACK_BYTES at a time, and each stack
    gets one finiteness check and one Horner pass, run by a plan made once
    per distinct list of coefficient tuples (_horner_plan, or _slice_plan
    for a stack of one matrix). Values are
    yielded one stack at a time, as views into that stack's result buffer,
    so a caller that consumes them as they come holds one stack's values,
    not all of them.
    """
    if len(polys) != len(mats):
        raise ValueError(f"{len(polys)} polynomials for {len(mats)} matrices")
    coeffs = [tuple(getattr(p, "coefficients", p)) for p in polys]
    return (value for part in stack_slices(mats)
            for value in _horner(tuple(coeffs[part]), mats[part]))


# Added to the diagonal for a zero coefficient: x + -0.0 == x for every x.
_UNCHANGED = complex(-0.0, -0.0)
# Most Horner plans kept for lists of two or more coefficient tuples: a
# campaign_small or campaign_large job of the benchmark uses 25-30 of them.
HORNER_PLANS = 64
# Most one-slice plans kept, in a cache of their own. From dim 46 a stack
# holds one matrix, so every pass is one slice, and the loop checks cycle
# through one plan per polynomial: 2 n_max for power_expansion's P_n and Q_n
# and n_max + 1 for nw_block's F_n, 193 at n_max 64, about 1.6 MB of plans.
# An LRU cache smaller than the cycle evicts each plan just before its next
# use, and so rebuilds every plan on every call.
HORNER_SLICE_PLANS = 256


class _HornerPlan(NamedTuple):
    """What a Horner pass over one list of coefficient tuples needs that does
    not depend on the matrices. Slices are sorted by length, longest first."""

    order: list[int]  # the slice at each sorted position
    place: list[int]  # the sorted position of each slice
    top: int  # the longest length
    first: list[tuple[int, slice]]  # sorted slices of length >= 2 whose c A lands in that buffer
    lead: np.ndarray  # (k, 1, 1) leading coefficients, sorted
    steps: list[tuple[int, int, int, np.ndarray]]  # (step, slices multiplied, slices added, adds)
    constants: int  # the first sorted slice of length 0 or 1


@lru_cache(maxsize=HORNER_PLANS)
def _horner_plan(coeffs: tuple[tuple, ...]) -> _HornerPlan:
    """The plan of a Horner pass over coeffs, made once per distinct tuple.

    A slice of length L starts at step top - L at c I, for its leading
    coefficient c; its next step's product (c I) @ A is c A, which the pass
    writes before its loop into the buffer that step would have written, so
    the slice's steps from then on multiply, L - 2 of them, and add.
    """
    k = len(coeffs)
    order = sorted(range(k), key=lambda i: len(coeffs[i]), reverse=True)
    lengths = [len(coeffs[i]) for i in order]
    top = lengths[0]
    # column s holds the coefficients of power top - 1 - s
    table = np.array([[0j] * (top - len(c)) + [complex(x) if x else _UNCHANGED for x in c[::-1]]
                      for c in (coeffs[i] for i in order)]).reshape(k, top)
    lead = np.array([complex(coeffs[i][-1]) if coeffs[i] else 0j for i in order]).reshape(k, 1, 1)
    lead.flags.writeable = False
    constants = sum(length >= 2 for length in lengths)
    first = []  # runs of consecutive sorted slices whose c A lands in one buffer
    for j in range(constants):
        buffer = (top - lengths[j]) % 2
        if first and first[-1][0] == buffer:
            first[-1] = (buffer, slice(first[-1][1].start, j + 1))
        else:
            first.append((buffer, slice(j, j + 1)))
    steps = []
    for step in range(top):
        # a slice multiplies from its third step on and adds from its second,
        # or, at length 1, at its only step
        multiplied = sum(length >= top - step + 2 for length in lengths)
        added = sum(length >= (top - step + 1 if step < top - 1 else 1) for length in lengths)
        if added:
            adds = table[:added, step, np.newaxis].copy()
            adds.flags.writeable = False
            steps.append((step, multiplied, added, adds))
    place = sorted(range(k), key=order.__getitem__)
    return _HornerPlan(order, place, top, first, lead, steps, constants)


@lru_cache(maxsize=HORNER_SLICE_PLANS)
def _slice_plan(coeffs: tuple) -> _HornerPlan:
    """_horner_plan((coeffs,)), the plan of a one-slice pass, cached by its
    one coefficient tuple apart from the plans of longer lists."""
    return _horner_plan.__wrapped__((coeffs,))


def _horner(coeffs: tuple[tuple, ...], mats) -> list[np.ndarray]:
    """One Horner pass over a stack of k square matrices: coeffs[i] at mats[i].

    Every slice starts at c I for its leading coefficient c and then runs
    its own sequence of steps, acc <- acc @ A then acc <- acc + c I on the
    diagonal, so each slice gets the same bits as a pass over it alone; its
    first product (c I) @ A is formed as c A, which has the same bits, up to
    the sign of a zero entry. A zero c adds -0.0 - 0.0j, which leaves every
    entry unchanged, in place of skipping the add. The pass follows the
    plan of coeffs: slices sorted by length, longest first, so the
    slices that multiply or add at a step are always a prefix of the stack.
    """
    plan = _slice_plan(coeffs[0]) if len(coeffs) == 1 else _horner_plan(coeffs)
    stack = _finite_stack([mats[i] for i in plan.order])
    k, n = len(stack), stack.shape[-1]
    if stack.shape[1] != n:
        raise ValueError(f"matrix must be square, got shape {stack.shape[1:]}")
    # two buffers, each step writing its product into the other; a slice of
    # length 0 or 1 stays zero until its constant is added
    buffers = [np.empty((k, n, n), dtype=np.complex128) for _ in range(2)]
    buffers[plan.top % 2][plan.constants:] = 0.0
    for buffer, run in plan.first:
        np.multiply(stack[run], plan.lead[run], out=buffers[buffer][run])
    diagonals = [b.reshape(k, n * n)[:, :: n + 1] for b in buffers]  # views: writes land in b
    for step, multiplied, added, adds in plan.steps:
        src, dst = step % 2, (step + 1) % 2
        if multiplied:
            np.matmul(buffers[src][:multiplied], stack[:multiplied], out=buffers[dst][:multiplied])
        diagonals[dst][:added] += adds
    result = buffers[plan.top % 2]
    return [result[j] for j in plan.place]
