# src/projpair/linalg.py

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Hermiticity acceptance threshold, relative to max(1, Frobenius norm).
HERM_TOL = 1e-10
# Accuracy the eigensolver is held to (residuals, orthonormality).
EIG_TOL = 1e-9


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


def _as_finite_2d(entries) -> np.ndarray:
    A = np.asarray(entries, dtype=np.complex128)
    if A.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return A


def as_matrix(entries) -> np.ndarray:
    """Validate and return a square complex128 matrix with finite entries."""
    A = _as_finite_2d(entries)
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
    A = as_matrix(A)
    if A.shape[0] == 0:
        return EigenDecomposition(np.zeros(0), np.zeros((0, 0), dtype=np.complex128))
    fro = float(np.linalg.norm(A))
    tol = HERM_TOL * max(1.0, fro)
    residual = float(np.linalg.norm(A - adjoint(A)))
    if residual > tol:
        raise NonHermitianError(residual, tol)
    try:
        w, v = np.linalg.eigh((A + adjoint(A)) / 2.0)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    # stable descending sort: ties keep the solver's order, so degenerate
    # eigenspaces (e.g. of the identity) come out in the natural basis
    order = np.argsort(-w, kind="stable")
    return EigenDecomposition(w[order].copy(), v[:, order].copy())


def spectral_norm(A: np.ndarray) -> float:
    """Operator norm (largest singular value) of a rectangular complex matrix.

    Always computed as sqrt of the top eigenvalue of A*A, even for Hermitian
    input, so every norm in the package shares one code path and error model.
    """
    A = _as_finite_2d(A)
    if A.size == 0:
        return 0.0
    return max_spectral_norm(A)


def max_spectral_norm(stack: np.ndarray) -> float:
    """Largest operator norm in a stack (..., m, n) of matrices, which is the
    norm of their direct sum; a 2-D argument is a stack of one. Entries are not
    validated: spectral_norm is the checked entry point for one matrix."""
    gram = np.matmul(adjoint(stack), stack)
    try:
        w = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise EigenConvergenceError(f"eigendecomposition did not converge: {exc}") from exc
    # eigvalsh sorts ascending, so each top is the last entry. A Python max
    # skips np.max's call overhead, which rivals a 2x2 eigensolve.
    top = max(w[..., -1].ravel().tolist())
    return float(np.sqrt(max(top, 0.0)))  # a tie keeps top, so -0.0 stays -0.0


def mat_poly_eval(p, A: np.ndarray) -> np.ndarray:
    """Evaluate an integer-coefficient polynomial at a square matrix via Horner.

    `p` may be an IntPolynomial or any sequence of coefficients indexed by
    power. The zero polynomial yields the zero matrix; a constant c yields c*I.
    """
    coeffs = getattr(p, "coefficients", p)
    A = as_matrix(A)
    n = A.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    acc = np.zeros((n, n), dtype=np.complex128)
    for c in reversed(list(coeffs)):
        acc = acc @ A
        if c:
            acc = acc + complex(c) * eye
    return acc
