# src/projpair/projections.py
"""Construction, validation, and decomposition of orthogonal projection pairs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ._jsontext import json_text
from .linalg import (
    adjoint,
    as_matrix,
    as_stack,
    hermitian_eigens,
    spectral_norm,
    spectral_norms,
    stack_slices,
)
from .linalg import hermitian_eigen  # noqa: F401  (unused; perfbench's tracer wraps this name)

# Constructed projections must satisfy ||P^2 - P|| and ||P - P*|| below this.
PROJ_TOL = 1e-10
# f-eigenvalues inside this band belong to neither the range nor the kernel;
# such an f is not numerically a projection and is rejected, not rounded.
SPLIT_BAND = (0.25, 0.75)


class DecompositionError(RuntimeError):
    """Block decomposition failed; carries the offending residuals when known."""

    def __init__(self, message: str, residuals: dict | None = None):
        super().__init__(message)
        self.residuals = residuals or {}


@dataclass(frozen=True)
class Provenance:
    """How a pair was built: random | angles | reference2x2 | universal_grid | file."""

    tag: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ProjectionPair:
    """Two projections of equal dimension plus construction metadata.

    The products and norms every check reads (fg, gf, fgf, fg + gf, fg - gf and
    their norms) are computed on first access and kept, so a pair measures
    each of them once however many checks read it.
    """

    f: np.ndarray
    g: np.ndarray
    dim: int
    provenance: Provenance

    def __post_init__(self):
        f = as_matrix(self.f)
        g = as_matrix(self.g)
        if f.shape[0] != self.dim or g.shape[0] != self.dim:
            raise ValueError(
                f"pair members must be {self.dim}x{self.dim}, "
                f"got {f.shape} and {g.shape}"
            )
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)

    @cached_property
    def fg(self) -> np.ndarray:
        return self.f @ self.g

    @cached_property
    def gf(self) -> np.ndarray:
        return self.g @ self.f

    @cached_property
    def fgf(self) -> np.ndarray:
        return self.fg @ self.f

    @cached_property
    def anti(self) -> np.ndarray:
        return self.fg + self.gf

    @cached_property
    def comm(self) -> np.ndarray:
        return self.fg - self.gf

    @cached_property
    def norm_fg(self) -> float:
        return spectral_norm(self.fg)

    @cached_property
    def norm_anti(self) -> float:
        return spectral_norm(self.anti)

    @cached_property
    def norm_comm(self) -> float:
        return spectral_norm(self.comm)


@dataclass(frozen=True)
class ValidationReport:
    """Residuals of the two defining projection properties plus the verdict."""

    idempotency_residual: float  # ||P^2 - P||
    hermiticity_residual: float  # ||P - P*||
    tol: float
    ok: bool

    def __str__(self) -> str:
        return (f"idempotency {self.idempotency_residual:.3e}, "
                f"hermiticity {self.hermiticity_residual:.3e}")


def require_tol(tol: float) -> None:
    """Raise ValueError unless 0 < tol < inf. A residual compared with an
    infinite, nan or non-positive tol says nothing about the matrices."""
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def validate_projection(P: np.ndarray, tol: float = PROJ_TOL) -> ValidationReport:
    """Check P = P* = P^2 within tol. Residuals are reported, never raised;
    a tol that is not finite and positive raises ValueError."""
    return validate_projections(as_matrix(P)[np.newaxis], tol)[0]


def validate_projections(mats, tol: float = PROJ_TOL) -> list[ValidationReport]:
    """validate_projection for each of many equally shaped square matrices,
    in order, a stack at a time: one stacked product and one spectral_norms
    call per stack. `mats` is a (k, n, n) array or a sequence of n x n
    matrices."""
    require_tol(tol)
    return [report for part in stack_slices(mats) for report in _validate_stack(mats[part], tol)]


def projection_failures(mats, tol: float = PROJ_TOL) -> list[tuple[int, ValidationReport]]:
    """The position and validate_projection report of each of `mats` that
    fails validation, in order; `mats` is as for validate_projections.

    A member whose gaps P^2 - P and P - P* are both certified (_certified)
    passes with no eigensolve. Every other member, NaN and overflow
    included, is measured by one validate_projections call, so the reports,
    and the errors raised, are validate_projections' own.
    """
    require_tol(tol)
    uncertain = []
    for part in stack_slices(mats):
        square_gap, adjoint_gap = _projection_gaps(mats[part])
        certified = _certified(square_gap, tol) & _certified(adjoint_gap, tol)
        uncertain += (part.start + np.flatnonzero(~certified)).tolist()
    reports = validate_projections([mats[i] for i in uncertain], tol)
    return [(i, report) for i, report in zip(uncertain, reports) if not report.ok]


def _certified(gaps: np.ndarray, tol: float) -> np.ndarray:
    """Whether each matrix X of a stack has ||X|| <= tol for certain, with no
    eigensolve: since ||X|| <= ||X||_F, when ||X||_F <= tol / 2; the factor 2
    covers the rounding of the Frobenius sum and of the eigensolve. A norm
    that overflows, or is nan, certifies nothing, and the exact measurement
    then raises, or warns, as it would alone."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.linalg.norm(gaps, axis=(1, 2)) <= tol / 2


def _projection_gaps(mats) -> tuple[np.ndarray, np.ndarray]:
    """P^2 - P and P - P* for a stack of square matrices P, each formed in
    the buffer of P^2 or P*."""
    P = np.asarray(mats, dtype=np.complex128)
    if P.ndim != 3 or P.shape[1] != P.shape[2]:
        raise ValueError(f"expected equally shaped square matrices, got a stack of shape {P.shape}")
    square_gap = np.matmul(P, P)
    square_gap -= P
    adjoint_gap = adjoint(P)
    np.subtract(P, adjoint_gap, out=adjoint_gap)
    return square_gap, adjoint_gap


def _validate_stack(mats, tol: float) -> list[ValidationReport]:
    # entries large enough to overflow the gaps or their Grams give nan or
    # inf norms, which fail validation, or an EigenConvergenceError; the
    # report or the error says so, with no numpy warning beside it
    with np.errstate(over="ignore", invalid="ignore"):
        square_gap, adjoint_gap = _projection_gaps(mats)
        norms = spectral_norms([*square_gap, *adjoint_gap])
    k = len(square_gap)
    return [ValidationReport(idem, herm, tol, idem <= tol and herm <= tol)
            for idem, herm in zip(norms[:k], norms[k:])]


def _box_muller_normals(u1: np.ndarray, u2: np.ndarray, count: int) -> np.ndarray:
    """The first `count` Box-Muller normals of each row of uniform draws
    (u1, u2); 1 - u1 keeps the log finite."""
    radius = np.sqrt(-2.0 * np.log(1.0 - u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)],
                       axis=-1)
    return z[..., :count]


def group_positions(keys) -> dict:
    """The positions of each key in `keys`, keys in order of first appearance."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(key, []).append(i)
    return groups


def random_projection(dim: int, rank: int, seed: int) -> np.ndarray:
    """Random orthogonal projection of the given rank, reproducible from seed.

    A dim x rank complex Gaussian matrix (Box-Muller samples from a seeded
    PCG64 stream, real and imaginary parts independent) is orthonormalized by
    Householder QR; the projection onto its column space is Q Q*. Identical
    (dim, rank, seed) yields bit-identical output.
    """
    return random_projections(dim, [rank], [seed])[0]


def random_projections(dim: int, ranks, seeds) -> np.ndarray:
    """random_projection(dim, ranks[i], seeds[i]) for each i, as a (k, dim, dim) stack.

    Each seed has its own PCG64 stream, so every projection is bit-identical
    to the one its seed gives alone. The members of one rank share one pass
    of Box-Muller arithmetic, one batched QR and one stacked Q Q*.
    """
    if dim < 1:
        raise ValueError(f"dim must be positive, got {dim}")
    if len(ranks) != len(seeds):
        raise ValueError(f"{len(ranks)} ranks for {len(seeds)} seeds")
    for rank in ranks:
        if not 0 <= rank <= dim:
            raise ValueError(f"rank must lie in [0, {dim}], got {rank}")
    out = np.empty((len(seeds), dim, dim), dtype=np.complex128)
    for rank, members in group_positions(ranks).items():
        if rank == 0:
            out[members] = 0.0
            continue
        if rank == dim:
            out[members] = np.eye(dim)
            continue
        count = dim * rank
        # one draw per member, in stream order: u1 and u2 of the real parts,
        # then u1 and u2 of the imaginary parts
        u = np.empty((len(members), 4, (count + 1) // 2))
        for draw, i in zip(u, members):
            np.random.Generator(np.random.PCG64(seeds[i])).random(out=draw)
        re, im = _box_muller_normals(u[:, 0::2], u[:, 1::2], count).swapaxes(0, 1)
        q, _ = np.linalg.qr((re + 1j * im).reshape(len(members), dim, rank))
        proj = np.matmul(q, adjoint(q))
        proj += adjoint(proj)
        proj /= 2.0
        out[members] = proj
    return out


def random_pair(dim: int, seed: int) -> ProjectionPair:
    """Random pair with independent ranks drawn uniformly from [1, dim-1].

    All randomness (both ranks, both member seeds) derives from the single
    seed, so a pair is reproducible from (dim, seed) alone.
    """
    return random_pairs(dim, [seed])[0]


def random_pairs(dim: int, seeds) -> list[ProjectionPair]:
    """random_pair(dim, seed) for each seed, in order, with the members of all
    the pairs built by one random_projections call."""
    if dim < 2:
        raise ValueError(f"random pairs need dim >= 2, got {dim}")
    ranks, member_seeds = [], []  # f's, then g's, pair after pair
    for seed in seeds:
        rng = np.random.Generator(np.random.PCG64(seed))
        ranks += [int(rng.integers(1, dim)), int(rng.integers(1, dim))]
        member_seeds += [int(rng.integers(0, 2**63)), int(rng.integers(0, 2**63))]
    members = random_projections(dim, ranks, member_seeds)
    return [ProjectionPair(f, g, dim,
                           Provenance("random", {"seed": seed, "rank_f": rank_f, "rank_g": rank_g}))
            for seed, f, g, rank_f, rank_g
            in zip(seeds, members[0::2], members[1::2], ranks[0::2], ranks[1::2])]


@dataclass(frozen=True)
class AngleSpec:
    """Principal-angle recipe for a pair: one 2x2 cell per angle in [0, pi/2],
    plus optional dimensions where exactly one of the projections acts."""

    angles: tuple[float, ...]
    extra_f_dims: int = 0
    extra_g_dims: int = 0

    def __post_init__(self):
        object.__setattr__(self, "angles", tuple(float(t) for t in self.angles))
        for theta in self.angles:
            if not 0.0 <= theta <= math.pi / 2:
                raise ValueError(f"angle {theta} outside [0, pi/2]")
        if self.extra_f_dims < 0 or self.extra_g_dims < 0:
            raise ValueError("extra dimensions must be nonnegative")
        if not self.angles and self.extra_f_dims + self.extra_g_dims == 0:
            raise ValueError("empty angle list requires positive extra dimensions")

    @property
    def dim(self) -> int:
        return 2 * len(self.angles) + self.extra_f_dims + self.extra_g_dims


def _angle_cells(angles) -> tuple[np.ndarray, np.ndarray]:
    """(k, 2, 2) stacks of the angle cells: cell i of f projects onto the first
    coordinate, cell i of g onto (cos theta_i, sin theta_i)."""
    t = np.asarray(angles, dtype=float)
    c, s = np.cos(t), np.sin(t)
    f = np.zeros((len(t), 2, 2), dtype=np.complex128)
    f[:, 0, 0] = 1.0
    g = np.empty((len(t), 2, 2), dtype=np.complex128)
    g[:, 0, 0] = c * c
    g[:, 0, 1] = c * s
    g[:, 1, 0] = c * s
    g[:, 1, 1] = s * s
    return f, g


def pair_from_angles(spec: AngleSpec) -> ProjectionPair:
    """Canonical pair realizing the given principal angles.

    Each angle theta contributes a 2x2 diagonal cell where f projects onto the
    first coordinate and g onto (cos theta, sin theta); ||fg|| over the direct
    sum is max cos theta. Extra dimensions add coordinates where only f (or
    only g) acts.
    """
    dim = spec.dim
    f = np.zeros((dim, dim), dtype=np.complex128)
    g = np.zeros((dim, dim), dtype=np.complex128)
    for i, (cf, cg) in enumerate(zip(*_angle_cells(spec.angles))):
        f[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = cf
        g[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = cg
    extra = np.arange(2 * len(spec.angles), dim)
    only_f, only_g = extra[: spec.extra_f_dims], extra[spec.extra_f_dims :]
    f[only_f, only_f] = 1.0
    g[only_g, only_g] = 1.0
    prov = Provenance(
        "angles",
        {
            "angles": list(spec.angles),
            "extra_f_dims": spec.extra_f_dims,
            "extra_g_dims": spec.extra_g_dims,
        },
    )
    return ProjectionPair(f, g, dim, prov)


def reference_2x2_pair() -> ProjectionPair:
    """The canonical non-commuting 2x2 pair: f = diag(1, 0), g = (1/2) ones.

    Its product norm is 1/sqrt(2) and its commutator norm 1/2, which makes it
    the standing fixture for every identity in the package.
    """
    f = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=np.complex128)
    g = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=np.complex128)
    return ProjectionPair(f, g, 2, Provenance("reference2x2"))


@dataclass(frozen=True)
class HalmosBlocks:
    """Blocks of g in an orthonormal basis whose first r columns span range(f).

    g splits as [[D, V], [V*, Dprime]] with D of size r x r, V of size
    r x (dim - r), and Dprime of size (dim - r) x (dim - r); projectionhood of
    g forces D - D^2 = V V*, D V + V Dprime = V, and Dprime - Dprime^2 = V* V.
    The gaps of those relations, which the decomposition checked, and ||D||,
    which equals ||fg||^2, are kept with the blocks. The gaps' norms,
    relation_residuals, are measured on first read: the decomposition
    certifies most of them from a bound and needs none of them exactly.
    """

    D: np.ndarray
    Dprime: np.ndarray
    V: np.ndarray
    basis: np.ndarray
    relation_gaps: dict[str, np.ndarray] = field(repr=False, compare=False)
    norm_D: float

    @cached_property
    def relation_residuals(self) -> dict[str, float]:
        return {name: spectral_norm(gap) for name, gap in self.relation_gaps.items()}


def _relation_gaps(D: np.ndarray, V: np.ndarray, Dp: np.ndarray) -> dict[str, np.ndarray]:
    """The three relations projectionhood of g imposes on its blocks, as
    matrices that vanish when they hold; D, V and Dp are blocks or equally
    sized stacks of them."""
    return {
        "range_block": D - D @ D - V @ adjoint(V),
        "mixed_block": D @ V + V @ Dp - V,
        "kernel_block": Dp - Dp @ Dp - adjoint(V) @ V,
    }


def halmos_decompose(pair: ProjectionPair, tol: float = 1e-9) -> HalmosBlocks:
    """Split g into blocks relative to range(f) + its orthogonal complement.

    The basis comes from the eigendecomposition of f: eigenvalues above 0.5
    classify range, below 0.25 kernel; anything in between means f is not
    numerically a projection and is rejected. The three block relations are
    verified along with ||fg||^2 = ||D|| before returning; a tol that is not
    finite and positive raises ValueError.
    """
    return halmos_decompositions([pair], tol)[0]


def halmos_decompositions(pairs, tol: float = 1e-9) -> list[HalmosBlocks]:
    """halmos_decompose for each of many equally sized pairs, in order, raising
    for the first pair it rejects.

    One hermitian_eigens call diagonalizes every f and one stacked product
    carries every g into its basis. Pairs whose f has the same rank share
    one stack of blocks and of relation gaps. A gap that _certified bounds
    by tol needs no eigensolve; the others, and ||D||, are measured with one
    spectral_norms call per relation, ||D|| riding with the range block's.
    A pair that fails is measured in full, so its DecompositionError names
    the same residuals, in the same words, as measuring every gap would.
    """
    require_tol(tol)
    if not pairs:
        return []
    eigs = hermitian_eigens([pair.f for pair in pairs])
    for eig in eigs:
        bad = [float(x) for x in eig.eigenvalues if SPLIT_BAND[0] <= x <= SPLIT_BAND[1]]
        if bad:
            raise DecompositionError(
                f"f has eigenvalues {bad} inside {list(SPLIT_BAND)}; not a projection"
            )
    # descending order puts range(f) vectors first
    bases = as_stack([eig.eigenvectors for eig in eigs])
    g_in_bases = adjoint(bases) @ as_stack([pair.g for pair in pairs]) @ bases
    blocks = [None] * len(pairs)
    worst = [0.0] * len(pairs)  # the largest measured relation residual of each pair
    ranks = [int(np.sum(eig.eigenvalues > 0.5)) for eig in eigs]
    for r, members in group_positions(ranks).items():
        g_in_basis = g_in_bases[members]
        D, V, Dp = g_in_basis[:, :r, :r], g_in_basis[:, :r, r:], g_in_basis[:, r:, r:]
        gaps = _relation_gaps(D, V, Dp)
        uncertain = {name: np.flatnonzero(~_certified(gap, tol)) for name, gap in gaps.items()}
        # ||D|| shares the uncertain range-block gaps' eigensolve: all are r x r
        range_norms = spectral_norms([*gaps["range_block"][uncertain["range_block"]], *D])
        norms_D = range_norms[-len(members):]
        measured = {"range_block": range_norms[: -len(members)],
                    **{name: spectral_norms(gaps[name][uncertain[name]])
                       for name in ("mixed_block", "kernel_block")}}
        for name, norms in measured.items():
            for j, norm in zip(uncertain[name], norms):
                worst[members[j]] = max(worst[members[j]], norm)
        for j, i in enumerate(members):
            blocks[i] = HalmosBlocks(D[j], Dp[j], V[j], bases[i],
                                     {name: gap[j] for name, gap in gaps.items()}, norms_D[j])
    for pair, block, relations in zip(pairs, blocks, worst):
        norm_identity = abs(pair.norm_fg**2 - block.norm_D)
        if max(relations, norm_identity) > tol:
            residuals = dict(block.relation_residuals, norm_identity=norm_identity)
            raise DecompositionError(
                f"block relations violated beyond tol={tol:.3e}: {residuals}", residuals
            )
    return blocks


@dataclass(frozen=True)
class UniversalPairApprox:
    """Direct sum of 2x2 principal-angle cells approximating the extremal pair
    whose product norm is 1 while its commutator norm stays 1/2.

    Norm queries run blockwise (the norm of a direct sum is the max over
    blocks), so large grids never materialize a dense matrix. The first query
    forms the product stacks and measures all three norms; later queries read
    them.
    """

    angles: tuple[float, ...]
    grid_size: int

    @cached_property
    def _norms(self) -> tuple[float, float, float]:
        """||pq||, ||pq - qp|| and ||pq + qp||, each measured once."""
        f, g = _angle_cells(self.angles)
        pq, qp = np.matmul(f, g), np.matmul(g, f)
        return max(spectral_norms(pq)), max(spectral_norms(pq - qp)), max(spectral_norms(pq + qp))

    def norm_product(self) -> float:
        return self._norms[0]

    def norm_commutator(self) -> float:
        return self._norms[1]

    def norm_anticommutator(self) -> float:
        return self._norms[2]

    def anticommutator_residual(self) -> float:
        """|  ||pq+qp|| - (||pq|| + ||pq||^2)  | for the grid pair."""
        a, _, anti = self._norms
        return abs(anti - (a + a * a))

    @property
    def dim(self) -> int:
        return 2 * len(self.angles)

    def materialize(self) -> ProjectionPair:
        """Dense realization; intended for modest grids (cross-checks, export)."""
        spec = AngleSpec(self.angles)
        pair = pair_from_angles(spec)
        prov = Provenance(
            "universal_grid", {"grid_size": self.grid_size, "cells": len(self.angles)}
        )
        return ProjectionPair(pair.f, pair.g, pair.dim, prov)


def universal_pair_approx(grid_size: int) -> UniversalPairApprox:
    """Angle-grid approximant theta_k = (k/(K+1)) * pi/2, k = 1..K.

    pi/4 is inserted when the grid misses it (even K), pinning the commutator
    norm at exactly 1/2; as K grows the product norm climbs to 1.
    """
    if grid_size < 1:
        raise ValueError(f"grid size must be >= 1, got {grid_size}")
    k = grid_size
    angles = [(i / (k + 1)) * (math.pi / 2) for i in range(1, k + 1)]
    quarter = math.pi / 4
    if quarter not in angles:
        angles.append(quarter)
        angles.sort()
    return UniversalPairApprox(tuple(angles), k)


# --- pair file format -------------------------------------------------------
#
# {"dim": n, "f": [[re, im], ...], "g": [[re, im], ...]}
# with each matrix a row-major flat list of dim^2 [re, im] entries.


def matrix_to_pairs(A: np.ndarray) -> list[list[float]]:
    return [[float(z.real), float(z.imag)] for z in A.ravel(order="C")]


def _pairs_to_matrix(entries, dim: int, name: str) -> np.ndarray:
    if not isinstance(entries, list) or len(entries) != dim * dim:
        raise ValueError(f'"{name}" must be a flat list of {dim * dim} [re, im] pairs')
    values = np.empty(dim * dim, dtype=np.complex128)
    for i, entry in enumerate(entries):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ValueError(f'"{name}"[{i}] is not an [re, im] pair')
        re, im = entry
        # JSON true/false load as bools, which isinstance counts as ints
        if any(isinstance(x, bool) or not isinstance(x, (int, float)) for x in entry):
            raise ValueError(f'"{name}"[{i}] has non-numeric parts')
        if not (math.isfinite(re) and math.isfinite(im)):
            raise ValueError(f'"{name}"[{i}] has non-finite parts')
        values[i] = complex(re, im)
    return values.reshape(dim, dim)


def save_pair_json(pair: ProjectionPair, path) -> None:
    """Write a pair to the shared JSON matrix format."""
    payload = {
        "dim": pair.dim,
        "f": matrix_to_pairs(pair.f),
        "g": matrix_to_pairs(pair.g),
    }
    Path(path).write_text(json_text(payload) + "\n")


def load_pair_json(path) -> ProjectionPair:
    """Read a pair from the shared JSON matrix format, rejecting malformed or
    non-finite input. Projectionhood is the caller's check, not the reader's."""
    text = Path(path).read_text()
    try:
        raw = json.loads(text)
    except RecursionError:  # nesting deeper than the decoder's stack
        raise ValueError("pair file nests JSON arrays or objects too deeply") from None
    if not isinstance(raw, dict):
        raise ValueError("pair file must contain a JSON object")
    dim = raw.get("dim")
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ValueError('"dim" must be a positive integer')
    f = _pairs_to_matrix(raw.get("f"), dim, "f")
    g = _pairs_to_matrix(raw.get("g"), dim, "g")
    return ProjectionPair(f, g, dim, Provenance("file", {"path": str(path)}))
