# src/projpair/projections.py
"""Construction, validation, and decomposition of orthogonal projection pairs."""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from ._jsontext import json_text
from .linalg import (
    adjoint,
    as_matrix,
    as_stack,
    cell_bounds,
    frobenius_bounds,
    grams,
    hermitian_eigens,
    largest_norm,
    spectral_norm,
    spectral_norms,
    stack_norms,
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
    their norms, and the Gram of fg - gf) are computed on first access and
    kept, so a pair measures each of them once however many checks read it.
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
    def comm_gram(self) -> np.ndarray:
        """(fg - gf)* (fg - gf), which norm_comm is measured from."""
        return grams([self.comm])[1][0]

    @cached_property
    def norm_comm(self) -> float:
        """||fg - gf||, by the rule of spectral_norm, from comm_gram."""
        return stack_norms(self.comm[np.newaxis], self.comm_gram[np.newaxis])[0]


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

    A member whose gaps P^2 - P and P - P* both have a frobenius_bounds
    bound of at most tol passes with no eigensolve. Every other member, NaN
    and overflow included, is measured by one validate_projections call, so
    the reports, and the errors raised, are validate_projections' own.
    """
    require_tol(tol)
    uncertain = []
    for part in stack_slices(mats):
        square_gap, adjoint_gap = _projection_gaps(mats[part])
        certified = (frobenius_bounds(square_gap) <= tol) & (frobenius_bounds(adjoint_gap) <= tol)
        uncertain += (part.start + np.flatnonzero(~certified)).tolist()
    reports = validate_projections([mats[i] for i in uncertain], tol)
    return [(i, report) for i, report in zip(uncertain, reports) if not report.ok]


def _projection_gaps(mats) -> tuple[np.ndarray, np.ndarray]:
    """P^2 - P and P - P* for a stack of square matrices P, each formed in
    the buffer of P^2 or of P*, which is laid out row-major, as
    frobenius_bounds reads it without a copy. Entries large enough to
    overflow a gap make it inf or nan there, with no numpy warning."""
    P = np.asarray(mats, dtype=np.complex128)
    if P.ndim != 3 or P.shape[1] != P.shape[2]:
        raise ValueError(f"expected equally shaped square matrices, got a stack of shape {P.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        square_gap = np.matmul(P, P)
        square_gap -= P
        adjoint_gap = np.conj(P.swapaxes(1, 2), order="C")
        np.subtract(P, adjoint_gap, out=adjoint_gap)
    return square_gap, adjoint_gap


def _validate_stack(mats, tol: float) -> list[ValidationReport]:
    # finite members whose gaps overflow raise OverflowError, and NaN or inf
    # members spectral_norms' ValueError; entries large enough to overflow
    # the gaps' Grams give nan or inf norms, which fail validation, or an
    # EigenConvergenceError. The report or the error says so, with no numpy
    # warning beside it
    square_gap, adjoint_gap = _projection_gaps(mats)
    finite_gaps = np.isfinite(square_gap).all() and np.isfinite(adjoint_gap).all()
    if not finite_gaps and np.isfinite(mats).all():
        raise OverflowError("matrix entries too large: P^2 - P or P - P* overflows")
    with np.errstate(over="ignore", invalid="ignore"):
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


# A call with at least this many seeds puts their PCG64 streams at their
# starts in one vectorized pass (_bulk_states), about 50 us and 2 us a seed;
# below it numpy's own seeding, about 7 us a seed, is quicker. Break-even
# measured between 9 and 10 seeds on a 2-vCPU x86 host with numpy 2.4.
BULK_SEEDS = 10
# Most seeds one pass takes, so a long call holds the states of one pass
# (a few hundred bytes a seed), not of all its seeds, at a time.
BULK_PASS = 4096

# numpy's SeedSequence with its 4-word pool, then PCG64's seeding. The hash
# constants do not depend on the data: entry i of a table is its start times
# its multiplier to the i, mod 2^32, so _HASH_A[c] and _HASH_A[c + 1] are the
# xor and multiply constants of the c-th hashmix.
_WORD = 0xFFFFFFFF


def _hash_constants(start: int, multiplier: int, count: int) -> np.ndarray:
    table = [start]
    for _ in range(count):
        table.append(table[-1] * multiplier & _WORD)
    return np.array(table, dtype=np.uint32)[:, np.newaxis]


_HASH_A = _hash_constants(0x43B0D7E5, 0x931E8875, 16)  # mixing the pool: 4 + 4 * 3 hashmixes
_HASH_B = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)  # generate_state: 8 words
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1


def _bulk_states(seeds) -> list[dict]:
    """np.random.PCG64(seed).state for each int seed in [0, 2^64), computed
    for all the seeds at once: numpy's SeedSequence hash over uint32 arrays,
    one entry per seed, then PCG64's 128-bit seeding step in Python ints.

    A seed is two 32-bit entropy words, low first; SeedSequence hashes the
    missing high word of a seed below 2^32, and the pool's two other words,
    like a zero word, so one path covers every such seed.
    """
    entropy = np.array(seeds, dtype=np.uint64)
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0] = entropy & _WORD
    pool[1] = entropy >> 32
    pool ^= _HASH_A[0:4]
    pool *= _HASH_A[1:5]
    pool ^= pool >> 16
    # word src, hashed, mixes into each other word in turn; those hashes
    # read only word src, so the three are formed at once
    for src, c in enumerate(range(4, 16, 3)):
        others = [dst for dst in range(4) if dst != src]
        hashed = pool[src] ^ _HASH_A[c : c + 3]
        hashed *= _HASH_A[c + 1 : c + 4]
        hashed ^= hashed >> 16
        mixed = pool[others] * _MIX_L
        mixed -= hashed * _MIX_R
        mixed ^= mixed >> 16
        pool[others] = mixed
    words = pool[[0, 1, 2, 3, 0, 1, 2, 3]] ^ _HASH_B[0:8]
    words *= _HASH_B[1:9]
    words ^= words >> 16
    # pairs of 32-bit words, low first, make the state's four 64-bit words
    halves = np.ascontiguousarray(words.T).astype("<u4").view("<u8").tolist()
    states = []
    for state_hi, state_lo, seq_hi, seq_lo in halves:
        inc = (seq_hi << 65 | seq_lo << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def _streams(seeds) -> Iterator[np.random.Generator]:
    """A Generator at the start of np.random.PCG64(seed)'s stream for each
    seed, in order, bit for bit.

    A call of BULK_SEEDS or more seeds, each an int in [0, 2^64), restates
    one PCG64 from _bulk_states, BULK_PASS seeds a pass, for each seed, so it
    yields one Generator again and again: draw from each before taking the
    next. Any other call seeds each stream with numpy, which raises its own
    errors, at the seed that causes them.
    """
    if len(seeds) >= BULK_SEEDS and all(type(seed) is int and 0 <= seed < 1 << 64
                                        for seed in seeds):
        bit_generator = np.random.PCG64(0)
        rng = np.random.Generator(bit_generator)
        for start in range(0, len(seeds), BULK_PASS):
            for state in _bulk_states(seeds[start : start + BULK_PASS]):
                bit_generator.state = state
                yield rng
    else:
        for seed in seeds:
            yield np.random.Generator(np.random.PCG64(seed))


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
    groups = group_positions(ranks)
    # the streams of the members drawn below, in the order they are drawn
    streams = _streams([seeds[i] for rank, members in groups.items() if 0 < rank < dim
                        for i in members])
    for rank, members in groups.items():
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
        for draw in u:
            next(streams).random(out=draw)
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
    for rng in _streams(seeds):
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


@dataclass(frozen=True, eq=False)
class Spectrum:
    """A pair in the two-subspace picture (Halmos 1969): 2x2 cells, one per
    principal angle theta, where f projects onto the first coordinate and g
    onto (cos theta, sin theta), then only_f coordinates where f alone acts
    and only_g where g alone acts. cos and sin hold one entry per cell."""

    cos: np.ndarray
    sin: np.ndarray
    only_f: int = 0
    only_g: int = 0

    @classmethod
    def from_angles(cls, angles, only_f: int = 0, only_g: int = 0) -> Spectrum:
        t = np.asarray(angles, dtype=float)
        return cls(np.cos(t), np.sin(t), only_f, only_g)

    @property
    def dim(self) -> int:
        return 2 * len(self.cos) + self.only_f + self.only_g

    def realize(self, provenance: Provenance) -> ProjectionPair:
        """The dense pair, cell i on coordinates 2i and 2i + 1 with g's entries
        c^2, cs, cs and s^2 (c, s its cosine and sine), then the 1x1 blocks."""
        c, s = self.cos, self.sin
        f, g = np.zeros((2, self.dim, self.dim), dtype=np.complex128)
        first = np.arange(0, 2 * len(c), 2)  # each cell's first coordinate
        f[first, first] = 1.0
        for row, col, entry in ((0, 0, c * c), (0, 1, c * s), (1, 0, c * s), (1, 1, s * s)):
            g[first + row, first + col] = entry
        extra = np.arange(2 * len(c), self.dim)
        f[extra[: self.only_f], extra[: self.only_f]] = 1.0
        g[extra[self.only_f :], extra[self.only_f :]] = 1.0
        return ProjectionPair(f, g, self.dim, provenance)

    def norm(self, word: str) -> float:
        """||fg||, ||fg - gf|| or ||fg + gf|| of the realized pair for the word
        "fg", "comm" or "anti": the largest norm of its cells [[c^2, cs], [0, 0]],
        [[0, cs], [-cs, 0]] or [[2c^2, cs], [cs, 0]], or 0.0 with no cells. At
        angles in [0, pi/2] these have the bits the dense products give.
        largest_norm builds and eigensolves only the cells that can reach it."""
        cc, cs = self.cos * self.cos, self.cos * self.sin
        entries = {"fg": (cc, cs, 0.0, 0.0), "comm": (0.0, cs, -cs, 0.0),
                   "anti": (cc + cc, cs, cs, 0.0)}[word]
        if not len(cs):
            return 0.0

        def build(indices: np.ndarray) -> np.ndarray:
            cells = np.zeros((len(indices), 2, 2), dtype=np.complex128)
            for (row, col), entry in zip(np.ndindex(2, 2), entries):
                if np.ndim(entry):
                    cells[:, row, col] = entry[indices]
            return cells

        return largest_norm(cell_bounds(*entries), build)


def pair_from_angles(spec: AngleSpec) -> ProjectionPair:
    """The Spectrum of spec's angles and extra dimensions, realized: a pair
    whose ||fg|| is max cos theta."""
    prov = Provenance("angles", {"angles": list(spec.angles), "extra_f_dims": spec.extra_f_dims,
                                 "extra_g_dims": spec.extra_g_dims})
    return Spectrum.from_angles(spec.angles, spec.extra_f_dims, spec.extra_g_dims).realize(prov)


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
        # one spectral_norms call per shape: at r = dim - r all three gaps are r x r
        names, gaps = zip(*self.relation_gaps.items())
        norms = [0.0] * len(gaps)
        for members in group_positions(gap.shape for gap in gaps).values():
            for i, norm in zip(members, spectral_norms([gaps[i] for i in members])):
                norms[i] = norm
        return dict(zip(names, norms))


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
    one stack of blocks and of relation gaps. A gap whose frobenius_bounds
    bound is at most tol needs no eigensolve; the others, and ||D||, are
    measured with one spectral_norms call per relation, ||D|| riding with
    the range block's.
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
        uncertain = {name: np.flatnonzero(frobenius_bounds(gap) > tol)
                     for name, gap in gaps.items()}
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

    Norm queries run blockwise by Spectrum.norm, so large grids never
    materialize a dense matrix. The first query measures all three norms and
    later queries read them.
    """

    angles: tuple[float, ...]
    grid_size: int

    @cached_property
    def spectrum(self) -> Spectrum:
        return Spectrum.from_angles(self.angles)

    @cached_property
    def _norms(self) -> tuple[float, float, float]:
        """||pq||, ||pq - qp|| and ||pq + qp||, each measured once."""
        return tuple(self.spectrum.norm(word) for word in ("fg", "comm", "anti"))

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
        return self.spectrum.realize(Provenance(
            "universal_grid", {"grid_size": self.grid_size, "cells": len(self.angles)}))


def universal_pair_approx(grid_size: int) -> UniversalPairApprox:
    """Angle-grid approximant theta_k = (k/(K+1)) * pi/2, k = 1..K.

    pi/4 is inserted when the grid misses it (even K), pinning the commutator
    norm at exactly 1/2; as K grows the product norm climbs to 1.
    """
    if grid_size < 1:
        raise ValueError(f"grid size must be >= 1, got {grid_size}")
    k = grid_size
    # one correctly rounded division and product each, as (i / (k + 1)) * (pi / 2)
    angles = (np.arange(1, k + 1) / (k + 1)) * (math.pi / 2)
    quarter = math.pi / 4
    at = np.searchsorted(angles, quarter)
    if at == k or angles[at] != quarter:
        angles = np.insert(angles, at, quarter)
    return UniversalPairApprox(tuple(angles.tolist()), k)


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
