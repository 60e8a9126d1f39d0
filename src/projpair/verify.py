# src/projpair/verify.py
"""Numeric checks for the projection-pair norm identities.

Every check returns a TrialReport with the measured quantities, a single
residual, and the verdict residual <= tol; violated mathematics is reported,
never raised. The randomized campaign driver run_trials stitches the checks
into a reproducible aggregate whose JSON form is byte-stable.
"""

from __future__ import annotations

import ctypes
import math
import os
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import accumulate, count, islice, repeat
from typing import NamedTuple

import numpy as np

from ._jsontext import json_text
from .linalg import (
    adjoint,
    as_stack,
    gram_bounds,
    gram_moment_bounds,
    gram_norms,
    grams,
    mat_poly_evals,
    spectral_norms,
    stack_capacity,
    stack_norms,
)
from .linalg import mat_poly_eval, spectral_norm  # noqa: F401  (unused; the tracer wraps these)
from .polynomials import poly_F, poly_PQ_recursive
from .polynomials import poly_eval_real  # noqa: F401  (unused; the tracer wraps this name)
from .projections import (
    AngleSpec,
    ProjectionPair,
    Provenance,
    group_positions,
    halmos_decompositions,
    pair_from_angles,
    projection_failures,
    random_pairs,
    random_projections,
    require_tol,
)
from .projections import (  # noqa: F401  (unused; the tracer wraps these)
    halmos_decompose,
    random_pair,
    validate_projection,
)

DEFAULT_TOL = 1e-8
# Slack for floating-point comparisons of analytically tight bounds (the
# sandwich degenerates to equalities at ||fg|| = 1, where measured norms
# carry rounding of either sign).
BOUND_EPS = 1e-12


@dataclass(frozen=True)
class TrialReport:
    """Outcome of one check on one pair."""

    check_name: str
    pair_provenance: Provenance
    quantities: dict[str, float]
    residual: float
    tol: float
    passed: bool


def _report(name: str, pair: ProjectionPair, quantities: dict, residual: float,
            tol: float) -> TrialReport:
    residual = float(residual)
    return TrialReport(name, pair.provenance, {k: float(v) for k, v in quantities.items()},
                       residual, tol, residual <= tol)


def _powers(A: np.ndarray, k: int):
    """A, A^2, ..., A^k, each power formed as the previous one times A."""
    return accumulate(repeat(A, k), np.matmul)


def _degree_groups(degrees: range, per_degree: int, dim: int) -> list[range]:
    """Split degrees into consecutive runs short enough that per_degree
    dim x dim matrices for each degree fill one stack; one degree at least.

    A check hands linalg each run's matrices for all its pairs together,
    which measures them with one Horner pass or one eigensolve per stack, and
    holds one run at a time. With no floor, memory thus stays bounded however
    long the power loop is; with one, _Gaps keeps the Grams of the gap terms
    that can matter until the check ends, and those grow with the loop.
    """
    size = max(1, stack_capacity((dim, dim)) // per_degree)
    return [degrees[i : i + size] for i in range(0, len(degrees), size)]


def _slices(stacks: list) -> list:
    """The matrices of a list of stacks, in order, as views: spectral_norms
    stacks them itself, so a stack of one matrix is never copied."""
    return [matrix for stack in stacks for matrix in stack]


def _rows(values: list, k: int) -> list[list]:
    """values cut into consecutive rows of k: one row per matrix kind or
    degree, one entry per pair."""
    return [values[i : i + k] for i in range(0, len(values), k)]


class _Gaps:
    """The pure gap terms of one stacked check: norms of matrices that vanish
    in exact arithmetic, each adding ||X|| / scale to its pair's residual.

    add() pools its terms, in arrival order, into one pending run per shape,
    and certifies a run a stack at a time: when it fills stack_capacity of
    its shape, and at the top of finish(), the runs in the order their first
    terms arrived. From dim 46 up a dim x dim matrix fills a stack alone, so
    each such term is certified as it arrives; nw_block's northwest and
    northeast blocks, added in turn, pool in runs of their own. Pooled terms
    are read only when their run is certified, so a caller must not write
    to a matrix after handing it to add(); an error a term raises, the
    ValueError of a non-finite entry or the OverflowError of gram_norms,
    surfaces with its type and text at that later add() or in finish().

    Certifying forms each stack's Grams as spectral_norms does. It measures
    the stack whole, by spectral_norms' rule, with no floor, or where a
    term's gram_bounds bound is inf, certifying nothing. With a floor, the
    campaign's largest residual so far for the check, a term is measured
    only if it can raise a residual above min(tol, limit), where limit is
    the floor or the largest value measured so far, whichever is larger: no
    such term can set the campaign's maximum or fail a trial that would
    pass, so the report keeps its bytes, while a trial's residual may fall
    short of its exact value; a term its bound does not certify is held as
    a one-Gram view of its stack. Residuals only rise, so certifying a term
    later than it arrived drops no term that could matter. Held terms keep
    their stacks alive until finish(), so a floored check's memory grows
    with its number of degrees. finish() takes the held terms in descending
    order of their bounds: it measures the first, then each later one whose
    tighter Gram-moment bound the limit reached by then does not cover.
    """

    def __init__(self, residuals: list[float], tol: float, floor: float | None):
        self.residuals, self.tol, self.floor = residuals, tol, floor
        self.held = []  # (bound / scale, Gram of one term, pair, scale)
        self.runs = {}  # shape: the pending run's [mats, owners, scales]

    def add(self, mats, owners, scales) -> None:
        """Terms ||mats[j]|| / scales[j] of pairs owners[j], all of one shape."""
        if not len(mats):
            return
        shape = np.shape(mats[0])
        run = self.runs.setdefault(shape, [[], [], []])
        for pending, new in zip(run, (mats, owners, scales)):
            pending += new
        capacity = stack_capacity(shape)
        while len(run[0]) >= capacity:
            self._certify(run, capacity)

    def _certify(self, run: list, count: int | None = None) -> None:
        """Certify, or measure, the first count terms of a pending run, or
        all of them, as one stack."""
        stack, gram = grams(run[0][:count])
        owners, scales = run[1][:count], run[2][:count]
        for pending in run:
            del pending[:count]
        bounds = [math.inf] if self.floor is None else gram_bounds(stack, gram).tolist()
        # measured whole, raising, as spectral_norms would; stack_norms
        # measures a term whose Gram underflowed again, scaled
        if math.inf in bounds:
            for owner, scale, norm in zip(owners, scales, stack_norms(stack, gram)):
                self._record(owner, norm / scale)
            return
        cut = min(self.tol, max(self.floor, *self.residuals))
        self.held += [(bound / scale, gram[j : j + 1], owner, scale)
                      for j, (owner, scale, bound) in enumerate(zip(owners, scales, bounds))
                      if bound / scale > cut]

    def finish(self) -> None:
        """Certify the pending runs, then measure the held terms that can
        still matter. Bounds only fall and the limit only rises along the
        pass, so the first term the limit covers ends it."""
        for run in self.runs.values():
            if run[0]:
                self._certify(run)
        held, self.held = sorted(self.held, key=lambda term: term[0], reverse=True), []
        if not held:  # always so with no floor
            return
        limit = max(self.floor, *self.residuals)
        for position, (bound, gram, owner, scale) in enumerate(held):
            cut = min(self.tol, limit)
            if bound <= cut:
                break
            # the first term's norm most often sets the limit, so it is measured outright
            if position and gram_moment_bounds(gram)[0] / scale <= cut:
                continue
            value = gram_norms(gram)[0] / scale
            self._record(owner, value)
            limit = max(limit, value)

    def _record(self, owner: int, value: float) -> None:
        self.residuals[owner] = max(self.residuals[owner], value)


# Neither family depends on the pair, so each n is built once per process.
@cache
def _expansion_terms(n: int) -> tuple:
    """P_n and Q_n, for n >= 1."""
    return poly_PQ_recursive(n)


@cache
def _block_terms(n: int) -> tuple:
    """F_n (n >= 0) and the size of its most negative coefficient, 0 when it
    has none: a polynomial with no negative coefficient is non-decreasing on
    [0, 1], which is the monotonicity the norm argument leans on."""
    f_n = poly_F(n)
    return f_n, max(0, -min(f_n.coefficients))


def check_theorem(pair: ProjectionPair, tol: float = DEFAULT_TOL) -> TrialReport:
    """Anticommutator norm formula: ||fg + gf|| = ||fg|| + ||fg||^2."""
    a = pair.norm_fg
    anti = pair.norm_anti
    predicted = a + a * a
    return _report(
        "theorem", pair,
        {"norm_fg": a, "norm_anti": anti, "predicted": predicted},
        abs(anti - predicted), tol,
    )


def check_corollary(pair: ProjectionPair, tol: float = DEFAULT_TOL) -> TrialReport:
    """Commutator norm bounds: ||fg|| - ||fg||^2 <= ||fg - gf|| <= ||fg||."""
    a = pair.norm_fg
    comm = pair.norm_comm
    lower = a - a * a
    residual = max(0.0, lower - comm, comm - a)
    return _report(
        "corollary", pair,
        {"norm_fg": a, "norm_comm": comm, "lower": lower, "upper": a},
        residual, tol,
    )


def check_lemma_product_power(pair: ProjectionPair, m_max: int = 8,
                              tol: float = DEFAULT_TOL) -> TrialReport:
    """Product powers: ||(fg)^m|| <= ||fg||^(2m-1) for m = 1..m_max.

    Also verifies the two algebraic stepping stones: ||fgf|| = ||fg||^2 and
    (fg)^m = (fgf)^(m-1) (fg).
    """
    return check_lemma_product_powers([pair], m_max, tol)[0]


def check_lemma_product_powers(pairs, m_max: int = 8, tol: float = DEFAULT_TOL, *,
                               floor: float | None = None) -> list[TrialReport]:
    """check_lemma_product_power for each of many equally sized pairs, in
    order: the powers of every pair are formed as one stack, a run of
    degrees at a time (_degree_groups), and each run's ||fgf|| or powers
    are measured with one spectral_norms call, so below dim 46 several
    degrees share an eigensolve and from dim 46 up each matrix is measured
    alone. The gaps (fg)^m - (fgf)^(m-1) fg reach _Gaps one degree at a
    time for all the pairs at once, after that degree's norms. _Gaps pools
    them and certifies a stack of them once it is full, and the rest in
    finish(), so below dim 46 a short loop's gaps are certified together;
    with a floor, they are measured only where they can matter. With no
    floor one run of degrees is held at a time, so memory stays flat in
    m_max.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if not pairs:
        return []
    k, dim = len(pairs), pairs[0].dim
    fg, fgf = as_stack([pair.fg for pair in pairs]), as_stack([pair.fgf for pair in pairs])
    a = [pair.norm_fg for pair in pairs]
    norm_fgf, residuals = [0.0] * k, [0.0] * k

    def record(m: int, norms: list[float]) -> None:
        """Each pair's ||(fg)^m||, or for m = 1, whose power needs no norm,
        its ||fgf||, against the bound the lemma gives it."""
        for i, norm in enumerate(norms):
            if m == 1:
                norm_fgf[i], excess = norm, abs(norm - a[i] * a[i])
            else:
                excess = norm - a[i] ** (2 * m - 1)
            residuals[i] = max(residuals[i], excess)

    gaps = _Gaps(residuals, tol, floor)
    # m = 1 holds by construction: ||fg|| <= ||fg|| and fg = (fgf)^0 fg; in
    # the first run it stands for fgf, as in record
    powers = islice(_powers(fg, m_max), 1, None)
    prefixes = _powers(fgf, m_max - 1)
    for group in _degree_groups(range(1, m_max + 1), k, dim):
        mats = [fgf if m == 1 else next(powers) for m in group]
        for m, power, norms in zip(group, mats, _rows(spectral_norms(_slices(mats)), k)):
            record(m, norms)
            if m > 1:
                gaps.add(_slices([power - next(prefixes) @ fg]), [*range(k)], [1.0] * k)
    gaps.finish()
    return [_report("lemma_product_power", pair,
                    {"norm_fg": x, "norm_fgf": norm, "m_max": m_max},
                    max(residual, 0.0), tol)
            for pair, x, norm, residual in zip(pairs, a, norm_fgf, residuals)]


def check_lemma_commutator(pair: ProjectionPair, tol: float = DEFAULT_TOL) -> TrialReport:
    """Commutator norm identity: ||fg - gf|| = ||fg(1-f)||.

    The proof's decomposition is checked too: with u = fg(1-f), the positive
    operators u u* and u* u are mutually orthogonal and sum to
    (fg - gf)* (fg - gf).
    """
    return check_lemma_commutators([pair], tol)[0]


def check_lemma_commutators(pairs, tol: float = DEFAULT_TOL, *,
                            floor: float | None = None) -> list[TrialReport]:
    """check_lemma_commutator for each of many equally sized pairs, in order,
    with every pair's matrices formed as stacks and measured together. With
    a floor, the split gap and the overlap are measured only where they can
    matter (_Gaps)."""
    if not pairs:
        return []
    eye = np.eye(pairs[0].dim, dtype=np.complex128)
    comm = as_stack([pair.comm for pair in pairs])
    u = as_stack([pair.fg for pair in pairs]) @ (eye - as_stack([pair.f for pair in pairs]))
    uu = u @ adjoint(u)
    u_u = adjoint(u) @ u
    u_norms = spectral_norms(u)
    residuals = [max(abs(pair.norm_comm - u_norm), max(0.0, pair.norm_comm - pair.norm_fg))
                 for pair, u_norm in zip(pairs, u_norms)]
    gaps = _Gaps(residuals, tol, floor)
    gaps.add(_slices([adjoint(comm) @ comm - (uu + u_u), uu @ u_u]),
             [*range(len(pairs))] * 2, [1.0] * (2 * len(pairs)))
    gaps.finish()
    return [_report("lemma_commutator", pair,
                    {"norm_comm": pair.norm_comm, "norm_u": u_norm, "norm_fg": pair.norm_fg},
                    residual, tol)
            for pair, u_norm, residual in zip(pairs, u_norms, residuals)]


def check_power_expansion(pair: ProjectionPair, n_max: int = 8,
                          tol: float = DEFAULT_TOL) -> TrialReport:
    """Power expansion: (fg+gf)^n = P_n(fg) + P_n(gf) + Q_n(fgf) + Q_n(gfg).

    Powers are built by repeated multiplication and compared against the exact
    integer polynomial pair; residuals are scaled by max(1, ||fg+gf||^n).
    """
    return check_power_expansions([pair], n_max, tol)[0]


def check_power_expansions(pairs, n_max: int = 8, tol: float = DEFAULT_TOL, *,
                           floor: float | None = None) -> list[TrialReport]:
    """check_power_expansion for each of many equally sized pairs, in order:
    each run of degrees gets one mat_poly_evals call for all the pairs, and
    their gaps are measured together. With a floor, the gaps are measured
    only where they can matter (_Gaps)."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not pairs:
        return []
    k = len(pairs)
    terms = [term for pair in pairs for term in (pair.fg, pair.gf, pair.fgf, pair.gf @ pair.g)]
    anti_norms = [pair.norm_anti for pair in pairs]
    powers = _powers(as_stack([pair.anti for pair in pairs]), n_max)
    residuals = [0.0] * k
    gaps = _Gaps(residuals, tol, floor)
    for group in _degree_groups(range(1, n_max + 1), 4 * k, pairs[0].dim):
        polys = [poly for n in group for p, q in [_expansion_terms(n)]
                 for poly in (p, p, q, q) * k]
        values = mat_poly_evals(polys, terms * len(group))
        # P_n(fg) + P_n(gf) + Q_n(fgf) + Q_n(gfg), summed left to right as the
        # values come, so a run of one degree holds no more than a loop would
        gaps.add([power - (next(values) + next(values) + next(values) + next(values))
                  for powers_n in islice(powers, len(group)) for power in powers_n],
                 [*range(k)] * len(group), [max(1.0, x**n) for n in group for x in anti_norms])
    gaps.finish()
    return [_report("power_expansion", pair, {"norm_anti": anti_norm, "n_max": n_max},
                    residual, tol)
            for pair, anti_norm, residual in zip(pairs, anti_norms, residuals)]


def check_nw_block(pair: ProjectionPair, n_max: int = 8,
                   tol: float = DEFAULT_TOL) -> TrialReport:
    """Leading blocks of anticommutator powers in the two-subspace basis.

    In a basis splitting range(f) from its complement, (fg+gf)^n must carry
    F_n(D) in its northwest block and F_{n-1}(D) V in its northeast block.
    Monotonicity of each F_n on [0, 1] is checked alongside, exactly, from
    the signs of its coefficients, since the norm argument leans on it.
    """
    return check_nw_blocks([pair], n_max, tol)[0]


def check_nw_blocks(pairs, n_max: int = 8, tol: float = DEFAULT_TOL, *,
                    floor: float | None = None) -> list[TrialReport]:
    """check_nw_block for each of many equally sized pairs, in order.

    One halmos_decompositions call splits every pair. The pairs whose f has
    the same rank share their blocks' stacks: each run of degrees gets one
    Horner pass for their F_k(D), and their northwest gaps, and their
    northeast gaps, are measured together. With a floor, the gaps are
    measured only where they can matter (_Gaps).
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not pairs:
        return []
    blocks = halmos_decompositions(pairs, tol=max(tol, 1e-9))
    bases = as_stack([b.basis for b in blocks])
    ranks = [b.D.shape[0] for b in blocks]
    groups = [(r, members, as_stack([blocks[i].D for i in members]),
               as_stack([blocks[i].V for i in members]))
              for r, members in group_positions(ranks).items()]
    del blocks  # and with them their relation gaps, which this check does not read
    w = adjoint(bases) @ as_stack([pair.anti for pair in pairs]) @ bases
    residuals = [0.0] * len(pairs)
    gaps = _Gaps(residuals, tol, floor)
    for r, members, D, V in groups:
        k = len(members)
        anti_norms = [pairs[i].norm_anti for i in members]
        powers = _powers(w[members], n_max)
        f_prev = []  # [F_{n-1}(D)] for the run's first n, carried over
        for group in _degree_groups(range(1, n_max + 1), k, pairs[0].dim):
            # f[j] stacks F_{group.start - 1 + j}(D); each F_k(D) is evaluated once
            needed = range(group.start - 1 + len(f_prev), group.stop)
            values = mat_poly_evals([_block_terms(n)[0] for n in needed for _ in members],
                                    [*D] * len(needed))
            f = f_prev + [as_stack(list(islice(values, k))) for _ in needed]
            group_powers = list(islice(powers, len(group)))
            owners = members * len(group)
            scales = [max(1.0, x**n) for n in group for x in anti_norms]
            for n, row in zip(group, _rows(scales, k)):
                for i, scale in zip(members, row):
                    residuals[i] = max(residuals[i], _block_terms(n)[1] / scale)
            gaps.add(_slices([power[:, :r, :r] - f_n for power, f_n in zip(group_powers, f[1:])]),
                     owners, scales)
            gaps.add(_slices([power[:, :r, r:] - f_before @ V
                              for power, f_before in zip(group_powers, f)]),
                     owners, scales)
            f_prev = f[-1:]
    gaps.finish()
    return [_report("nw_block", pair,
                    {"norm_anti": pair.norm_anti, "rank_f": r, "n_max": n_max},
                    residual, tol)
            for pair, r, residual in zip(pairs, ranks, residuals)]


class BoundRow(NamedTuple):
    N: int
    upper: float
    lower: float


@dataclass(frozen=True)
class BoundTable:
    """Pre-limit upper/lower bound sequences pinching ||fg+gf|| towards a + a^2."""

    a: float
    rows: tuple[BoundRow, ...]
    limit: float


def bound_sequences(a: float, N_max: int) -> BoundTable:
    """Bound sequences at a = ||fg||:

    upper_N = 2^(1/2N) a (1+a)^(1 - 1/2N)   (even-power root estimate),
    lower_N = 2^(-1/N) a (1+a)^(1 + 1/N) [1 - ((a-1)/(a+1))^(N+1)]^(1/N)
              (leading-block root estimate).

    Both converge to a + a^2; every upper row sits at or above the limit and
    every lower row at or below it, which is enforced here.
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"a must lie in [0, 1] (a norm of a projection product), got {a}")
    if N_max < 1:
        raise ValueError(f"N_max must be >= 1, got {N_max}")
    limit = a + a * a
    c = (a - 1.0) / (a + 1.0)
    rows = []
    for n in range(1, N_max + 1):
        upper = 2.0 ** (1.0 / (2 * n)) * a * (1.0 + a) ** (1.0 - 1.0 / (2 * n))
        bracket = 1.0 - c ** (n + 1)
        lower = 2.0 ** (-1.0 / n) * a * (1.0 + a) ** (1.0 + 1.0 / n) * bracket ** (1.0 / n)
        if upper < limit - BOUND_EPS or lower > limit + BOUND_EPS:
            raise ArithmeticError(
                f"bound row N={n} fails to straddle the limit: "
                f"upper={upper!r}, lower={lower!r}, limit={limit!r}"
            )
        rows.append(BoundRow(n, upper, lower))
    return BoundTable(a, tuple(rows), limit)


def check_bound_sandwich(pair: ProjectionPair, N_max: int = 50,
                         tol: float = BOUND_EPS) -> TrialReport:
    """Measured ||fg+gf|| sits between lower_N and upper_N for every N."""
    # measured norms can exceed 1 by rounding only; clamp for the bound domain
    a = min(pair.norm_fg, 1.0)
    anti = pair.norm_anti
    table = bound_sequences(a, N_max)
    residual = 0.0
    for row in table.rows:
        residual = max(residual, row.lower - anti, anti - row.upper)
    return _report(
        "bound_sandwich", pair,
        {"norm_fg": a, "norm_anti": anti, "N_max": N_max},
        max(residual, 0.0), tol,
    )


def _identity_violation(norm_fg: float, norm_comm: float) -> float:
    return abs(norm_comm**2 - norm_fg**2 * (1.0 - norm_fg**2))


def check_dim2_commutator_identity(pair: ProjectionPair,
                                   tol: float = DEFAULT_TOL) -> TrialReport:
    """||fg - gf||^2 = ||fg||^2 (1 - ||fg||^2), an identity special to dim 2.

    It holds empirically for every 2x2 projection pair yet fails from dim 3
    up (f onto span(e1, e2) and g onto span(e1, cos .9 e2 + sin .9 e3)
    violate it by 0.2371), so requesting it for any other dimension is an
    error.
    """
    if pair.dim != 2:
        raise ValueError(f"identity check is defined for dim 2 only, got {pair.dim}")
    return _report(
        "dim2_commutator_identity", pair,
        {"norm_fg": pair.norm_fg, "norm_comm": pair.norm_comm},
        _identity_violation(pair.norm_fg, pair.norm_comm), tol,
    )


def _worst_violator(dim: int, rng: np.random.Generator, size: int,
                    search_seed: int) -> tuple[float, ProjectionPair]:
    """The dim-2 identity violation of the first largest violator among
    `size` rank-dim/2 pairs, and that pair. Their members are built, and fg
    and fg - gf measured, as stacks; only the violator becomes a
    ProjectionPair. The members' seeds come from rng, f's before g's, pair
    after pair."""
    seeds = rng.integers(0, 2**63, size=2 * size).tolist()
    members = random_projections(dim, [dim // 2] * len(seeds), seeds)
    f, g = members[0::2], members[1::2]
    fg = f @ g
    violations = list(map(_identity_violation, spectral_norms(fg), spectral_norms(fg - g @ f)))
    worst = violations.index(max(violations))
    return violations[worst], ProjectionPair(f[worst], g[worst], dim,
                                             Provenance("random", {"seed": search_seed}))


def find_commutator_identity_counterexample(
    dim: int, mode: str = "deterministic", budget: int = 1000, seed: int = 0
) -> tuple[ProjectionPair, float]:
    """Produce a pair of dimension >= 4 violating the dim-2 commutator identity.

    Deterministic mode direct-sums the angle cells (0, pi/4, pi/4, ...): the
    zero cell drives ||fg|| to 1 while the pi/4 cells keep the commutator norm
    at 1/2, giving violation 1/4 at dim 4. Random mode samples `budget`
    rank-dim/2 pairs and returns the worst violator found, building and
    measuring them a stack at a time, so memory does not grow with the
    budget; `budget` must be >= 1 and `seed` >= 0 in either mode.
    """
    if dim < 4 or dim % 2:
        raise ValueError(f"counterexamples require even dim >= 4, got {dim}")
    if budget < 1:
        raise ValueError(f"budget must be >= 1, got {budget}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    if mode == "deterministic":
        angles = (0.0,) + (math.pi / 4,) * (dim // 2 - 1)
        pair = pair_from_angles(AngleSpec(angles))
        return pair, _identity_violation(pair.norm_fg, pair.norm_comm)
    if mode == "random":
        rng = np.random.Generator(np.random.PCG64(seed))
        step = stack_capacity((dim, dim))
        # max keeps the first pair of largest violation, and holds one
        # chunk's best at a time
        bests = (_worst_violator(dim, rng, min(step, budget - start), seed)
                 for start in range(0, budget, step))
        violation, pair = max(bests, key=lambda best: best[0])
        return pair, violation
    raise ValueError(f"mode must be 'deterministic' or 'random', got {mode!r}")


# --- randomized campaign driver ----------------------------------------------

# Each check runs on a list of equally sized pairs and returns their reports
# in order. floor is None, for exact residuals, or the campaign's largest
# residual so far for the check: a residual that can neither exceed it nor
# fail may then be left short of exact.
CHECKS = {
    "theorem": lambda pairs, cfg, floor: [check_theorem(pair, cfg.tol) for pair in pairs],
    "corollary": lambda pairs, cfg, floor: [check_corollary(pair, cfg.tol) for pair in pairs],
    "lemma_product_power": lambda pairs, cfg, floor: check_lemma_product_powers(
        pairs, cfg.m_max, cfg.tol, floor=floor),
    "lemma_commutator": lambda pairs, cfg, floor: check_lemma_commutators(
        pairs, cfg.tol, floor=floor),
    "power_expansion": lambda pairs, cfg, floor: check_power_expansions(
        pairs, cfg.n_max, cfg.tol, floor=floor),
    "nw_block": lambda pairs, cfg, floor: check_nw_blocks(pairs, cfg.n_max, cfg.tol, floor=floor),
}

ALL_CHECKS = tuple(CHECKS)

@dataclass(frozen=True)
class TrialConfig:
    """Campaign shape: `trials` pairs per entry of `dims`, checked at `tol`."""

    dims: tuple[int, ...] = (2, 4, 8, 16)
    trials: int = 200
    base_seed: int = 0
    tol: float = DEFAULT_TOL
    checks: tuple[str, ...] = ALL_CHECKS
    m_max: int = 8
    n_max: int = 8

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "checks", tuple(self.checks))
        for d in self.dims:
            if d < 2:
                raise ValueError(f"campaign dims must be >= 2, got {d}")
        if self.trials < 0:
            raise ValueError(f"trials must be >= 0, got {self.trials}")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        require_tol(self.tol)
        if self.m_max < 1:
            raise ValueError(f"m_max must be >= 1, got {self.m_max}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if not self.checks:
            raise ValueError("checks must name at least one check")
        unknown = [c for c in self.checks if c not in CHECKS]
        if unknown:
            raise ValueError(f"unknown checks {unknown}; available: {sorted(CHECKS)}")
        if len(set(self.checks)) < len(self.checks):
            raise ValueError(f"checks must name each check once, got {list(self.checks)}")


@dataclass
class CheckSummary:
    name: str
    trials: int = 0
    max_residual: float = 0.0
    failures: list[int] = field(default_factory=list)


@dataclass
class AggregateReport:
    """Campaign outcome; to_json() is byte-stable for identical configs."""

    config: TrialConfig
    per_check: list[CheckSummary]
    errors: list[dict]
    verdict: str

    def to_payload(self) -> dict:
        return {
            "config": asdict(self.config),
            "per_check": [asdict(s) for s in self.per_check],
            "errors": self.errors,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json_text(self.to_payload())


def _openblas(symbol: str, restype=ctypes.c_int, argtypes=()):
    """The function `symbol` of the OpenBLAS that numpy's linalg loaded,
    declared with restype and argtypes, or None where that library exports
    no such name (another BLAS, or an OpenBLAS built without numpy's
    scipy_openblas prefix)."""
    try:
        function = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), symbol)
    except (AttributeError, OSError):
        return None
    function.restype, function.argtypes = restype, argtypes
    return function


def _one_blas_thread(environ) -> bool:
    """Whether numpy's BLAS runs each call on one thread: the count numpy's
    bundled OpenBLAS reports, where it exports one. Elsewhere it is read
    from `environ` as OpenBLAS reads it when it loads: the first of
    OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS and OMP_NUM_THREADS that holds a
    positive integer, else one thread per CPU, taken here as more than one."""
    threads = _openblas("scipy_openblas_get_num_threads64_")
    if threads is not None:
        return threads() == 1
    for name in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            threads = int(environ.get(name, ""))
        except ValueError:
            continue
        if threads > 0:
            return threads == 1
    return False


def _check_trials(config: TrialConfig, dim: int, seeds: list[int],
                  floors: dict[str, float] | None = None, checks: tuple[str, ...] | None = None,
                  kept: dict | None = None) -> list[dict[str, TrialReport]]:
    """Each seed's reports by check name, for `checks` (config.checks when
    None). The seeds' pairs are built with one random_pairs call and every
    member is validated in one projection_failures call; the first member
    that fails validation raises ArithmeticError. The checks run one after
    another, each on all the pairs at once with its floor from `floors`
    (exact residuals when None), so a chunk raises the error of the first
    failing one in checks order.

    `kept`, a dict, holds the last pairs built with it: pairs it holds are
    taken from it, with the products and norms their earlier checks
    cached; others are built once it has let its old ones go, and kept."""
    kept = {} if kept is None else kept
    key = (dim, *seeds)
    if key not in kept:
        kept.clear()
        pairs = random_pairs(dim, seeds)
        failures = projection_failures([p.f for p in pairs] + [p.g for p in pairs])
        if failures:
            position, report = failures[0]
            name = "fg"[position // len(pairs)]
            raise ArithmeticError(f"constructed {name} fails projection validation: {report}")
        kept[key] = pairs
    pairs = kept[key]
    by_check = {name: CHECKS[name](pairs, config, None if floors is None else floors[name])
                for name in (config.checks if checks is None else checks)}
    return [dict(zip(by_check, trial)) for trial in zip(*by_check.values())]


def _run_one_trial(config: TrialConfig, dim: int, seed: int,
                   floors: dict[str, float] | None = None, checks: tuple[str, ...] | None = None,
                   kept: dict | None = None) -> dict[str, TrialReport]:
    """One trial's reports by check name: _check_trials for its seed alone."""
    return _check_trials(config, dim, [seed], floors, checks, kept)[0]


def run_trials(config: TrialConfig) -> AggregateReport:
    """Run the configured checks over seeded random pairs.

    Trial i (numbered across the whole campaign) always uses base_seed + i,
    and the report is the one running the trials one after another in index
    order gives. The campaign's work is cut into units (_Units): each dim's
    trials in chunks of stack_capacity((dim, dim)) pairs, and a chunk of one
    pair (dim >= 46) into one unit per check. Each check runs on a unit's
    pairs at once. A process keeps the pairs of the last unit it ran, so
    the check units of one pair build it and form its products and norms
    once, and lets them go before it builds the next unit's. With every
    unit in this process, the units come in config order, so a campaign
    forms the products and makes the eigensolves of that serial loop.
    However many trials a campaign runs, a process holds one chunk's pairs
    with the products their checks cache, and the stacks of one check.
    Under the floors below, a check also holds the Grams of its gap terms
    that can matter until its last degree, so its memory grows with m_max
    and n_max (_Gaps).

    With 2 usable CPUs or more and BLAS on one thread, a campaign of 2
    units or more runs them in this process and in one helper process
    beside it (projpair._helper). Both claim the next unit from one counter,
    the largest dims first, so the small units, claimed last, even out when
    the two finish. The helper is forked at the first such campaign and
    runs the package as it was then: a function patched later runs in this
    process only, and a tracer here sees only this process's share of the
    units. Outcomes are merged as they arrive (_Merge).

    Only each check's largest residual and its failing trials are reported,
    so each check gets as a floor the largest residual among the whole
    trials its process holds, and measures only the gap norms that can
    exceed it or fail (_Gaps); the report is the one exact residuals give.
    """
    with _claims(config) as claims:
        units = claims.units
        merge = _Merge(config, units)
        kept = {}  # the pairs of the last unit this process ran

        def run(index: int) -> None:
            merge.add(index, _run_unit(config, units[index], merge.floors(), kept))

        mine = 0  # the unit this process runs next
        while mine < len(units):
            run(mine)
            mine = claims.claim()
            claims.collect(merge.add, wait=False)
        while claims.active:  # until the helper ends the campaign
            claims.collect(merge.add, wait=True)
        for index in claims.lost():  # claimed by a helper that died before sending it back
            run(index)
    return merge.report()


class _Units:
    """A campaign's units of work, in the order they are claimed, as (dim,
    trial indices, checks). Each dim's trials come in chunks of
    stack_capacity((dim, dim)). A chunk is one unit of all config.checks,
    unless it is one pair (a stack holds one matrix: dim >= 46); then it is
    one unit per check, in config.checks order, which two processes can
    share. The dims come in config order, or with largest_first, for two
    processes sharing the units, the largest first, equal ones in config
    order, so the smallest units come last, where either process can take
    them. Each is computed when asked for, so the campaign's list takes no
    memory per trial."""

    def __init__(self, config: TrialConfig, largest_first: bool = False):
        self.trials, self.checks = config.trials, config.checks
        # each dim's position in config.dims, in the order its units come
        self.positions = list(range(len(config.dims)))
        if largest_first:
            self.positions.sort(key=lambda p: -config.dims[p])
        self.dims = [config.dims[p] for p in self.positions]
        self.steps = [stack_capacity((dim, dim)) for dim in self.dims]
        # units per chunk, and the index of each dim's first unit and the count of all of them
        self.widths = [len(self.checks) if step == 1 else 1 for step in self.steps]
        self.starts = [0, *accumulate(width * -(-config.trials // step)
                                      for step, width in zip(self.steps, self.widths))]

    def __len__(self) -> int:
        return self.starts[-1]

    def __getitem__(self, index: int) -> tuple[int, range, tuple[str, ...]]:
        k = bisect_right(self.starts, index) - 1
        chunk, check = divmod(index - self.starts[k], self.widths[k])
        position, step = self.positions[k], self.steps[k]
        first = position * self.trials + chunk * step
        return (self.dims[k], range(first, min(first + step, (position + 1) * self.trials)),
                self.checks if self.widths[k] == 1 else self.checks[check : check + 1])


def _run_unit(config: TrialConfig, unit: tuple[int, range, tuple[str, ...]],
              floors: dict[str, float], kept: dict) -> list:
    """The outcome of each trial of one unit, in order: its residual and
    verdict by check name, for the unit's checks, or the message of the
    error it raised, with each check's floor from `floors` and the pairs
    kept in `kept` (_check_trials). A unit of one pair, or one whose pairs
    could not be built, validated or checked together, runs trial by trial,
    so each trial records its own failure."""
    dim, indices, checks = unit
    seeds = [config.base_seed + index for index in indices]
    if len(seeds) > 1:
        try:
            return [_outcome(reports)
                    for reports in _check_trials(config, dim, seeds, floors, checks, kept)]
        except Exception:  # rerun trial by trial; the trial that raises records it
            pass
    outcomes = []
    for seed in seeds:
        try:
            outcomes.append(_outcome(_run_one_trial(config, dim, seed, floors, checks, kept)))
        except Exception as exc:  # trial isolation: record, never kill the campaign
            outcomes.append(f"{type(exc).__name__}: {exc}")
    return outcomes


def _outcome(reports: dict[str, TrialReport]) -> dict[str, tuple[float, bool]]:
    return {name: (report.residual, report.passed) for name, report in reports.items()}


class _Merge:
    """A campaign's summaries, merged from its units' outcomes in whatever
    order they arrive. Counts and maxima do not depend on the order, and
    failures and errors are sorted by trial in report(). A trial split into
    check units is merged once all of them are in, with the error of the
    first failing check in config.checks order where any raised, as the
    serial loop would."""

    def __init__(self, config: TrialConfig, units: _Units):
        self.config, self.units = config, units
        self.summaries = {name: CheckSummary(name) for name in config.checks}
        self.errors = []
        self.parts = {}  # a split trial's outcomes by check, until all are in

    def add(self, index: int, outcomes: list) -> None:
        """Merge the outcomes of unit `index`."""
        dim, indices, checks = self.units[index]
        split = checks != self.config.checks
        for trial, outcome in zip(indices, outcomes):
            if split:
                parts = self.parts.setdefault(trial, {})
                parts[checks[0]] = outcome
                if len(parts) < len(self.config.checks):
                    continue
                del self.parts[trial]
                parts = [parts[name] for name in self.config.checks]
                errors = [part for part in parts if isinstance(part, str)]
                outcome = errors[0] if errors else {name: value for part in parts
                                                    for name, value in part.items()}
            if isinstance(outcome, str):
                self.errors.append({"trial": trial, "dim": dim, "message": outcome})
                continue
            for name, (residual, passed) in outcome.items():
                summary = self.summaries[name]
                summary.trials += 1
                summary.max_residual = max(summary.max_residual, residual)
                if not passed:
                    summary.failures.append(trial)

    def floors(self) -> dict[str, float]:
        """Each check's largest residual among the merged trials: floors a
        trial that another check's unit errored on never raises."""
        return {name: summary.max_residual for name, summary in self.summaries.items()}

    def report(self) -> AggregateReport:
        ordered = [self.summaries[name] for name in self.config.checks]
        for summary in ordered:
            summary.failures.sort()
        self.errors.sort(key=lambda error: error["trial"])
        ok = not self.errors and all(not s.failures for s in ordered)
        return AggregateReport(self.config, ordered, self.errors, "pass" if ok else "fail")


# --- the helper process --------------------------------------------------------

# None: campaigns use a helper where _helper_wanted() says the host allows.
# Tests set False to keep every unit in this process, where their spies and
# counters see it, or True to use a helper on any host that can fork one.
_use_helper: bool | None = None


def _helper_wanted() -> bool:
    """Whether campaigns should run units on a helper: with 2 usable CPUs
    or more, and BLAS on one thread at the time of asking, since two
    callers of threaded BLAS oversubscribe the cores."""
    if _use_helper is not None:
        return _use_helper
    return (hasattr(os, "sched_getaffinity") and len(os.sched_getaffinity(0)) > 1
            and _one_blas_thread(os.environ))


class _Alone:
    """The claims of a campaign that has no helper: this process claims
    every unit, in config order (_Units)."""

    active = False

    def __init__(self, config: TrialConfig):
        self.units = _Units(config)
        self.claim = count(1).__next__

    def collect(self, record, wait: bool) -> None:
        pass

    def lost(self) -> list[int]:
        return []


def _claims(config: TrialConfig):
    """A context manager giving the claims of one campaign, with its units:
    a helper's (projpair._helper.claims), when the campaign has 2 units or
    more and _helper_wanted(); else _Alone's. The helper's module is
    imported only then."""
    alone = _Alone(config)
    if len(alone.units) < 2 or not _helper_wanted():
        return nullcontext(alone)
    from . import _helper

    return _helper.claims(config)
