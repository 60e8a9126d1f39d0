# src/projpair/verify.py
"""Numeric checks for the projection-pair norm identities.

Every check returns a TrialReport with the measured quantities, a single
residual, and the verdict residual <= tol; violated mathematics is reported,
never raised. The randomized campaign driver run_trials stitches the checks
into a reproducible aggregate whose JSON form is byte-stable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field
from functools import cache
from itertools import accumulate, islice, repeat

import numpy as np

from .linalg import adjoint, as_stack, mat_poly_evals, spectral_norms, stack_capacity
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
    holds one run at a time, so memory stays bounded however long the power
    loop is.
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


def check_lemma_product_powers(pairs, m_max: int = 8,
                               tol: float = DEFAULT_TOL) -> list[TrialReport]:
    """check_lemma_product_power for each of many equally sized pairs, in
    order: the powers of every pair are formed as one stack, and each run of
    degrees is measured for all the pairs in one spectral_norms call."""
    if m_max < 1:
        raise ValueError(f"m_max must be >= 1, got {m_max}")
    if not pairs:
        return []
    k = len(pairs)
    fg, fgf = as_stack([pair.fg for pair in pairs]), as_stack([pair.fgf for pair in pairs])
    a = [pair.norm_fg for pair in pairs]
    norm_fgf = spectral_norms(fgf)
    residuals = [abs(norm - x * x) for norm, x in zip(norm_fgf, a)]
    # m = 1 holds by construction: ||fg|| <= ||fg|| and fg = (fgf)^0 fg
    powers = islice(_powers(fg, m_max), 1, None)
    prefixes = _powers(fgf, m_max - 1)
    for group in _degree_groups(range(2, m_max + 1), 2 * k, pairs[0].dim):
        group_powers = list(islice(powers, len(group)))
        gaps = [power - prefix @ fg for power, prefix in zip(group_powers, prefixes)]
        rows = _rows(spectral_norms(_slices(group_powers + gaps)), k)
        for m, power_norms, gap_norms in zip(group, rows, rows[len(group):]):
            for i, (power_norm, gap_norm) in enumerate(zip(power_norms, gap_norms)):
                residuals[i] = max(residuals[i], power_norm - a[i] ** (2 * m - 1))
                residuals[i] = max(residuals[i], gap_norm)
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


def check_lemma_commutators(pairs, tol: float = DEFAULT_TOL) -> list[TrialReport]:
    """check_lemma_commutator for each of many equally sized pairs, in order,
    with every pair's matrices formed as stacks and measured in one
    spectral_norms call."""
    if not pairs:
        return []
    eye = np.eye(pairs[0].dim, dtype=np.complex128)
    comm = as_stack([pair.comm for pair in pairs])
    u = as_stack([pair.fg for pair in pairs]) @ (eye - as_stack([pair.f for pair in pairs]))
    uu = u @ adjoint(u)
    u_u = adjoint(u) @ u
    norms = spectral_norms(_slices([u, adjoint(comm) @ comm - (uu + u_u), uu @ u_u]))
    reports = []
    for pair, u_norm, split_gap, overlap in zip(pairs, *_rows(norms, len(pairs))):
        comm_norm = pair.norm_comm
        residual = max(
            abs(comm_norm - u_norm),
            max(0.0, comm_norm - pair.norm_fg),
            split_gap,
            overlap,
        )
        reports.append(_report(
            "lemma_commutator", pair,
            {"norm_comm": comm_norm, "norm_u": u_norm, "norm_fg": pair.norm_fg},
            residual, tol,
        ))
    return reports


def check_power_expansion(pair: ProjectionPair, n_max: int = 8,
                          tol: float = DEFAULT_TOL) -> TrialReport:
    """Power expansion: (fg+gf)^n = P_n(fg) + P_n(gf) + Q_n(fgf) + Q_n(gfg).

    Powers are built by repeated multiplication and compared against the exact
    integer polynomial pair; residuals are scaled by max(1, ||fg+gf||^n).
    """
    return check_power_expansions([pair], n_max, tol)[0]


def check_power_expansions(pairs, n_max: int = 8,
                           tol: float = DEFAULT_TOL) -> list[TrialReport]:
    """check_power_expansion for each of many equally sized pairs, in order:
    each run of degrees gets one mat_poly_evals and one spectral_norms call
    for all the pairs."""
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not pairs:
        return []
    k = len(pairs)
    terms = [term for pair in pairs for term in (pair.fg, pair.gf, pair.fgf, pair.gf @ pair.g)]
    anti_norms = [pair.norm_anti for pair in pairs]
    powers = _powers(as_stack([pair.anti for pair in pairs]), n_max)
    residuals = [0.0] * k
    for group in _degree_groups(range(1, n_max + 1), 4 * k, pairs[0].dim):
        polys = [poly for n in group for p, q in [_expansion_terms(n)]
                 for poly in (p, p, q, q) * k]
        values = mat_poly_evals(polys, terms * len(group))
        # P_n(fg) + P_n(gf) + Q_n(fgf) + Q_n(gfg), summed left to right as the
        # values come, so a run of one degree holds no more than a loop would
        gaps = spectral_norms([power - (next(values) + next(values) + next(values) + next(values))
                               for powers_n in islice(powers, len(group)) for power in powers_n])
        for n, row in zip(group, _rows(gaps, k)):
            for i, gap in enumerate(row):
                residuals[i] = max(residuals[i], gap / max(1.0, anti_norms[i]**n))
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


def check_nw_blocks(pairs, n_max: int = 8, tol: float = DEFAULT_TOL) -> list[TrialReport]:
    """check_nw_block for each of many equally sized pairs, in order.

    One halmos_decompositions call splits every pair. The pairs whose f has
    the same rank share their blocks' stacks: each run of degrees gets one
    Horner pass for their F_k(D) and one spectral_norms call for each of the
    northwest and northeast gaps.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    if not pairs:
        return []
    blocks = halmos_decompositions(pairs, tol=max(tol, 1e-9))
    bases = as_stack([b.basis for b in blocks])
    w = adjoint(bases) @ as_stack([pair.anti for pair in pairs]) @ bases
    residuals = [0.0] * len(pairs)
    for r, members in group_positions([b.D.shape[0] for b in blocks]).items():
        k = len(members)
        D, V = as_stack([blocks[i].D for i in members]), as_stack([blocks[i].V for i in members])
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
            nw_gaps = spectral_norms(_slices(
                [power[:, :r, :r] - f_n for power, f_n in zip(group_powers, f[1:])]))
            ne_gaps = spectral_norms(_slices(
                [power[:, :r, r:] - f_before @ V for power, f_before in zip(group_powers, f)]))
            for n, nw_row, ne_row in zip(group, _rows(nw_gaps, k), _rows(ne_gaps, k)):
                for i, anti_norm, nw, ne in zip(members, anti_norms, nw_row, ne_row):
                    scale = max(1.0, anti_norm**n)
                    residuals[i] = max(residuals[i], nw / scale, ne / scale)
                    residuals[i] = max(residuals[i], _block_terms(n)[1] / scale)
            f_prev = f[-1:]
    return [_report("nw_block", pair,
                    {"norm_anti": pair.norm_anti, "rank_f": b.D.shape[0], "n_max": n_max},
                    residual, tol)
            for pair, b, residual in zip(pairs, blocks, residuals)]


@dataclass(frozen=True)
class BoundRow:
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

    It holds empirically for every 2x2 projection pair yet fails from dim 4
    up, so requesting it for any other dimension is an error.
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

# Each check runs on a list of equally sized pairs and returns their reports in order.
CHECKS = {
    "theorem": lambda pairs, cfg: [check_theorem(pair, cfg.tol) for pair in pairs],
    "corollary": lambda pairs, cfg: [check_corollary(pair, cfg.tol) for pair in pairs],
    "lemma_product_power": lambda pairs, cfg: check_lemma_product_powers(pairs, cfg.m_max, cfg.tol),
    "lemma_commutator": lambda pairs, cfg: check_lemma_commutators(pairs, cfg.tol),
    "power_expansion": lambda pairs, cfg: check_power_expansions(pairs, cfg.n_max, cfg.tol),
    "nw_block": lambda pairs, cfg: check_nw_blocks(pairs, cfg.n_max, cfg.tol),
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
        return json.dumps(self.to_payload(), indent=2, sort_keys=True)


def _check_trials(config: TrialConfig, dim: int,
                  seeds: list[int]) -> list[dict[str, TrialReport]]:
    """Each seed's reports by check name. The seeds' pairs are built with
    one random_pairs call, every member is validated in one
    projection_failures call, and each check runs on all the pairs at once;
    the first member that fails validation raises ArithmeticError."""
    pairs = random_pairs(dim, seeds)
    failures = projection_failures([p.f for p in pairs] + [p.g for p in pairs])
    if failures:
        position, report = failures[0]
        name = "fg"[position // len(pairs)]
        raise ArithmeticError(f"constructed {name} fails projection validation: {report}")
    by_check = {name: CHECKS[name](pairs, config) for name in config.checks}
    return [dict(zip(by_check, trial)) for trial in zip(*by_check.values())]


def _run_one_trial(config: TrialConfig, dim: int, seed: int) -> dict[str, TrialReport]:
    """One trial's reports by check name: _check_trials for its seed alone."""
    return _check_trials(config, dim, [seed])[0]


def run_trials(config: TrialConfig) -> AggregateReport:
    """Run the configured checks over seeded random pairs.

    Trial i (numbered across the whole campaign) always uses base_seed + i,
    and the report is the one running the trials one after another in index
    order gives. Each dim's trials run in chunks of stack_capacity((dim, dim))
    pairs, and each check runs on a chunk's pairs at once; a chunk's pairs
    are freed once its checks have run, so however many trials a campaign
    runs it holds one chunk's pairs with the products their checks cache,
    and the stacks of one check.
    """
    summaries = {name: CheckSummary(name) for name in config.checks}
    errors = []
    for position, dim in enumerate(config.dims):
        first, step = position * config.trials, stack_capacity((dim, dim))
        for start in range(first, first + config.trials, step):
            _run_chunk(config, dim, range(start, min(start + step, first + config.trials)),
                       summaries, errors)
    ordered = [summaries[name] for name in config.checks]
    ok = not errors and all(not s.failures for s in ordered)
    return AggregateReport(config, ordered, errors, "pass" if ok else "fail")


def _run_chunk(config: TrialConfig, dim: int, indices: range,
               summaries: dict[str, CheckSummary], errors: list[dict]) -> None:
    """Run one chunk of trials, recording each in summaries or errors. A
    chunk of one pair, or one whose pairs could not be built, validated or
    checked together, runs trial by trial, so each trial records its own
    failure."""
    chunk = None
    if len(indices) > 1:
        try:
            chunk = _check_trials(config, dim, [config.base_seed + index for index in indices])
        except Exception:  # rerun trial by trial; the trial that raises records it
            pass
    for position, index in enumerate(indices):
        if chunk is not None:
            results = chunk[position]
        else:
            try:
                results = _run_one_trial(config, dim, config.base_seed + index)
            except Exception as exc:  # trial isolation: record, never kill the campaign
                errors.append({"trial": index, "dim": dim,
                               "message": f"{type(exc).__name__}: {exc}"})
                continue
        for name, report in results.items():
            summary = summaries[name]
            summary.trials += 1
            summary.max_residual = max(summary.max_residual, report.residual)
            if not report.passed:
                summary.failures.append(index)
