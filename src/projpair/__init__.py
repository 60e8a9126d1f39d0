# src/projpair/__init__.py
"""Numerical verification of the anticommutator norm formula for projections.

For orthogonal projections f and g on a finite-dimensional complex Hilbert
space, ||fg + gf|| = ||fg|| + ||fg||^2. This package checks that formula and
every identity, recursion, decomposition, and counterexample claim supporting
it, over explicit fixtures and seeded random pairs.
"""

from .linalg import (
    EigenDecomposition,
    adjoint,
    hermitian_eigen,
    mat_poly_eval,
    spectral_norm,
)
from .polynomials import (
    IntPolynomial,
    SelfCheckError,
    SqrtRingPolynomial,
    coefficient_strings,
    poly_AB,
    poly_F,
    poly_F_closed,
    poly_PQ_closed,
    poly_PQ_recursive,
    poly_eval_real,
)
from .projections import (
    AngleSpec,
    DecompositionError,
    HalmosBlocks,
    ProjectionPair,
    Provenance,
    Spectrum,
    UniversalPairApprox,
    halmos_decompose,
    load_pair_json,
    pair_from_angles,
    random_pair,
    random_projection,
    reference_2x2_pair,
    save_pair_json,
    universal_pair_approx,
    validate_projection,
)
from .verify import (
    AggregateReport,
    BoundTable,
    TrialConfig,
    TrialReport,
    bound_sequences,
    check_bound_sandwich,
    check_corollary,
    check_dim2_commutator_identity,
    check_lemma_commutator,
    check_lemma_product_power,
    check_nw_block,
    check_power_expansion,
    check_theorem,
    find_commutator_identity_counterexample,
    run_trials,
)

__version__ = "1.0.0"

__all__ = [
    "AggregateReport",
    "AngleSpec",
    "BoundTable",
    "DecompositionError",
    "EigenDecomposition",
    "HalmosBlocks",
    "IntPolynomial",
    "ProjectionPair",
    "Provenance",
    "SelfCheckError",
    "Spectrum",
    "SqrtRingPolynomial",
    "TrialConfig",
    "TrialReport",
    "UniversalPairApprox",
    "adjoint",
    "bound_sequences",
    "check_bound_sandwich",
    "check_corollary",
    "check_dim2_commutator_identity",
    "check_lemma_commutator",
    "check_lemma_product_power",
    "check_nw_block",
    "check_power_expansion",
    "check_theorem",
    "coefficient_strings",
    "find_commutator_identity_counterexample",
    "halmos_decompose",
    "hermitian_eigen",
    "load_pair_json",
    "mat_poly_eval",
    "pair_from_angles",
    "poly_AB",
    "poly_F",
    "poly_F_closed",
    "poly_PQ_closed",
    "poly_PQ_recursive",
    "poly_eval_real",
    "random_pair",
    "random_projection",
    "reference_2x2_pair",
    "save_pair_json",
    "spectral_norm",
    "universal_pair_approx",
    "validate_projection",
]
