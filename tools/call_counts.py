"""Print the mean calls per job of the functions behind projpair's norms and
Horner passes, for run_trials jobs of the benchmark's three campaign shapes.

    PYTHONPATH=src python3 tools/call_counts.py

Each shape runs as `run_trials` jobs at base seeds 0-9, and each line gives
one counted name's mean calls per job. A name is counted where its callers
look it up, on every thread: at dim >= 64 power_expansion runs on a worker.
BLAS runs on one thread, as in the benchmark, so that worker runs here too.
Every chunk runs in this process, where the counters are: a campaign's
helper process, forked before they were installed, would not count its
share. The counts repeat exactly from run to run; they are not timings.
"""

from __future__ import annotations

import os

# BLAS reads these once, when numpy is first imported.
os.environ.update(dict.fromkeys(
    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
     "VECLIB_MAXIMUM_THREADS"), "1"))

import threading  # noqa: E402
from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

from projpair import linalg, verify  # noqa: E402
from projpair.verify import TrialConfig, run_trials  # noqa: E402

# The campaign job shapes of perfbench/workloads.py, less the base seed.
SHAPES = {
    "campaign_small": {"dims": (2, 4, 8, 16), "trials": 5},
    "campaign_large": {"dims": (64, 96), "trials": 1},
    "theorem_sweep": {"dims": (2, 4, 8, 16, 32, 64), "trials": 15, "tol": 1e-7,
                      "checks": ("theorem",)},
}
SEEDS = range(10)
# (label, module, name): every Gram eigensolve, every eigendecomposition,
# verify's Gram products and bounds (the gap terms' certificates, and the
# norms of lemma_product_power), and every Horner pass
COUNTED = (
    ("np.linalg.eigvalsh", np.linalg, "eigvalsh"),
    ("np.linalg.eigh", np.linalg, "eigh"),
    ("verify.grams", verify, "grams"),
    ("verify.gram_bounds", verify, "gram_bounds"),
    ("verify.gram_moment_bounds", verify, "gram_moment_bounds"),
    ("linalg._horner", linalg, "_horner"),
)


def call_counts(shape: dict, seeds=SEEDS) -> dict[str, float]:
    """Mean calls per job of each COUNTED name, by label, over the jobs
    run_trials(TrialConfig(**shape, base_seed=seed)) for each seed."""
    counts = Counter()
    lock = threading.Lock()

    def counting(label, real):
        def wrapper(*args, **kwargs):
            with lock:
                counts[label] += 1
            return real(*args, **kwargs)
        return wrapper

    reals = [getattr(module, name) for _, module, name in COUNTED]
    use_helper = verify._use_helper
    try:
        verify._use_helper = False
        for (label, module, name), real in zip(COUNTED, reals):
            setattr(module, name, counting(label, real))
        for seed in seeds:
            run_trials(TrialConfig(**shape, base_seed=seed))
    finally:
        verify._use_helper = use_helper
        for (_, module, name), real in zip(COUNTED, reals):
            setattr(module, name, real)
    return {label: counts[label] / len(seeds) for label, _, _ in COUNTED}


def main() -> None:
    width = max(len(label) for label, _, _ in COUNTED)
    for shape_name, shape in SHAPES.items():
        for label, mean in call_counts(shape).items():
            print(f"{shape_name:<15}{label:<{width + 2}}{mean:.1f}")


if __name__ == "__main__":
    main()
