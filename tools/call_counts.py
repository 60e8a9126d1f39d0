"""Print the mean calls per job of the functions behind projpair's norms and
Horner passes, and the Horner plans built per job, for run_trials jobs of
the benchmark's three campaign shapes (perfbench/workloads.py).

    PYTHONPATH=src python3 tools/call_counts.py

Each shape runs as `run_trials` jobs at base seeds 0-9, and each line gives
one counted name's mean calls per job. A name is counted where its callers
look it up. Both Horner plan caches are cleared before each shape, so its
plans line counts every plan the shape's jobs build. BLAS runs on one
thread, as in the benchmark. Every unit of work runs in this process,
where the counters are (verify._helper_wanted is replaced for the run): a
campaign's helper process, forked before they were installed, would not
count its share. The units run in the order verify._Units gives them,
largest dim first and a split trial's units costliest first, in one
process, so each check's floors are those of a serial run, not of a run
shared with a helper.
The counts repeat exactly from run to run; they are not timings.
"""

from __future__ import annotations

import os
import runpy
from pathlib import Path

if __name__ == "__main__":
    # BLAS reads these once, when numpy is first imported; a program that
    # imports this module keeps its own.
    os.environ.update(dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
         "VECLIB_MAXIMUM_THREADS"), "1"))

from collections import Counter  # noqa: E402

import numpy as np  # noqa: E402

from projpair import linalg, verify  # noqa: E402
from projpair.verify import TrialConfig, run_trials  # noqa: E402

# The benchmark's campaign job shapes, less the base seed
SHAPES = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"),
                        run_name="perfbench_workloads")["CAMPAIGNS"]
SEEDS = range(10)
# (label, module, name): every Gram eigensolve, every eigendecomposition,
# verify's Gram products and bounds (the gap terms' certificates), and every
# Horner pass
COUNTED = (
    ("np.linalg.eigvalsh", np.linalg, "eigvalsh"),
    ("np.linalg.eigh", np.linalg, "eigh"),
    ("verify.grams", verify, "grams"),
    ("verify.gram_bounds", verify, "gram_bounds"),
    ("verify.gram_moment_bounds", verify, "gram_moment_bounds"),
    ("linalg._horner", linalg, "_horner"),
)
# the Horner plans built: the misses of both plan caches
PLANS = "linalg Horner plans"
PLAN_CACHES = (linalg._horner_plan, linalg._slice_plan)
LABELS = (*(label for label, _, _ in COUNTED), PLANS)


def call_counts(shape: dict, seeds=SEEDS) -> dict[str, float]:
    """Mean calls per job of each COUNTED name, by label, and of Horner
    plans built under PLANS, over the jobs
    run_trials(TrialConfig(**shape, base_seed=seed)) for each seed, with
    both plan caches cleared first."""
    counts = Counter()

    def counting(label, real):
        def wrapper(*args, **kwargs):
            counts[label] += 1
            return real(*args, **kwargs)
        return wrapper

    reals = [getattr(module, name) for _, module, name in COUNTED]
    helper_wanted = verify._helper_wanted
    try:
        verify._helper_wanted = lambda: False
        for (label, module, name), real in zip(COUNTED, reals):
            setattr(module, name, counting(label, real))
        for cache in PLAN_CACHES:
            cache.cache_clear()
        for seed in seeds:
            run_trials(TrialConfig(**shape, base_seed=seed))
    finally:
        verify._helper_wanted = helper_wanted
        for (_, module, name), real in zip(COUNTED, reals):
            setattr(module, name, real)
    counts[PLANS] = sum(cache.cache_info().misses for cache in PLAN_CACHES)
    return {label: counts[label] / len(seeds) for label in LABELS}


def main() -> None:
    width = max(map(len, LABELS))
    for shape_name, shape in SHAPES.items():
        for label, mean in call_counts(shape).items():
            print(f"{shape_name:<15}{label:<{width + 2}}{mean:.1f}")


if __name__ == "__main__":
    main()
