"""Print the sha256 of every output in projpair's byte contract.

The contract is twelve campaign reports (`run_trials(config).to_json()`),
nineteen CLI stdouts, the four pair files those runs write, and seven
failing CLI runs, each hashed as its exit code and its stderr. The first
line printed is a header naming what the bits depend on: the numpy version,
its BLAS and the CPU core OpenBLAS chose. A refactor keeps the contract when
this script prints the same lines before and after the change on the same
machine:

    PYTHONPATH=src python3 tools/contract_digests.py > after.txt
    diff before.txt after.txt

`--check` compares the lines with those committed in contract_digests.txt
beside this script. It exits 0 when they match, 1 naming each label whose
digest differs, and 2 without running anything when the file holds the
digests of another fingerprint. A change that moves the bytes on purpose
rewrites the file with this script's output.

BLAS runs on one thread, so the floating-point reductions, and the digests,
do not depend on the core count. The CLI runs in a temporary directory with
relative pair-file names, because `counterexample` and `decompose` print the
file name they were given.
"""

from __future__ import annotations

import os

if __name__ == "__main__":
    # BLAS reads these once, when numpy is first imported; a program that
    # imports this module keeps its own.
    os.environ.update(dict.fromkeys(
        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS",
         "VECLIB_MAXIMUM_THREADS"), "1"))

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from projpair import cli, verify  # noqa: E402
from projpair.projections import reference_2x2_pair, save_pair_json  # noqa: E402
from projpair.verify import ALL_CHECKS, TrialConfig, run_trials  # noqa: E402

COMMITTED = Path(__file__).with_suffix(".txt")

CAMPAIGNS = (
    ("default TrialConfig()", TrialConfig()),
    ("criterion 1", TrialConfig(dims=(2, 4, 8, 16, 32, 64), trials=200, base_seed=0,
                                tol=1e-7, checks=("theorem",))),
    ("criterion 4", TrialConfig(dims=(2, 4, 8, 16), trials=25, base_seed=0, tol=1e-9,
                                checks=("power_expansion", "nw_block"), n_max=8)),
    ("criterion 5", TrialConfig(dims=(2, 4, 8, 16), trials=250, base_seed=0, tol=1e-9,
                                checks=("lemma_product_power", "lemma_commutator"),
                                m_max=8)),
    ("all checks dims=(64, 96) trials=3 seed=0",
     TrialConfig(dims=(64, 96), trials=3, base_seed=0, checks=ALL_CHECKS)),
    # the shortest and a long power loop, beside the default length 8
    ("all checks dims=(2, 4, 8, 16) trials=25 seed=0 m_max=n_max=1",
     TrialConfig(dims=(2, 4, 8, 16), trials=25, base_seed=0, checks=ALL_CHECKS,
                 m_max=1, n_max=1)),
    ("all checks dims=(2, 4, 8, 16) trials=25 seed=0 m_max=n_max=12",
     TrialConfig(dims=(2, 4, 8, 16), trials=25, base_seed=0, checks=ALL_CHECKS,
                 m_max=12, n_max=12)),
    # dims whose power loops fit one stack (3, 5) beside dims where they split
    # into runs and stacks (24, 32, 48)
    ("all checks dims=(3, 5, 24, 32, 48) trials=10 seed=0",
     TrialConfig(dims=(3, 5, 24, 32, 48), trials=10, base_seed=0, checks=ALL_CHECKS)),
    # a dim whose trials fit one chunk of pairs (2) beside dims where they
    # split into chunks (16: four of 16 and one of 6; 24: ten of 7)
    ("theorem, corollary dims=(2, 16, 24) trials=70 seed=5",
     TrialConfig(dims=(2, 16, 24), trials=70, base_seed=5, checks=("theorem", "corollary"))),
    # every check on chunks whose pairs mix ranks of f, with degree runs cut
    # into one or a few degrees per run (16: a chunk of 16 and one of 5; 20:
    # chunks of 10, 10 and 1, the last a chunk of one pair)
    ("all checks dims=(2, 3, 4, 6, 16, 20) trials=21 seed=13",
     TrialConfig(dims=(2, 3, 4, 6, 16, 20), trials=21, base_seed=13, checks=ALL_CHECKS)),
    # a tol below the rounding of most residuals: many trials fail, so every
    # failing index, and not only each check's maximum, must be exact
    ("all checks dims=(2, 4, 8, 16, 24, 64) trials=10 seed=0 tol=1e-15",
     TrialConfig(dims=(2, 4, 8, 16, 24, 64), trials=10, base_seed=0, tol=1e-15,
                 checks=ALL_CHECKS)),
    # long power loops at a dim where every gap term's Gram is a stack of its
    # own, so a floored check holds many single-Gram stacks at once
    ("all checks dims=(64,) trials=2 seed=0 m_max=n_max=12",
     TrialConfig(dims=(64,), trials=2, base_seed=0, checks=ALL_CHECKS, m_max=12, n_max=12)),
)

# In order: the decompose runs read the pair files the counterexample runs write.
COMMANDS = (
    "universal --grid-size 999",
    # the smallest grid, and an even one, each with pi/4 inserted
    "universal --grid-size 2",
    "universal --grid-size 1000",
    # ~9k candidate cells, built and measured across several stacks
    "universal --grid-size 100000",
    "counterexample --dim 4 --mode random --budget 300 --seed 7 --out pair.json",
    "decompose --input pair.json",
    "counterexample --dim 6 --out det.json",
    "decompose --input det.json",
    "bounds --a 0.7071 --max-n 500",
    "bounds --a 0.3 --max-n 50 --format csv",
    "poly --family P --n 150",
    "poly --family F --n 200",
    "poly --family A --n 60",
    # the zero polynomial Q_1, a long Q, and F_1, the first recursion step
    "poly --family Q --n 1",
    "poly --family Q --n 200",
    "poly --family F --n 1",
    "verify --dims 2,4 --trials 5 --seed 3 --format csv",
    # 70 pairs in chunks of 64 and 6: 140 members across 3 stacks
    "counterexample --dim 8 --mode random --budget 70 --seed 11 --out wide.json",
    # 65 pairs in chunks of 64 and 1: the last chunk's one candidate is its worst
    "counterexample --dim 8 --mode random --budget 65 --seed 4 --out lone.json",
)

# The pair files the counterexample runs in COMMANDS write.
PAIR_FILES = ("pair.json", "det.json", "wide.json", "lone.json")

# Run after COMMANDS, whose pair.json they read: members whose idempotency
# residuals (f 1.688e-16, g 1.844e-16) exceed the tol fail validation.
FAILING = (
    "decompose --input pair.json --tol 1e-16",  # both members fail
    "decompose --input pair.json --tol 1.75e-16",  # g fails, f passes
    # finite input whose Gram products overflow, so validation cannot converge
    "decompose --input hostile.json",
    # the same at dim 2, where the eigensolver returns a nan top, not an error
    "decompose --input hostile2.json",
    # the dim-2 reference pair with f[0][0] = 1e200, whose P^2 - P itself
    # overflows: one error line naming the overflow, and no numpy warning
    "decompose --input hostile3.json",
    # one past UNIVERSAL_MAX_GRID, rejected before any grid is built
    "universal --grid-size 1000001",
    # one past BOUNDS_MAX_N, rejected before any row is computed
    "bounds --a 0.5 --max-n 1000001",
)


def _write_hostile(source: str, target: str, row: int, col: int) -> None:
    """A copy of a pair file with entry [row, col] of f set to 1e200."""
    payload = json.loads(Path(source).read_text())
    payload["f"][row * payload["dim"] + col] = [1e200, 0.0]
    Path(target).write_text(json.dumps(payload))


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _cli_run(command: str) -> tuple[int, str, str]:
    """`projpair command`'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    return code, out.getvalue(), err.getvalue()


def _cli_stdout(command: str) -> str:
    code, out, _ = _cli_run(command)
    if code != 0:
        raise SystemExit(f"`projpair {command}` exited {code}")
    return out


def _cli_failure(command: str) -> str:
    """The exit code and stderr of a run that must fail."""
    code, _, err = _cli_run(command)
    if code == 0:
        raise SystemExit(f"`projpair {command}` exited 0")
    return f"exit {code}\n{err}"


def fingerprint() -> str:
    """The header line: numpy's version, its BLAS, and the core OpenBLAS
    runs its kernels for, where numpy's bundled OpenBLAS names it."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    corename = verify._openblas("scipy_openblas_get_corename64_", ctypes.c_char_p)
    core = "unknown" if corename is None else corename().decode()
    return f"# numpy {np.__version__}, BLAS {blas}, OpenBLAS core {core}"


def digest_lines():
    """Each digest line, in order."""
    for label, config in CAMPAIGNS:
        yield f"{_sha256(run_trials(config).to_json())}  run_trials: {label}"
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for command in COMMANDS:
                yield f"{_sha256(_cli_stdout(command))}  projpair {command}"
            for name in PAIR_FILES:
                yield f"{_sha256(Path(name).read_text())}  pair file {name}"
            _write_hostile("pair.json", "hostile.json", 1, 2)
            save_pair_json(reference_2x2_pair(), "reference.json")
            _write_hostile("reference.json", "hostile2.json", 0, 1)
            _write_hostile("reference.json", "hostile3.json", 0, 0)
            for command in FAILING:
                yield f"{_sha256(_cli_failure(command))}  projpair {command} (exit code, stderr)"
        finally:
            os.chdir(cwd)


def check() -> int:
    """Compare the digests with the committed ones; the exit status."""
    header, *committed = COMMITTED.read_text().splitlines()
    if header != fingerprint():
        print(f"{COMMITTED.name} holds digests for `{header}`, not `{fingerprint()}`",
              file=sys.stderr)
        return 2
    expected = dict(line.split("  ", 1)[::-1] for line in committed)
    found = dict(line.split("  ", 1)[::-1] for line in digest_lines())
    differing = [label for label in expected.keys() | found.keys()
                 if expected.get(label) != found.get(label)]
    for label in sorted(differing, key=[*expected, *found].index):
        print(f"differs: {label}", file=sys.stderr)
    return 1 if differing else 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--check"]:
        return check()
    if argv:
        print("usage: contract_digests.py [--check]", file=sys.stderr)
        return 2
    print(fingerprint())
    for line in digest_lines():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
