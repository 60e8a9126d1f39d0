"""The campaign helper process: run_trials with its units of work shared
between the calling process and one forked helper reports the bytes it
reports with every unit in the caller."""

import ctypes
import hashlib
import importlib.util
import os
import pickle
import select
import signal
import subprocess
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import projpair._helper as helper_process
import projpair.verify as verify
from projpair.projections import random_pair
from projpair.verify import TrialConfig, run_trials

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture(autouse=True)
def one_blas_thread():
    """BLAS on one thread while the test runs, where numpy's OpenBLAS can be
    told so, as campaigns use a helper only then: two processes of threaded
    BLAS oversubscribe the cores, some campaigns 50x over."""
    get = verify._openblas("scipy_openblas_get_num_threads64_")
    set_threads = verify._openblas("scipy_openblas_set_num_threads64_", None, (ctypes.c_int,))
    if get is None or set_threads is None:
        yield
        return
    threads = get()
    set_threads(1)
    yield
    set_threads(threads)


def run_both(config: TrialConfig, monkeypatch) -> tuple[str, str]:
    """The report's JSON with every unit in this process, then with a helper."""
    monkeypatch.setattr(verify, "_helper_wanted", lambda: False)
    alone = run_trials(config).to_json()
    monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
    return alone, run_trials(config).to_json()


def caller_units(monkeypatch) -> list:
    """The units this process runs, from here on."""
    real = verify._run_unit
    ran = []

    def recording(config, unit, floors, kept):
        ran.append(unit)
        return real(config, unit, floors, kept)

    monkeypatch.setattr(verify, "_run_unit", recording)
    return ran


def all_units(config: TrialConfig) -> list:
    units = verify._Units(config)
    return [units[i] for i in range(len(units))]


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tool_{name}", ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_helper_keeps_the_contract_campaigns_bytes(monkeypatch):
    # among them floored campaigns of many units: dims 16 and 24 in chunks,
    # and dims 64 and 96, a unit per check of each pair, failing at tol 1e-15
    campaigns = load_tool("contract_digests").CAMPAIGNS
    monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
    run_trials(TrialConfig(dims=(2, 4), trials=1))  # fork the helper before the spy
    ran = caller_units(monkeypatch)
    units = 0
    for label, config in campaigns:
        alone, shared = run_both(config, monkeypatch)
        assert shared == alone, label
        units += len(verify._Units(config))
    # the serial runs' units, and some but not all of the helper runs'
    assert units < len(ran) < 2 * units


def merged_units(monkeypatch) -> list:
    """The index and unit of each unit this process merges, from here on:
    its own, and those the helper sends back."""
    real = verify._Merge.add
    merged = []

    def recording(merge, index, outcomes):
        merged.append((index, merge.units[index]))
        return real(merge, index, outcomes)

    monkeypatch.setattr(verify._Merge, "add", recording)
    return merged


def assert_each_unit_merged_once(config: TrialConfig, monkeypatch) -> None:
    """Three helper runs of config: each unit is merged here once, run here
    or sent back, so no claim is lost or repeated between the processes."""
    monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
    expected = run_trials(config).to_json()
    merged, ran = merged_units(monkeypatch), caller_units(monkeypatch)
    units = len(verify._Units(config))
    for _ in range(3):
        merged.clear()
        ran.clear()
        assert run_trials(config).to_json() == expected
        assert sorted(index for index, _ in merged) == list(range(units))
        assert 0 < len(ran) < units


def test_both_processes_claim_each_chunk_once(monkeypatch):
    # 60 chunks of one pair and one check
    assert_each_unit_merged_once(TrialConfig(dims=(64,), trials=60, base_seed=1,
                                             checks=("theorem",)), monkeypatch)


def test_both_processes_claim_each_check_unit_once(monkeypatch):
    # 10 dim-64 trials of 6 check units each, then one chunk of 10 dim-16
    # pairs
    assert_each_unit_merged_once(TrialConfig(dims=(16, 64), trials=10, base_seed=2),
                                 monkeypatch)


def test_chunks_cover_each_dims_trials_in_stack_sized_units():
    # the largest dims first, equal dims in config order; a chunk of one
    # pair is a split trial, one unit per check, costliest first, unless
    # the campaign runs one check; the split trials come first
    config = TrialConfig(dims=(2, 32, 64, 24, 32), trials=9, checks=("theorem", "nw_block"))
    whole = config.checks
    dim_2 = [(2, range(0, 9), whole)]
    dim_32 = [[(32, range(first, first + 4), whole), (32, range(first + 4, first + 8), whole),
               (32, range(first + 8, first + 9), whole)] for first in (9, 36)]
    dim_64 = [(64, range(i, i + 1), (check,)) for i in range(18, 27)
              for check in ("nw_block", "theorem")]
    dim_24 = [(24, range(27, 34), whole), (24, range(34, 36), whole)]
    assert all_units(config) == [*dim_64, *dim_32[0], *dim_32[1], *dim_24, *dim_2]
    units = verify._Units(config)
    assert (units.split, units.width) == (18, 2)
    one_check = verify._Units(replace(config, checks=("theorem",)))
    assert [one_check[i] for i in range(9)] == [
        (64, range(i, i + 1), ("theorem",)) for i in range(18, 27)]
    assert one_check.split == 0
    assert len(verify._Units(TrialConfig(dims=(2, 64), trials=0))) == 0
    # every check has its place in a split trial's order
    assert sorted(verify._SPLIT_ORDER) == sorted(verify.ALL_CHECKS)
    assert verify._Units(TrialConfig(dims=(96,), trials=1))[0][2] == ("power_expansion",)


@pytest.mark.parametrize("config, builds", [
    # campaign_large's shape: the caller builds the dim-96 pair, the helper
    # the dim-64 one, and then joins the caller's trial on its pair
    (TrialConfig(dims=(64, 96), trials=1), 2),
    (TrialConfig(dims=(64,), trials=12), 12),
    # chunks of pairs build as before, one random_pairs call each
    (TrialConfig(dims=(16, 64), trials=3, checks=("theorem", "nw_block")), 4),
])
def test_each_split_trials_pair_is_built_once(config, builds, monkeypatch):
    timeline = load_tool("unit_timeline").timeline
    monkeypatch.setattr(verify, "_helper_wanted", lambda: False)
    for seed in (0, 1, 2):
        seeded = replace(config, base_seed=seed)
        alone = run_trials(seeded).to_json()
        monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
        records, report = timeline(seeded)
        monkeypatch.setattr(verify, "_helper_wanted", lambda: False)
        assert report == alone
        assert {r["process"] for r in records if "build" not in r} == {"caller", "helper"}
        built = [(r["build"], *r["seeds"]) for r in records if "build" in r]
        assert len(built) == builds, built
        assert len(set(built)) == builds
        # the two processes meet in one split trial at most
        processes = {}
        for r in records:
            if "build" not in r and r["checks"] != [*config.checks]:
                processes.setdefault(r["trials"][0], set()).add(r["process"])
        assert sum(len(ran) > 1 for ran in processes.values()) <= 1
    assert helper_process._helper is None  # the tool closes the helper it forked


def test_unit_timeline_prints_each_unit_and_each_processs_builds(monkeypatch, capsys):
    monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
    load_tool("unit_timeline").main(["--base-seed", "3"])
    lines = capsys.readouterr().out.splitlines()
    config = TrialConfig(dims=(64, 96), trials=1, base_seed=3)  # campaign_large's shape
    assert len(lines) == 1 + len(verify._Units(config)) + 3
    assert {line.split()[0] for line in lines[1:-3]} == {"caller", "helper"}
    builds = [line.split(": ") for line in lines[-3:-1]]
    assert [process for process, _ in builds] == ["pair builds, caller", "pair builds, helper"]
    assert sum(int(count) for _, count in builds) == 2
    digest = hashlib.sha256(run_trials(config).to_json().encode()).hexdigest()
    assert lines[-1] == f"report sha256: {digest}"


@contextmanager
def two_slots(units: verify._Units):
    """The caller's and the helper's views of one slots file, in this process."""
    mine = helper_process._Slots()
    mine.start(units, clear=True)
    theirs = helper_process._Slots()
    theirs.file.close()
    theirs.file, theirs.mine, theirs.stride = mine.file, 1, mine.stride
    with mine.file:
        yield mine, theirs


def counting_builds(monkeypatch) -> list:
    real, built = verify.random_pairs, []

    def counting(dim, seeds):
        built.append((dim, *seeds))
        return real(dim, seeds)

    monkeypatch.setattr(verify, "random_pairs", counting)
    return built


def same_bits(a, b) -> bool:
    return a.tobytes() == b.tobytes() and a.dtype == b.dtype and a.shape == b.shape


def test_a_pair_read_from_the_other_slot_is_the_pair_built_again(monkeypatch):
    with two_slots(verify._Units(TrialConfig(dims=(64, 96), trials=1))) as (mine, theirs):
        built = counting_builds(monkeypatch)
        ours = mine.pair(64, 5)
        read = theirs.pair(64, 5)
        assert built == [(64, 5)]
        again = random_pair(64, 5)
        for pair in (ours, read):
            assert same_bits(pair.f, again.f) and same_bits(pair.g, again.g)
            assert pair.provenance == again.provenance and pair.dim == 64
            assert (pair.norm_fg, pair.norm_anti, pair.norm_comm) == (
                again.norm_fg, again.norm_anti, again.norm_comm)
        assert read.f.flags.writeable and read.f.flags.c_contiguous
        # the largest dim fits too, and a slot is read back as often as wanted
        large = mine.pair(96, 8)
        assert same_bits(theirs.pair(96, 8).f, large.f)
        assert same_bits(theirs.pair(96, 8).g, random_pair(96, 8).g)
        assert built == [(64, 5), (96, 8)]


def test_a_slot_holding_another_pair_is_ignored(monkeypatch):
    with two_slots(verify._Units(TrialConfig(dims=(64, 96), trials=1))) as (mine, theirs):
        built = counting_builds(monkeypatch)
        mine.pair(64, 5)
        for dim, seed in ((64, 6), (96, 5)):
            pair = theirs.pair(dim, seed)
            assert pair.provenance.params["seed"] == seed and pair.dim == dim
            assert same_bits(pair.f, random_pair(dim, seed).f)
        assert built == [(64, 5), (64, 6), (96, 5)]
        # a slot announced but never written, as a process that died building
        # leaves it, is ignored too; so are seeds a header cannot hold
        built.clear()
        mine._write_header(0, helper_process._BUILDING, 64, 9)
        assert theirs.pair(64, 9).provenance.params["seed"] == 9
        assert mine.pair(64, 2**64).provenance.params["seed"] == 2**64
        assert theirs.pair(64, 2**64).provenance.params["seed"] == 2**64
        assert built == [(64, 9), (64, 2**64), (64, 2**64)]


def test_a_pair_that_fails_validation_is_never_written(monkeypatch):
    with two_slots(verify._Units(TrialConfig(dims=(64,), trials=2))) as (mine, theirs):
        built = counting_builds(monkeypatch)
        real = verify.projection_failures
        monkeypatch.setattr(verify, "projection_failures",
                            lambda mats: [(0, "synthetic")] + real(mats))
        with pytest.raises(ArithmeticError, match="constructed f fails projection validation"):
            mine.pair(64, 3)
        assert mine._header(0)[0] == helper_process._EMPTY
        assert os.fstat(mine.file.fileno()).st_size == 2 * helper_process._HEADER.size
        monkeypatch.setattr(verify, "projection_failures", real)
        assert same_bits(theirs.pair(64, 3).g, random_pair(64, 3).g)
        assert built == [(64, 3), (64, 3)]
        # nor is one the file has no room for, which is still returned
        built.clear()

        def full(*args):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "pwritev", full)
        assert same_bits(mine.pair(64, 4).f, random_pair(64, 4).f)
        assert mine._header(0)[0] == helper_process._EMPTY
        assert theirs.pair(64, 4).provenance.params["seed"] == 4
        assert built == [(64, 4), (64, 4)]


def test_units_run_largest_dim_first_alone_and_beside_a_helper(monkeypatch):
    # the check units of one pair, the larger dims first, then the chunks
    # of two pairs, the larger dims first, equal dims in config order.
    # Alone, this process runs them in that order; shared, each unit's
    # index is its place in the order the two processes claim them
    config = TrialConfig(dims=(2, 64, 16, 96, 16), trials=2, checks=("theorem", "corollary"))
    order = all_units(config)
    assert [(dim, len(indices)) for dim, indices, _ in order] == [
        *[(96, 1)] * 4, *[(64, 1)] * 4, (16, 2), (16, 2), (2, 2)]
    monkeypatch.setattr(verify, "_helper_wanted", lambda: False)
    ran = caller_units(monkeypatch)
    assert run_trials(config).verdict == "pass"
    assert ran == order
    monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
    merged = merged_units(monkeypatch)
    assert run_trials(config).verdict == "pass"
    assert [unit for _, unit in sorted(merged, key=lambda m: m[0])] == order


def test_helper_keeps_the_order_of_errors_and_failures(monkeypatch):
    # trials 1 and 4 raise in corollary, wherever they run; at tol 1e-15
    # others fail; the helper is forked after the patch, so it runs it too
    real = verify.CHECKS["corollary"]

    def failing(pairs, cfg, floor):
        if any(pair.provenance.params["seed"] in (1, 4) for pair in pairs):
            raise ArithmeticError("synthetic check failure")
        return real(pairs, cfg, floor)

    monkeypatch.setitem(verify.CHECKS, "corollary", failing)
    config = TrialConfig(dims=(64,), trials=6, tol=1e-15)
    alone, shared = run_both(config, monkeypatch)
    assert shared == alone
    report = run_trials(config)
    assert [(e["trial"], e["message"]) for e in report.errors] == [
        (1, "ArithmeticError: synthetic check failure"),
        (4, "ArithmeticError: synthetic check failure")]
    assert any(s.failures for s in report.per_check)


@pytest.mark.parametrize("checks, winner", [
    # the caller's first unit, power_expansion's, waits until the helper is
    # in theorem's, which waits until power_expansion's has failed here
    (("theorem", "corollary", "power_expansion"), "theorem"),
    # the caller's first unit, power_expansion's, waits until theorem's has
    # failed on the helper, and fails after it
    (("power_expansion", "corollary", "theorem"), "power_expansion"),
])
def test_first_failing_check_wins_across_the_processes(checks, winner, monkeypatch):
    # the two processes hand off over two pipes, which the helper inherits
    # when the campaign forks it, so each unit runs where the case says: the
    # trial's units come power_expansion, theorem, corollary, and the
    # caller runs the first of them
    theorem_first = winner == "theorem"
    to_caller, to_helper = os.pipe(), os.pipe()

    def tell(pipe):
        os.write(pipe[1], b".")

    def wait_for(pipe):
        if not select.select([pipe[0]], [], [], 60)[0]:
            raise TimeoutError("the other process never got here")
        os.read(pipe[0], 1)

    def theorem(pairs, cfg, floor):
        tell(to_caller)
        if theorem_first:
            wait_for(to_helper)
        raise ValueError("synthetic theorem failure")

    def power_expansion(pairs, cfg, floor):
        wait_for(to_caller)
        if theorem_first:
            tell(to_helper)
        raise ArithmeticError("synthetic power_expansion failure")

    monkeypatch.setitem(verify.CHECKS, "theorem", theorem)
    monkeypatch.setitem(verify.CHECKS, "power_expansion", power_expansion)
    monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
    ran = caller_units(monkeypatch)
    try:
        report = run_trials(TrialConfig(dims=(64,), trials=1, checks=checks))
    finally:
        for fd in (*to_caller, *to_helper):
            os.close(fd)
    ran_checks = [checks for _, _, checks in ran]
    assert ran_checks[0] == ("power_expansion",) and ("theorem",) not in ran_checks
    message = {"theorem": "ValueError: synthetic theorem failure",
               "power_expansion": "ArithmeticError: synthetic power_expansion failure"}[winner]
    assert report.errors == [{"trial": 0, "dim": 64, "message": message}]
    assert all(s.trials == 0 for s in report.per_check)


def test_a_trial_that_errors_raises_no_floor(monkeypatch):
    # trial 0 (seed 4) raises in theorem, so it is left out of the report,
    # and reports nw_block's largest residual, 1e-9: a process that floored
    # nw_block there would skip every gap term of the later trials, each
    # below 1e-13, and report a smaller maximum. The caller waits in
    # theorem's unit of trial 0, its first, so the helper runs the trial's
    # other units and then most of the rest.
    real_theorem, real_block = verify.CHECKS["theorem"], verify.CHECKS["nw_block"]
    caller = os.getpid()

    def failing(pairs, cfg, floor):
        if any(pair.provenance.params["seed"] == 4 for pair in pairs):
            if os.getpid() == caller:
                time.sleep(0.3)
            raise ArithmeticError("synthetic check failure")
        return real_theorem(pairs, cfg, floor)

    def raised(pairs, cfg, floor):
        return [replace(report, residual=1e-9) if report.pair_provenance.params["seed"] == 4
                else report for report in real_block(pairs, cfg, floor)]

    monkeypatch.setitem(verify.CHECKS, "theorem", failing)
    monkeypatch.setitem(verify.CHECKS, "nw_block", raised)
    config = TrialConfig(dims=(64,), trials=8, base_seed=4)
    alone, shared = run_both(config, monkeypatch)
    assert shared == alone
    report = run_trials(config)
    assert [e["trial"] for e in report.errors] == [0]
    assert 0 < report.per_check[-1].max_residual < 1e-13


def test_helper_runs_under_the_callers_errstate(monkeypatch):
    def reporting(pairs, cfg, floor):
        raise FloatingPointError(f"over={np.geterr()['over']}")

    monkeypatch.setitem(verify.CHECKS, "theorem", reporting)
    monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
    config = TrialConfig(dims=(64,), trials=4, checks=("theorem",))
    for over in ("raise", "ignore"):
        with np.errstate(over=over):
            report = run_trials(config)
        assert [e["message"] for e in report.errors] == [f"FloatingPointError: over={over}"] * 4
    assert helper_process._helper is not None


def test_helper_killed_mid_campaign_leaves_its_chunks_to_the_caller(monkeypatch):
    config = TrialConfig(dims=(2, 64), trials=6, base_seed=3)
    monkeypatch.setattr(verify, "_helper_wanted", lambda: False)
    alone = run_trials(config).to_json()
    monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
    run_trials(TrialConfig(dims=(2, 4), trials=1))
    helper = helper_process._helper
    real = verify._run_unit
    ran = []

    def killing(config, unit, floors, kept):
        ran.append(unit)
        if len(ran) == 2:  # the helper has claimed unit 1 by now, or dies first
            os.kill(helper.pid, signal.SIGKILL)
        return real(config, unit, floors, kept)

    monkeypatch.setattr(verify, "_run_unit", killing)
    assert run_trials(config).to_json() == alone
    assert len(ran) >= 2
    assert helper_process._helper is None  # closed and reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(helper.pid, os.WNOHANG)
    # the next campaign forks a new helper
    assert run_trials(config).to_json() == alone
    assert helper_process._helper.pid != helper.pid


def test_helper_ignores_sigint_and_a_busy_helper_leaves_the_campaign_here(monkeypatch):
    config = TrialConfig(dims=(64,), trials=3)
    monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
    alone = run_trials(config).to_json()
    helper = helper_process._helper
    os.kill(helper.pid, signal.SIGINT)
    assert run_trials(config).to_json() == alone
    assert helper_process._helper is helper
    ran = caller_units(monkeypatch)
    with helper_process._helper_lock:  # as another thread's campaign holds it
        assert run_trials(config).to_json() == alone
    assert ran == all_units(config)


def test_a_campaign_whose_helper_cannot_start_runs_every_unit_here(monkeypatch):
    # a fork copies only the calling thread, so with another thread alive no
    # helper is forked, and the campaign runs as it would with none wanted
    config = TrialConfig(dims=(2, 64, 16), trials=2, base_seed=5)
    monkeypatch.setattr(verify, "_helper_wanted", lambda: False)
    alone = run_trials(config).to_json()
    helper_process._close_helper()
    monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
    ran = caller_units(monkeypatch)
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        assert run_trials(config).to_json() == alone
    finally:
        release.set()
        other.join()
    assert ran == all_units(config)
    assert helper_process._helper is None


def test_forked_child_does_not_use_its_parents_helper(monkeypatch):
    config = TrialConfig(dims=(2, 64), trials=3, base_seed=1)
    monkeypatch.setattr(verify, "_helper_wanted", lambda: True)
    expected = run_trials(config).to_json()
    parent_helper = helper_process._helper.pid
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: run the campaign, send its bytes and helper back
        code = 1
        try:
            os.close(read)
            report = run_trials(config).to_json()
            with os.fdopen(write, "wb") as out:
                pickle.dump((report, helper_process._helper and helper_process._helper.pid),
                            out)
            helper_process._close_helper()
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    assert select.select([read], [], [], 120)[0], "the child sent nothing in 120 s"
    with os.fdopen(read, "rb") as received:
        report, child_helper = pickle.load(received)
    assert os.waitpid(pid, 0)[1] == 0
    assert report == expected
    assert child_helper not in (None, parent_helper)
    # the parent's helper still serves it
    assert run_trials(config).to_json() == expected
    assert helper_process._helper.pid == parent_helper


def test_campaign_process_leaves_no_helper_behind():
    code = ("import sys; import projpair.verify as v; v._helper_wanted = lambda: True; "
            "v.run_trials(v.TrialConfig(dims=(2, 64), trials=2)); "
            "print(sys.modules['projpair._helper']._helper.pid, 'multiprocessing' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout.split()
    assert out[1] == "False"
    with pytest.raises(ProcessLookupError):
        os.kill(int(out[0]), 0)


@pytest.mark.parametrize("threads", [1, 2])
def test_one_blas_thread_asks_openblas_where_it_can(threads, monkeypatch):
    # the library's own count wins over any variable
    asked = []
    monkeypatch.setattr(verify, "_openblas",
                        lambda symbol, *types: asked.append(symbol) or (lambda: threads))
    for environ in ({}, {"OPENBLAS_NUM_THREADS": "1"}, {"OPENBLAS_NUM_THREADS": "4"}):
        assert verify._one_blas_thread(environ) == (threads == 1)
    assert asked == ["scipy_openblas_get_num_threads64_"] * 3


def test_one_blas_thread_reads_numpys_openblas():
    count = verify._openblas("scipy_openblas_get_num_threads64_")
    if count is None:
        pytest.skip("numpy's BLAS exports no scipy_openblas thread count")
    assert verify._one_blas_thread({}) == (count() == 1)
    # OpenBLAS reads the variable when it loads, so a fresh process with it
    # at 1 runs one thread, whatever this process runs
    code = "import projpair.verify as v; print(v._one_blas_thread({}))"
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out == "True\n"


def test_contract_digests_match_the_committed_ones():
    # BLAS on one thread, as the tool sets it, so on a host with 2 CPUs or
    # more the campaigns run on a helper
    env = {**os.environ, "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "contract_digests.py"), "--check"],
                          env=env, capture_output=True, text=True, timeout=300)
    if proc.returncode == 2:
        pytest.skip(proc.stderr.strip())
    assert proc.returncode == 0, proc.stderr


def test_helper_wanted_reads_the_blas_thread_count_per_campaign(monkeypatch):
    set_threads = verify._openblas("scipy_openblas_set_num_threads64_", None, (ctypes.c_int,))
    if set_threads is None:
        pytest.skip("numpy's BLAS exports no scipy_openblas thread count")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    assert verify._helper_wanted()
    set_threads(2)
    try:
        assert not verify._helper_wanted()
    finally:
        set_threads(1)
    assert verify._helper_wanted()


def test_helper_module_loads_only_for_a_campaign_that_wants_it():
    # and neither do the modules only the helper uses
    code = ("import projpair.cli, sys; print([name for name in "
            "('projpair._helper', 'socket', 'fcntl', 'select') if name in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120).stdout
    assert out == "[]\n"


@pytest.mark.parametrize("tool", ["contract_digests", "call_counts", "unit_timeline"])
def test_importing_a_tool_leaves_the_environment_alone(tool, monkeypatch):
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                 "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        monkeypatch.setenv(name, "7")
    before = dict(os.environ)
    spec = importlib.util.spec_from_file_location(f"fresh_{tool}", ROOT / "tools" / f"{tool}.py")
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    assert dict(os.environ) == before
