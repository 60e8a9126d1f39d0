"""The campaign helper process: run_trials with its chunks shared between
the calling process and one forked helper reports the bytes it reports with
every chunk in the caller."""

import ctypes
import os
import pickle
import select
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import projpair.verify as verify
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
    """The report's JSON with every chunk in this process, then with a helper."""
    monkeypatch.setattr(verify, "_use_helper", False)
    alone = run_trials(config).to_json()
    monkeypatch.setattr(verify, "_use_helper", True)
    return alone, run_trials(config).to_json()


def caller_chunks(monkeypatch) -> list:
    """The index ranges of the chunks this process runs, from here on."""
    real = verify._run_chunk
    ran = []

    def recording(config, dim, indices, floors):
        ran.append(indices)
        return real(config, dim, indices, floors)

    monkeypatch.setattr(verify, "_run_chunk", recording)
    return ran


def load_contract_tool():
    sys.path.insert(0, str(ROOT / "tools"))
    try:
        import contract_digests
    finally:
        sys.path.remove(str(ROOT / "tools"))
    return contract_digests


def test_helper_keeps_the_contract_campaigns_bytes(monkeypatch):
    # among them floored multi-chunk campaigns: dims 16 and 24 in chunks, and
    # dims 64 and 96, a pair a chunk, failing at tol 1e-15
    campaigns = load_contract_tool().CAMPAIGNS
    monkeypatch.setattr(verify, "_use_helper", True)
    run_trials(TrialConfig(dims=(2, 4), trials=1))  # fork the helper before the spy
    ran = caller_chunks(monkeypatch)
    chunks = 0
    for label, config in campaigns:
        alone, shared = run_both(config, monkeypatch)
        assert shared == alone, label
        chunks += len(verify._Chunks(config))
    # the serial runs' chunks, and some but not all of the helper runs'
    assert chunks < len(ran) < 2 * chunks


def test_both_processes_claim_each_chunk_once(monkeypatch):
    # 60 chunks of one pair: each is recorded here once, run here or sent
    # back, so no claim is lost or repeated between the two processes
    config = TrialConfig(dims=(64,), trials=60, checks=("theorem",))
    monkeypatch.setattr(verify, "_use_helper", True)
    expected = run_trials(replace(config, base_seed=1)).to_json()
    real = verify._raise_floors
    recorded = []

    def recording(floors, outcomes):
        recorded.append(outcomes)
        return real(floors, outcomes)

    monkeypatch.setattr(verify, "_raise_floors", recording)
    ran = caller_chunks(monkeypatch)
    for _ in range(3):
        recorded.clear()
        ran.clear()
        assert run_trials(replace(config, base_seed=1)).to_json() == expected
        assert len(recorded) == 60
        assert 0 < len(ran) < 60


def test_chunks_cover_each_dims_trials_in_stack_sized_runs():
    config = TrialConfig(dims=(2, 32, 64, 24), trials=9)
    chunks = verify._Chunks(config)
    assert [chunks[i] for i in range(len(chunks))] == [
        (2, range(0, 9)), (32, range(9, 13)), (32, range(13, 17)), (32, range(17, 18)),
        *[(64, range(i, i + 1)) for i in range(18, 27)], (24, range(27, 34)), (24, range(34, 36))]
    assert len(verify._Chunks(TrialConfig(dims=(2, 64), trials=0))) == 0


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


def test_helper_runs_under_the_callers_errstate(monkeypatch):
    def reporting(pairs, cfg, floor):
        raise FloatingPointError(f"over={np.geterr()['over']}")

    monkeypatch.setitem(verify.CHECKS, "theorem", reporting)
    monkeypatch.setattr(verify, "_use_helper", True)
    config = TrialConfig(dims=(64,), trials=4, checks=("theorem",))
    for over in ("raise", "ignore"):
        with np.errstate(over=over):
            report = run_trials(config)
        assert [e["message"] for e in report.errors] == [f"FloatingPointError: over={over}"] * 4
    assert verify._helper is not None


def test_helper_killed_mid_campaign_leaves_its_chunks_to_the_caller(monkeypatch):
    config = TrialConfig(dims=(2, 64), trials=6, base_seed=3)
    monkeypatch.setattr(verify, "_use_helper", False)
    alone = run_trials(config).to_json()
    monkeypatch.setattr(verify, "_use_helper", True)
    run_trials(TrialConfig(dims=(2, 4), trials=1))
    helper = verify._helper
    real = verify._run_chunk
    ran = []

    def killing(config, dim, indices, floors):
        ran.append(indices)
        if len(ran) == 2:  # the helper has claimed chunk 1 by now, or dies first
            os.kill(helper.pid, signal.SIGKILL)
        return real(config, dim, indices, floors)

    monkeypatch.setattr(verify, "_run_chunk", killing)
    assert run_trials(config).to_json() == alone
    assert len(ran) >= 2
    assert verify._helper is None  # closed and reaped
    with pytest.raises(ChildProcessError):
        os.waitpid(helper.pid, os.WNOHANG)
    # the next campaign forks a new helper
    assert run_trials(config).to_json() == alone
    assert verify._helper.pid != helper.pid


def test_helper_ignores_sigint_and_a_busy_helper_leaves_the_campaign_here(monkeypatch):
    config = TrialConfig(dims=(64,), trials=3)
    monkeypatch.setattr(verify, "_use_helper", True)
    alone = run_trials(config).to_json()
    helper = verify._helper
    os.kill(helper.pid, signal.SIGINT)
    assert run_trials(config).to_json() == alone
    assert verify._helper is helper
    ran = caller_chunks(monkeypatch)
    with verify._helper_lock:  # as another thread's campaign holds it
        assert run_trials(config).to_json() == alone
    assert ran == [range(0, 1), range(1, 2), range(2, 3)]


def test_forked_child_does_not_use_its_parents_helper(monkeypatch):
    config = TrialConfig(dims=(2, 64), trials=3, base_seed=1)
    monkeypatch.setattr(verify, "_use_helper", True)
    expected = run_trials(config).to_json()
    parent_helper = verify._helper.pid
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:  # the child: run the campaign, send its bytes and helper back
        code = 1
        try:
            os.close(read)
            report = run_trials(config).to_json()
            with os.fdopen(write, "wb") as out:
                pickle.dump((report, verify._helper and verify._helper.pid), out)
            verify._close_helper()
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
    assert verify._helper.pid == parent_helper


def test_campaign_process_leaves_no_helper_behind():
    code = ("import sys; import projpair.verify as v; v._use_helper = True; "
            "v.run_trials(v.TrialConfig(dims=(2, 64), trials=2)); "
            "print(v._helper.pid, 'multiprocessing' in sys.modules)")
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
    code = "import projpair.verify as v; print(v._ONE_BLAS_THREAD)"
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
