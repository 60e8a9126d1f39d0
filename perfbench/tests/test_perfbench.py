"""Tests of the benchmark itself: run with `python3 -m pytest perfbench/tests`."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

import calibrate
import run
import spans
import workloads
from projpair import cli, linalg, verify

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY_CAMPAIGNS = {
    "campaign_small": {"dims": (2,), "trials": 1},
    "campaign_large": {"dims": (8,), "trials": 1},
    "theorem_sweep": {"dims": (2, 4), "trials": 2, "tol": 1e-7, "checks": ("theorem",)},
}


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """Shrink the jobs, keep outputs out of the checkout, restore the env afterwards."""
    monkeypatch.setattr(workloads, "CAMPAIGNS", TINY_CAMPAIGNS)
    monkeypatch.setattr(workloads, "COUNTEREXAMPLE_BUDGET", 5)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "TRACE_JOBS", 2)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    for var in run.BLAS_ENV:
        monkeypatch.setenv(var, "1")
    monkeypatch.delenv("PROJPAIR_THREADS", raising=False)


def _result(capsys):
    lines = capsys.readouterr().out.splitlines()
    record = json.loads(lines[-2])["record"]
    result = json.loads(lines[-1])
    return record, result


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_each_workload(tiny, capsys, workload, trace):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    record, result = _result(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert record["environment"]["projpair_threads"] == "unset"
    if trace:
        assert result["metrics"]["linalg.spectral_norm.calls_per_job"]["value"] > 0
        # every wrapper is gone once the traced jobs end
        assert verify.spectral_norm is linalg.spectral_norm
        assert cli.main.__module__ == "projpair.cli" and not hasattr(cli.main, "__wrapped__")
    else:
        assert result["metrics"]["job_ms_p90"]["value"] >= result["metrics"]["job_ms_p50"]["value"]
        assert record["jobs"] >= run.MIN_JOBS


def test_report_digest_repeats_for_a_seed(tiny, capsys):
    digests = []
    for _ in range(2):
        run.main(["--workload", "theorem_sweep", "--seed", "5", "--seconds", "0"])
        digests.append(_result(capsys)[0]["report_sha256"])
    assert digests[0] == digests[1]


def test_percentile_needs_ten_samples_beyond():
    assert run.percentile(range(1, 100), 0.9) is None
    assert run.percentile(range(1, 101), 0.9) == 90
    assert run.percentile(range(1, 20), 0.5) is None
    assert run.percentile(range(20, 0, -1), 0.5) == 10
    assert run.percentile([], 0.5) is None


def test_self_time_subtracts_direct_children():
    # run_trials [0, 1] > trial [0.1, 0.9] > theorem [0.2, 0.6] > two norms
    trace = [
        ["verify.run_trials", 0.0, 1.0, -1, 0],
        ["verify.trial", 0.1, 0.9, 0, 0],
        ["verify.check.theorem", 0.2, 0.6, 1, 0],
        ["linalg.spectral_norm", 0.3, 0.4, 2, 0],
        ["linalg.spectral_norm", 0.45, 0.5, 2, 0],
    ]
    assert spans.self_times(trace) == pytest.approx([0.2, 0.4, 0.25, 0.1, 0.05])
    metrics = spans.layer_metrics(trace, Counter(), jobs=1, cli_bytes=0)
    assert metrics["verify.check.theorem.ms_per_pair"] == pytest.approx(400.0)
    assert metrics["verify.check.theorem.self_ms_per_pair"] == pytest.approx(250.0)
    assert metrics["verify.run_trials.driver_ms_per_job"] == pytest.approx(200.0)
    assert metrics["linalg.spectral_norm.calls_per_job"] == 2
    assert metrics["linalg.spectral_norm.ms_per_job"] == pytest.approx(150.0)


def test_nested_universal_methods_count_once():
    trace = [
        ["projections.universal_pair_approx.anticommutator_residual", 0.0, 1.0, -1, 0],
        ["projections.universal_pair_approx.norm_product", 0.1, 0.4, 0, 0],
        ["projections.universal_pair_approx.norm_product", 2.0, 2.5, -1, 0],
    ]
    metrics = spans.layer_metrics(trace, Counter(), jobs=1, cli_bytes=0)
    assert metrics["projections.universal_pair_approx.ms_per_job"] == pytest.approx(1500.0)


def test_raising_job_counts_as_failed_and_run_goes_on(monkeypatch):
    def execute(job):
        if job == 3:
            raise ZeroDivisionError("stub")
        return job

    stub = SimpleNamespace(
        make_job=lambda name, seed, index, work: index,
        execute=execute,
        check=lambda job, outputs: workloads.JobResult(b"%d" % job, 2, 0),
    )
    monkeypatch.setattr(run, "setup_probe", lambda name, seed, work: (0.5, None))
    tally = run.Tally()
    metrics, facts = run.measure(stub, "stub", 0, 0.0, "work", tally)
    assert facts["jobs"] == run.MIN_JOBS
    assert tally.attempted == 1 + run.SETUP_PROBES + run.MIN_JOBS
    assert tally.failed == 1 and "ZeroDivisionError: stub" in tally.errors[0]
    assert metrics["pairs_per_s"] == pytest.approx(metrics["jobs_per_s"] * 2 * 99 / 100)


def test_checks_reject_wrong_outputs(tmp_path):
    config = verify.TrialConfig(dims=(2,), trials=1)
    report = workloads.execute(config)
    workloads.check(config, report)
    with pytest.raises(workloads.JobFailed):
        workloads.check(config, report.replace('"verdict": "pass"', '"verdict": "fail"'))

    job = (("poly", "--family", "F", "--n", "0"),)
    (call,) = workloads.execute(job)
    workloads.check(job, (call,))
    tampered = call.stdout.replace('"1"', '"2"', 1)
    assert tampered != call.stdout
    with pytest.raises(workloads.JobFailed):
        workloads.check(job, (workloads.CliCall(call.argv, 0, tampered, ""),))


def test_job_inputs_depend_only_on_seed_and_index():
    make = workloads.make_job
    assert make("campaign_large", 1, 4, "w") == make("campaign_large", 1, 4, "w")
    assert make("exact_tools", 1, 4, "w") == make("exact_tools", 1, 4, "w")
    assert make("exact_tools", 1, 4, "w") != make("exact_tools", 2, 4, "w")
    assert make("campaign_large", 1, 4, "w") != make("campaign_large", 1, 5, "w")


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "theorem_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_adjust_scales_by_the_median_kernel_time_around_each_job():
    ref = calibrate.REFERENCE_S
    walls = [1.0, 1.0, 2.0, 1.0]
    kernels = [ref, 2 * ref, 2 * ref, 100 * ref]
    # windows of one neighbour: [k0 k1], [k0 k1 k2], [k1 k2 k3], [k2 k3]
    assert calibrate.adjust(walls, kernels, neighbours=1) == pytest.approx([2 / 3, 0.5, 1.0, 1 / 51])
    assert calibrate.adjust(walls, kernels, neighbours=0) == pytest.approx([1.0, 0.5, 1.0, 0.01])
    with pytest.raises(ValueError):
        calibrate.adjust(walls, kernels[:2])
