import csv
import io
import json
import math
import warnings
from collections import Counter

import numpy as np
import pytest

from projpair import cli, linalg, projections
from projpair.cli import main
from projpair.projections import reference_2x2_pair, save_pair_json, universal_pair_approx
from reference_cells import angle_cells


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- verify ------------------------------------------------------------------


def test_verify_small_campaign_json(capsys):
    code, out, _ = run(capsys, "verify", "--dims", "2,4", "--trials", "5", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "pass"
    assert payload["config"]["base_seed"] == 7
    assert all(entry["trials"] == 10 for entry in payload["per_check"])


def test_verify_zero_trials_passes(capsys):
    code, out, _ = run(capsys, "verify", "--trials", "0")
    assert code == 0
    assert json.loads(out)["verdict"] == "pass"


def test_verify_negative_tol_usage_error(capsys):
    for flag, value in (("--tol", "-1"), ("--tol", "nan"), ("--tol", "inf"),
                        ("--trials", "-1"), ("--seed", "-1")):
        code, _, err = run(capsys, "verify", flag, value)
        assert code == 2
        assert flag.lstrip("-") in err


def test_verify_bad_dims_usage_error(capsys):
    code, _, _ = run(capsys, "verify", "--dims", "2,x")
    assert code == 2
    code, _, _ = run(capsys, "verify", "--dims", "1")
    assert code == 2


def test_verify_unknown_check_usage_error(capsys):
    # an empty list would run nothing and pass; a repeat would double-count trials
    for checks, message in (("nonsense", "unknown"), (",", "at least one"),
                            ("theorem,theorem", "each check once")):
        code, out, err = run(capsys, "verify", "--dims", "2", "--trials", "2",
                             "--checks", checks)
        assert code == 2
        assert out == ""
        assert message in err


def test_verify_failing_tolerance_exits_one(capsys):
    # residuals near 1e-16 cannot beat an absurdly tight tolerance
    code, out, _ = run(
        capsys, "verify", "--dims", "2", "--trials", "3", "--tol", "1e-300"
    )
    assert code == 1
    assert json.loads(out)["verdict"] == "fail"


def test_verify_csv_summary(capsys):
    code, out, _ = run(
        capsys, "verify", "--dims", "2", "--trials", "4", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["check", "trials", "max_residual", "failures", "verdict"]
    assert rows[-1][0] == "overall"
    assert rows[-1][-1] == "pass"
    # full round-trip precision: the residual column must parse back to a float
    float(rows[1][2])


def test_verify_writes_report_file(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify", "--dims", "2", "--trials", "3", "--out", str(out_file)
    )
    assert code == 0
    assert out == ""
    assert json.loads(out_file.read_text())["verdict"] == "pass"


def test_verify_byte_identical_reports(capsys, tmp_path, monkeypatch):
    args = ("verify", "--dims", "2,4", "--trials", "5", "--seed", "3")
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    third = tmp_path / "c.json"
    assert run(capsys, *args, "--out", str(first))[0] == 0
    assert run(capsys, *args, "--out", str(second))[0] == 0
    monkeypatch.setenv("PROJPAIR_THREADS", "4")
    assert run(capsys, *args, "--out", str(third))[0] == 0
    assert first.read_bytes() == second.read_bytes() == third.read_bytes()


def test_verify_io_error(capsys):
    code, _, err = run(
        capsys, "verify", "--trials", "0", "--out", "/nonexistent/dir/report.json"
    )
    assert code == 3
    assert "i/o" in err


# --- poly ---------------------------------------------------------------------


def test_poly_f2(capsys):
    code, out, _ = run(capsys, "poly", "--family", "F", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["0", "1", "3"]
    assert payload["recursive_closed_match"] is True


def test_poly_q1_zero_polynomial(capsys):
    code, out, _ = run(capsys, "poly", "--family", "Q", "--n", "1")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["0"]


def test_poly_a2(capsys):
    code, out, _ = run(capsys, "poly", "--family", "A", "--n", "2")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["0", "0", "3", "0", "1"]


def test_poly_f0_allowed(capsys):
    code, out, _ = run(capsys, "poly", "--family", "F", "--n", "0")
    assert code == 0
    assert json.loads(out)["coefficients"] == ["1"]


def test_poly_range_validation(capsys):
    assert run(capsys, "poly", "--family", "P", "--n", "0")[0] == 2
    assert run(capsys, "poly", "--family", "P", "--n", "201")[0] == 2
    assert run(capsys, "poly", "--family", "A", "--n", "101")[0] == 2
    assert run(capsys, "poly", "--family", "Z", "--n", "1")[0] == 2


# --- decompose -----------------------------------------------------------------


def test_decompose_reference_pair(capsys, tmp_path):
    path = tmp_path / "pair.json"
    save_pair_json(reference_2x2_pair(), path)
    code, out, _ = run(capsys, "decompose", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["rank_f"] == 1
    assert payload["D"][0][0] == pytest.approx(0.5, abs=1e-12)
    assert abs(complex(*payload["V"][0])) == pytest.approx(0.5, abs=1e-12)
    assert payload["Dprime"][0][0] == pytest.approx(0.5, abs=1e-12)
    assert payload["norm_identity_residual"] <= 1e-12
    assert max(payload["relation_residuals"].values()) <= 1e-12


def test_decompose_full_f_gives_empty_complement(capsys, tmp_path):
    from projpair.projections import ProjectionPair, Provenance

    path = tmp_path / "full.json"
    g = np.diag([1.0, 0.0]).astype(complex)
    save_pair_json(ProjectionPair(np.eye(2), g, 2, Provenance("file")), path)
    code, out, _ = run(capsys, "decompose", "--input", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["rank_f"] == 2
    assert payload["Dprime"] == []
    assert payload["V_shape"] == [2, 0]


def test_decompose_rejects_non_projection(capsys, tmp_path):
    from projpair.projections import ProjectionPair, Provenance

    path = tmp_path / "bad.json"
    not_proj = np.array([[0.5, 0.0], [0.0, 0.5]], dtype=complex)
    save_pair_json(ProjectionPair(not_proj, np.eye(2), 2, Provenance("file")), path)
    code, _, err = run(capsys, "decompose", "--input", str(path))
    assert code == 2
    assert "idempotency" in err
    # a bad tol is reported as such, also for f = diag(2, 0), whose residuals
    # an infinite tol would accept
    save_pair_json(ProjectionPair(np.diag([2.0, 0.0]), np.full((2, 2), 0.5), 2,
                                  Provenance("file")), path)
    for tol in ("inf", "nan", "-1", "0"):
        code, _, err = run(capsys, "decompose", "--input", str(path), "--tol", tol)
        assert code == 2
        assert f"tol must be finite and positive, got {float(tol)}" in err


def test_decompose_computes_relation_residuals_once(capsys, tmp_path, monkeypatch):
    # the decomposition forms the three relation gaps once and keeps their
    # norms in the blocks it returns; decompose reads them from there
    calls = []
    real = projections._relation_gaps

    def recording(D, V, Dp):
        calls.append(D)
        return real(D, V, Dp)

    monkeypatch.setattr(projections, "_relation_gaps", recording)
    path = tmp_path / "pair.json"
    save_pair_json(reference_2x2_pair(), path)
    code, out, _ = run(capsys, "decompose", "--input", str(path))
    assert code == 0
    assert set(json.loads(out)["relation_residuals"]) == {
        "range_block", "mixed_block", "kernel_block"}
    assert len(calls) == 1, f"relation residuals computed {len(calls)} times"


def test_decompose_hostile_finite_input_is_usage_error(capsys, tmp_path):
    # An entry of 1e200 is finite, but validation's Gram products overflow:
    # at dim 2 the eigensolve gives a nan top, which gram_norms rejects; from
    # dim 3 up it does not converge. Either way: exit 2, one error line and no
    # numpy warning.
    from projpair.projections import ProjectionPair, Provenance, random_projection

    path = tmp_path / "hostile.json"
    for dim in (2, 4):
        f = random_projection(dim, 1, 0).copy()
        f[1, 0] = 1e200
        save_pair_json(ProjectionPair(f, random_projection(dim, 1, 1), dim, Provenance("file")),
                       path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "decompose", "--input", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("entry", [1e160, 1e200, 1e300])
def test_decompose_overflowing_dim2_input_names_the_overflow(capsys, tmp_path, entry):
    # at dim 2 the eigensolver returns a nan top for the overflowed Gram,
    # which used to come out as a nan hermiticity residual
    path = tmp_path / "hostile.json"
    pair = reference_2x2_pair()
    f = pair.f.copy()
    f[0, 1] = entry
    save_pair_json(projections.ProjectionPair(f, pair.g, 2, pair.provenance), path)
    code, out, err = run(capsys, "decompose", "--input", str(path))
    assert (code, out) == (2, "")
    assert err == "error: matrix entries too large: the Gram product A*A overflows\n"


def test_decompose_missing_file_is_io_error(capsys, tmp_path):
    code, _, _ = run(capsys, "decompose", "--input", str(tmp_path / "nope.json"))
    assert code == 3


def test_decompose_malformed_json_is_usage_error(capsys, tmp_path):
    path = tmp_path / "mangled.json"
    # the deep nesting overflows the JSON decoder's recursion limit
    for text in ("{not json", "[" * 200000):
        path.write_text(text)
        code, _, _ = run(capsys, "decompose", "--input", str(path))
        assert code == 2


# --- bounds ---------------------------------------------------------------------


def test_bounds_zero(capsys):
    code, out, _ = run(capsys, "bounds", "--a", "0", "--max-n", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["limit"] == 0.0
    assert all(row["upper"] == 0.0 and row["lower"] == 0.0 for row in payload["rows"])


def test_bounds_one_upper_constant(capsys):
    code, out, _ = run(capsys, "bounds", "--a", "1", "--max-n", "5")
    assert code == 0
    payload = json.loads(out)
    for row in payload["rows"]:
        assert row["upper"] == pytest.approx(2.0, abs=1e-12)


def test_bounds_gap_shrinks(capsys):
    code, out, _ = run(
        capsys, "bounds", "--a", "0.70710678", "--max-n", "500", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["N", "upper", "lower", "limit", "gap"]
    assert float(rows[-1][4]) <= 1e-2


def test_bounds_rejects_out_of_range(capsys):
    assert run(capsys, "bounds", "--a", "2", "--max-n", "5")[0] == 2
    assert run(capsys, "bounds", "--a", "-0.5", "--max-n", "5")[0] == 2
    assert run(capsys, "bounds", "--a", "0.5", "--max-n", "0")[0] == 2


def test_bounds_rejects_oversized_max_n_before_computing_rows(capsys, monkeypatch):
    # 10**7 rows would need about 15 GB; no row may be computed at all
    def refuse(a, max_n):
        raise AssertionError(f"computed {max_n} rows")

    monkeypatch.setattr(cli, "bound_sequences", refuse)
    for max_n in (cli.BOUNDS_MAX_N + 1, 10**7):
        code, out, err = run(capsys, "bounds", "--a", "0.5", "--max-n", str(max_n))
        assert code == 2
        assert out == ""
        assert err == f"error: --max-n must be at most {cli.BOUNDS_MAX_N}, got {max_n}\n"


# --- counterexample ---------------------------------------------------------------


def test_counterexample_dim4(capsys, tmp_path):
    out_file = tmp_path / "pair.json"
    code, out, _ = run(capsys, "counterexample", "--dim", "4", "--out", str(out_file))
    assert code == 0
    payload = json.loads(out)
    assert payload["violation"] == pytest.approx(0.25, abs=1e-10)
    from projpair.projections import load_pair_json, validate_projection

    pair = load_pair_json(out_file)
    assert validate_projection(pair.f).ok and validate_projection(pair.g).ok


def test_counterexample_dim2_rejected(capsys):
    assert run(capsys, "counterexample", "--dim", "2")[0] == 2
    assert run(capsys, "counterexample", "--dim", "7")[0] == 2
    assert run(capsys, "counterexample", "--dim", "4", "--budget", "0")[0] == 2
    code, _, err = run(capsys, "counterexample", "--dim", "4", "--mode", "random",
                       "--seed", "-5")
    assert code == 2
    assert "seed must be >= 0, got -5" in err


def test_counterexample_unallocatable_dim_is_usage_error(capsys, tmp_path):
    # 2 x 16777216^2 complex entries are 8 PiB, beyond any x86-64 address
    # space; the MAX_DIM cap rejects the dim before numpy is asked for them
    out_file = tmp_path / "huge.json"
    code, out, err = run(capsys, "counterexample", "--dim", "16777216", "--mode", "random",
                         "--budget", "1", "--out", str(out_file))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out_file.exists()


def test_counterexample_random_mode(capsys, tmp_path):
    out_file = tmp_path / "rand.json"
    code, out, _ = run(
        capsys,
        "counterexample", "--dim", "8", "--mode", "random",
        "--budget", "50", "--out", str(out_file),
    )
    assert code == 0
    assert json.loads(out)["violation"] > 0.0


# --- universal ----------------------------------------------------------------------


def test_universal_k999(capsys):
    code, out, _ = run(capsys, "universal", "--grid-size", "999")
    assert code == 0
    payload = json.loads(out)
    assert payload["norm_pq"] >= 1 - 1e-5
    assert abs(payload["norm_commutator"] - 0.5) <= 1e-5
    assert payload["theorem_residual"] <= 1e-10


def test_universal_k2_two_cells(capsys):
    code, out, _ = run(capsys, "universal", "--grid-size", "2")
    assert code == 0
    payload = json.loads(out)
    # grid {pi/6, pi/3} plus the inserted pi/4
    assert payload["cells"] == 3
    assert payload["norm_pq"] == pytest.approx(math.cos(math.pi / 6), abs=1e-12)
    assert payload["norm_commutator"] == pytest.approx(0.5, abs=1e-12)
    assert payload["theorem_residual"] <= 1e-10


def test_universal_measures_each_cell_at_most_once(capsys, monkeypatch):
    # largest_norm, which measures the approximant's cells, looks up
    # spectral_norms in linalg; the counts are the cells whose closed-form
    # bound reaches their product's largest norm (89, 89 and 73 at grid 999)
    measured = []
    real = linalg.spectral_norms

    def recording(m):
        measured.extend(np.array(m, copy=True))
        return real(m)

    monkeypatch.setattr(linalg, "spectral_norms", recording)
    for grid, count in ((7, 3), (999, 251)):
        measured.clear()
        code, _, _ = run(capsys, "universal", "--grid-size", str(grid))
        assert code == 0
        f, g = angle_cells(universal_pair_approx(grid).angles)
        pq, qp = np.matmul(f, g), np.matmul(g, f)
        cells = Counter(cell.tobytes() for cell in (*pq, *(pq - qp), *(pq + qp)))
        assert cells.total() == 3 * len(pq)
        # cells of equal bits (pq - qp at angles t and pi/2 - t) may each be measured once
        seen = Counter(cell.tobytes() for cell in measured)
        assert len(measured) == count
        assert all(seen[key] <= cells[key] for key in seen)


def test_universal_rejects_small_grid(capsys):
    assert run(capsys, "universal", "--grid-size", "1")[0] == 2


def test_universal_rejects_oversized_grid_before_building_it(capsys, monkeypatch):
    # 10**8 would exhaust an 8 GiB host's memory; no grid may be built at all
    def refuse(grid_size):
        raise AssertionError(f"built a grid of {grid_size}")

    monkeypatch.setattr(cli, "universal_pair_approx", refuse)
    for size in (cli.UNIVERSAL_MAX_GRID + 1, 10**8):
        code, out, err = run(capsys, "universal", "--grid-size", str(size))
        assert code == 2
        assert out == ""
        assert f"--grid-size must lie in [2, {cli.UNIVERSAL_MAX_GRID}], got {size}" in err


def test_dims_above_the_cap_are_rejected_before_anything_is_built(capsys, monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("built pairs past the dimension cap")

    monkeypatch.setattr(cli, "run_trials", refuse)
    monkeypatch.setattr(cli, "find_commutator_identity_counterexample", refuse)
    over = cli.MAX_DIM + 1
    for argv, option in ((("verify", "--dims", f"2,{over}", "--trials", "1"), "--dims entries"),
                         (("counterexample", "--dim", str(over), "--out", str(tmp_path / "p.json")),
                          "--dim")):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err == f"error: {option} must be at most {cli.MAX_DIM}, got {over}\n"
    assert not (tmp_path / "p.json").exists()
    assert cli._parse_dims(f"2,{cli.MAX_DIM}") == (2, cli.MAX_DIM)


# --- parser level -----------------------------------------------------------------------


def test_unknown_subcommand_exits_two(capsys):
    assert main(["frobnicate"]) == 2


def test_missing_required_flag_exits_two(capsys):
    assert main(["poly", "--family", "F"]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert main(["verify", "--help"]) == 0


def test_main_builds_the_parser_once(capsys, monkeypatch):
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        assert run(capsys, "bounds", "--a", "0.5", "--max-n", "2")[0] == 0
        assert run(capsys, "poly", "--family", "F", "--n", "2")[0] == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1


def test_checks_flag_tolerates_spaces(capsys):
    code, out, _ = run(
        capsys, "verify", "--dims", "2", "--trials", "2",
        "--checks", "theorem, corollary",
    )
    assert code == 0
    payload = json.loads(out)
    assert [e["name"] for e in payload["per_check"]] == ["theorem", "corollary"]


def test_identical_invocations_byte_identical_stdout(capsys):
    _, first, _ = run(capsys, "bounds", "--a", "0.3", "--max-n", "20")
    _, second, _ = run(capsys, "bounds", "--a", "0.3", "--max-n", "20")
    assert first == second
