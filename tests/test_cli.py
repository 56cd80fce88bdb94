"""Command-line surface: schemas, golden output, argument checks, verify gate."""

import csv
import io
import json
import subprocess
import sys
import threading

import numpy as np
import pytest
from numpy.testing import assert_allclose

from dekrylov import checks, cli, lintri
from dekrylov.models import (
    KrylovSpec,
    ModelKind,
    k_nn_analytic,
    nn_lambda,
    psi_nn_analytic,
)
from dekrylov.evolve import survival_moments_nn
from exact_spectrum import with_spectrum


def run_cli(args, tmp_path=None, out_name="out.csv"):
    """Invoke the CLI in-process; return (exit code, output text or None)."""
    if tmp_path is None:
        return cli.main(args), None
    out = tmp_path / out_name
    code = cli.main(args + ["--out", str(out)])
    return code, out.read_text() if out.exists() else None


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


# ------------------------------------------------------------------- coeffs


def test_coeffs_golden_csv(tmp_path):
    """Byte-exact CSV for the L = 4 NN chain, shortest-round-trip floats."""
    code, text = run_cli(["coeffs", "--model", "nn", "--lengths", "4"], tmp_path)
    assert code == 0
    assert text == (
        "model,L,n,a_n,b_n\n"
        "nn,4,0,0,\n"
        "nn,4,1,0,1.7320508075688772\n"
        "nn,4,2,0,2\n"
        "nn,4,3,0,1.7320508075688772\n"
    )


def test_write_rows_golden_cells(tmp_path):
    """Every cell type a row may hold writes pinned CSV bytes."""
    out = tmp_path / "cells.csv"
    row = (None, "nn", 7, np.int64(-8), True, 0.1, np.float64(1 / 3), -0.0, 1e-300)
    cli.write_rows(str(out), "csv", tuple("abcdefghi"), [row])
    assert out.read_bytes() == (
        b"a,b,c,d,e,f,g,h,i\n"
        b",nn,7,-8,1,0.10000000000000001,0.33333333333333331,-0,1e-300\n"
    )
    cli.write_rows(str(out), "json", ("a", "b", "c", "d"), [(None, "nn", 7, -0.0)])
    assert out.read_bytes() == (
        b'[\n {\n  "a": null,\n  "b": "nn",\n  "c": 7,\n  "d": -0.0\n }\n]\n'
    )


def test_coeffs_ir_values(tmp_path):
    code, text = run_cli(["coeffs", "--model", "ir", "--lengths", "4,6"], tmp_path)
    assert code == 0
    rows = rows_of(text)
    assert [r["n"] for r in rows if r["L"] == "4"] == ["0", "1", "2"]
    six = {int(r["n"]): float(r["a_n"]) for r in rows if r["L"] == "6"}
    assert six == pytest.approx({0: 2.5, 1: 7 / 6, 2: 7 / 6, 3: 2.5})
    assert rows[0]["b_n"] == ""  # no b_0


def test_coeffs_rejects_odd_ir_length(capsys):
    assert cli.main(["coeffs", "--model", "ir", "--lengths", "5"]) == 2
    assert "even" in capsys.readouterr().err


# ------------------------------------------------------------------- evolve


def test_evolve_rows_sorted_and_match_closed_forms(tmp_path):
    code, text = run_cli(
        [
            "evolve",
            "--model",
            "nn",
            "--lengths",
            "12,4",
            "--tau-list",
            "1.0,0.25",
        ],
        tmp_path,
    )
    assert code == 0
    rows = rows_of(text)
    keys = [(int(r["L"]), float(r["tau"])) for r in rows]
    assert keys == sorted(keys)
    for row in rows:
        length, tau = int(row["L"]), float(row["tau"])
        assert float(row["K"]) == pytest.approx(k_nn_analytic(length, tau), abs=1e-10)
        assert float(row["K_norm"]) == pytest.approx(nn_lambda(tau), abs=1e-10)
        assert row["chi"] != ""  # dense route reachable at L <= 14


def test_evolve_chi_blank_beyond_dense_cap(tmp_path):
    code, text = run_cli(
        ["evolve", "--model", "nn", "--lengths", "20", "--tau-list", "0.5"], tmp_path
    )
    assert code == 0
    row = rows_of(text)[0]
    assert row["chi"] == ""


def test_evolve_json_matches_csv(tmp_path):
    args = ["evolve", "--model", "ir", "--lengths", "8", "--tau-list", "0.5,1.5"]
    code, text = run_cli(args, tmp_path)
    json_code, json_text = run_cli(
        args + ["--format", "json"], tmp_path, out_name="out.json"
    )
    assert code == 0 and json_code == 0
    csv_rows = rows_of(text)
    payload = json.loads(json_text)
    assert [r["tau"] for r in payload] == [0.5, 1.5]
    for got, expected in zip(payload, csv_rows):
        assert got["K"] == pytest.approx(float(expected["K"]), rel=1e-15)
        assert got["chi"] == pytest.approx(float(expected["chi"]), rel=1e-15)


def test_evolve_tau_grid_spec(tmp_path):
    code, text = run_cli(
        ["evolve", "--model", "nn", "--lengths", "6", "--tau", "0:1:5"], tmp_path
    )
    assert code == 0
    taus = [float(r["tau"]) for r in rows_of(text)]
    assert_allclose(taus, [0.0, 0.25, 0.5, 0.75, 1.0], atol=0)


def test_evolve_ir_default_grid_at_large_length(tmp_path):
    """L = 1200 puts ground-state overlaps near 1e-181; the log-shifted
    kernel keeps every default-grid point normalized."""
    code, text = run_cli(["evolve", "--model", "ir", "--lengths", "1200"], tmp_path)
    assert code == 0
    assert len(rows_of(text)) == 403


def test_evolve_ir_late_taus_reach_the_plateau(tmp_path):
    code, text = run_cli(
        ["evolve", "--model", "ir", "--lengths", "1200", "--tau-list", "0.7,1,2,5,10"],
        tmp_path,
    )
    assert code == 0
    rows = rows_of(text)
    assert [float(r["tau"]) for r in rows] == [0.7, 1.0, 2.0, 5.0, 10.0]
    assert float(rows[-1]["K_norm"]) == pytest.approx(0.25, abs=1e-6)


def test_evolve_starts_no_threads(tmp_path, monkeypatch):
    """Every scan point runs on the calling thread."""
    before = threading.active_count()
    seen = []
    original = cli.scan_point

    def probe(*args, **kwargs):
        seen.append(threading.active_count())
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "scan_point", probe)
    code, _ = run_cli(["evolve", "--model", "ir", "--lengths", "100"], tmp_path)
    assert code == 0 and seen
    assert max(seen) == before
    assert threading.active_count() == before


def test_evolve_builds_one_batch_per_length_and_no_per_tau_state(tmp_path, monkeypatch):
    """Propagation hands one (taus x dim) array per length to the writer."""
    built = []
    original = lintri.KrylovState.__post_init__

    def counting(self):
        original(self)
        built.append((self.taus.shape, self.psi.shape))

    monkeypatch.setattr(lintri.KrylovState, "__post_init__", counting)
    code, text = run_cli(["evolve", "--model", "ir", "--lengths", "100,200"], tmp_path)
    assert code == 0
    taus = len(cli.grid_taus(cli.DEFAULT_TAU_GRID[ModelKind.IR]) + cli.IR_PLATEAU_TAUS)
    assert built == [((taus,), (taus, 51)), ((taus,), (taus, 101))]
    assert len(rows_of(text)) == 2 * taus


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("eigenvector norms are not finite")])
def test_numerical_failure_is_exit_3_without_traceback(error, monkeypatch, capsys):
    def failing(op):
        raise error

    monkeypatch.setattr(lintri, "eig_tridiag", failing)
    assert cli.main(["evolve", "--model", "ir", "--lengths", "8"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--model", "ir", "--lengths", "2200", "--tau-list", "2,10"],
        ["evolve", "--model", "nn", "--lengths", "2200", "--tau-list", "3"],
    ],
)
def test_underflowed_seed_overlap_is_exit_3(argv, capsys):
    """Past L ~ 2045 the smallest seed overlap 2^{-(L-1)/2} underflows;
    the scan stops instead of printing K without that eigenstate."""
    assert cli.main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:")


def test_orthogonality_guard_is_exit_3(capsys):
    """At IR L = 2400 the top pair's relative gap 4/L^2 costs the twisted
    vectors their orthogonality (neighbour overlap 5.1e-11); the scan stops
    instead of propagating them."""
    assert cli.main(["evolve", "--model", "ir", "--lengths", "2400", "--tau-list", "1"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error:") and "clustered eigenvalues" in err


# --------------------------------------------------------------- wavepacket


def test_wavepacket_requires_explicit_taus(capsys):
    assert cli.main(["wavepacket", "--model", "nn", "--lengths", "8"]) == 2
    assert "tau" in capsys.readouterr().err


def test_wavepacket_amplitudes_and_weights(tmp_path):
    code, text = run_cli(
        ["wavepacket", "--model", "nn", "--lengths", "10", "--tau-list", "0,2"],
        tmp_path,
    )
    assert code == 0
    rows = rows_of(text)
    at0 = [r for r in rows if float(r["tau"]) == 0.0]
    assert float(at0[0]["psi"]) == pytest.approx(1.0, abs=1e-14)
    assert all(abs(float(r["psi"])) < 1e-12 for r in at0[1:])
    expected = psi_nn_analytic(10, 2.0).psi
    at2 = [r for r in rows if float(r["tau"]) == 2.0]
    assert_allclose([float(r["psi"]) for r in at2], expected, atol=1e-12)
    assert_allclose([float(r["psi2"]) for r in at2], expected**2, atol=1e-12)


def test_wavepacket_ir_stays_localized_in_area_phase(tmp_path):
    """Weight beyond n = 10 is negligible at L = 100, tau = 0.4."""
    code, text = run_cli(
        ["wavepacket", "--model", "ir", "--lengths", "100", "--tau-list", "0.4"],
        tmp_path,
    )
    assert code == 0
    tail = sum(float(r["psi2"]) for r in rows_of(text) if int(r["n"]) > 10)
    assert tail < 1e-6


# ------------------------------------------------------------------ moments


def test_moments_match_exact_binomial_route(tmp_path):
    code, text = run_cli(
        ["moments", "--model", "nn", "--lengths", "6", "--nmax", "8"], tmp_path
    )
    assert code == 0
    values = [float(r["mu_n"]) for r in rows_of(text)]
    assert_allclose(values, survival_moments_nn(6, 8), rtol=1e-12)


def test_moments_nmax_beyond_information_content_errors(capsys):
    assert cli.main(["moments", "--model", "ir", "--lengths", "4"]) == 2
    assert "n_max" in capsys.readouterr().err


# ------------------------------------------------------------------- renyi2


def test_renyi2_starts_at_one_over_l(tmp_path):
    code, text = run_cli(
        ["renyi2", "--model", "ir", "--lengths", "8,10", "--tau-list", "0,1"],
        tmp_path,
    )
    assert code == 0
    rows = rows_of(text)
    assert list(rows[0]) == ["model", "L", "tau", "chi"]
    for row in rows:
        if float(row["tau"]) == 0.0:
            assert float(row["chi"]) == pytest.approx(1 / int(row["L"]), abs=1e-12)


@pytest.mark.parametrize("model, lengths", [("ir", "8,12"), ("nn", "8,14")])
def test_renyi2_and_evolve_write_the_same_chi_bytes(model, lengths, tmp_path):
    """The two commands keep separate chi loops; their bytes must agree."""
    grid = ["--model", model, "--lengths", lengths, "--tau", "0:3:31"]
    code, evolve_text = run_cli(["evolve"] + grid, tmp_path, "evolve.csv")
    assert code == 0
    code, renyi2_text = run_cli(["renyi2"] + grid, tmp_path, "renyi2.csv")
    assert code == 0

    def chi_cells(text):
        return [(r["L"], r["tau"], r["chi"]) for r in rows_of(text)]

    assert len(chi_cells(renyi2_text)) == 62
    assert chi_cells(evolve_text) == chi_cells(renyi2_text)


def test_renyi2_dense_cap_is_a_clean_error(capsys):
    assert cli.main(["renyi2", "--model", "nn", "--lengths", "16"]) == 2
    assert "14" in capsys.readouterr().err


# ---------------------------------------------------------------- arguments


def test_unwritable_out_is_exit_2(tmp_path, capsys):
    out = tmp_path / "missing" / "out.csv"
    assert cli.main(["coeffs", "--model", "nn", "--lengths", "4", "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: out: ")
    assert not out.exists()


def test_malformed_grid_arguments(capsys):
    """Malformed, fractional and non-finite values are one clean error."""
    for flags in (
        ["--tau", "0:2"],
        ["--tau", "0:1e400:3"],
        ["--lengths", "abc"],
        ["--lengths", "4.5"],
        ["--tau-list", "-1"],
        ["--tau-list", "-0.5,1"],
        ["--tau", "-1:2:3"],
        ["--lengths", "-4,6"],
    ):
        assert cli.main(["evolve", "--model", "nn"] + flags) == 2, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), flags
    # A negative-looking value reaches the grid parser, not argparse.
    assert cli.main(["evolve", "--model", "nn", "--tau", "-1:2:3"]) == 2
    assert capsys.readouterr().err == "error: tau: start must be >= 0, got -1.0\n"


def test_config_flag_is_a_usage_error(capsys):
    """Flags are the only input; there is no config file."""
    with pytest.raises(SystemExit) as info:
        cli.main(["evolve", "--model", "nn", "--config", "run.json"])
    assert info.value.code == 2
    assert "--config" in capsys.readouterr().err


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["frobnicate"])
    assert info.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------------- verify


def test_verify_quick_passes(capsys):
    assert cli.main(["verify", "quick"]) == 0
    out = capsys.readouterr().out
    assert "9/9 checks passed" in out
    assert "FAIL" not in out


def test_verify_names_failing_check_on_tampered_coefficients(capsys, monkeypatch):
    """Perturbing a closed-form b_n must trip the dual-route comparison.

    The tampered operator carries its own spectrum, so criterion 2 fails on
    the coefficients it compares, not on an operator that cannot be built.
    """
    original = checks.analytic_lanczos

    def tampered(model):
        spec = original(model)
        if model.kind is ModelKind.NN:
            tri = with_spectrum(spec.tridiag.diag, spec.tridiag.offdiag * (1 + 1e-6))
            return KrylovSpec(model=spec.model, tridiag=tri)
        return spec

    monkeypatch.setattr(checks, "analytic_lanczos", tampered)
    assert cli.main(["verify", "quick"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    (criterion_2,) = [line for line in failing if "Lanczos coefficients match closed forms" in line]
    assert "max coefficient deviation" in criterion_2
    assert "raised" not in criterion_2


def test_verify_rejects_unknown_level(capsys):
    with pytest.raises(SystemExit) as info:
        cli.main(["verify", "exhaustive"])
    assert info.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------- entry points


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "dekrylov.cli", "coeffs", "--model", "nn", "--lengths", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("model,L,n,a_n,b_n\n")
