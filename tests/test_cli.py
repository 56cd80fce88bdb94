"""Command-line surface: schemas, golden output, argument checks, verify gate."""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from dekrylov import checks, cli, evolve, lintri
from dekrylov.errors import TAU_MAX, ArgumentError
from dekrylov.models import (
    KrylovSpec,
    ModelKind,
    ModelSpec,
    k_nn_analytic,
    nn_lambda,
    psi_nn_analytic,
)
from dekrylov.evolve import ir_magnetization_sums
from dekrylov.oracle import survival_moments
import exact_reference
from exact_spectrum import with_spectrum
from test_startup import fresh_env


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


def reference_cell(value):
    """The per-cell CSV rules that the row templates of write_rows replace."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


SPECIAL_FLOATS = (-0.0, 0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-310, 1e-300)
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
CELLS = st.one_of(
    st.none(),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=8),
    st.integers(-(10**30), 10**30),
    st.booleans(),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    FLOATS,
    FLOATS.map(np.float64),
)


@st.composite
def mixed_shape_rows(draw):
    """Rows of one width and several cell-type shapes, with a None first,
    in the middle and last in at least one row each."""
    width = draw(st.integers(3, 6))
    rows = draw(st.lists(st.lists(CELLS, min_size=width, max_size=width), max_size=12))
    for blank in (0, width // 2, width - 1):
        row = draw(st.lists(CELLS, min_size=width, max_size=width))
        row[blank] = None
        rows.insert(draw(st.integers(0, len(rows))), row)
    return width, [tuple(row) for row in rows]


@given(mixed_shape_rows())
@settings(max_examples=150)
def test_write_rows_matches_the_per_cell_rules(case):
    width, rows = case
    header = tuple(f"c{i}" for i in range(width))
    expected = "".join(
        ",".join(map(reference_cell, line)) + "\n" for line in [header] + rows
    )
    with tempfile.TemporaryDirectory() as tmp:
        out = f"{tmp}/rows.csv"
        cli.write_rows(out, "csv", header, rows)
        with open(out, "rb") as handle:
            assert handle.read() == expected.encode("utf-8")


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
    """L = 1200 puts the log weights of the magnetization sums ~850 apart;
    the per-tau shift keeps every default-grid point finite."""
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


@pytest.mark.parametrize("length", ["100", "1200"])
def test_evolve_ir_rows_do_not_depend_on_the_other_taus(length, capsys):
    """Every row of the default grid has the bytes of the same tau run
    alone: each tau is reduced on its own, in an order that does not
    depend on how many taus share its block."""
    assert cli.main(["evolve", "--model", "ir", "--lengths", length]) == 0
    grid_rows = capsys.readouterr().out.splitlines()[1:]
    assert len(grid_rows) == 403
    for row in grid_rows:
        tau = row.split(",")[2]
        assert cli.main(["evolve", "--model", "ir", "--lengths", length, "--tau-list", tau]) == 0
        assert capsys.readouterr().out.splitlines()[1:] == [row]


@pytest.mark.parametrize("model", ["nn", "ir"])
def test_evolve_prints_k_zero_exactly(model, tmp_path):
    """K(0) = 0 holds exactly: every term of both routes vanishes at tau = 0."""
    code, text = run_cli(
        ["evolve", "--model", model, "--lengths", "10,500", "--tau-list", "0,1e-3"], tmp_path
    )
    assert code == 0
    rows = rows_of(text)
    assert [(r["tau"], r["K"], r["K_norm"]) for r in rows[::2]] == [("0", "0", "0")] * 2
    assert all(float(r["K"]) > 0 for r in rows[1::2])


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


def test_evolve_and_renyi2_never_reach_the_kernel(tmp_path, monkeypatch):
    """K and chi come from closed forms and magnetization sums, and the
    wavepackets from the binomial closed form and the Gaussian integral:
    no scan calls the eigendecomposition or the propagation kernel."""

    def unreachable(*args):
        raise AssertionError("the scan reached the tridiagonal kernel")

    monkeypatch.setattr(lintri, "eig_tridiag", unreachable)
    monkeypatch.setattr(lintri, "expm_from_eig", unreachable)
    ir_taus = len(cli.grid_taus(cli.DEFAULT_TAU_GRID[ModelKind.IR]))
    nn_taus = len(cli.grid_taus(cli.DEFAULT_TAU_GRID[ModelKind.NN]))
    for argv, count in (
        (["evolve", "--model", "ir"], 3 * (ir_taus + len(cli.IR_PLATEAU_TAUS))),
        (["evolve", "--model", "nn"], 2 * nn_taus),
        (["evolve", "--model", "nn", "--lengths", "8"], nn_taus),
        (["renyi2", "--model", "ir"], 4 * ir_taus),
        (["wavepacket", "--model", "ir", "--tau-list", "0,0.5,2"], 3 * (51 + 101 + 251)),
        (["wavepacket", "--model", "nn", "--tau-list", "0,0.5,2"], 3 * (20 + 100)),
    ):
        code, text = run_cli(argv, tmp_path)
        assert code == 0, argv
        assert len(rows_of(text)) == count, argv


@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--model", "ir", "--lengths", "100002"],
        ["evolve", "--model", "nn", "--lengths", "100,100002", "--tau-list", "1"],
        ["renyi2", "--model", "ir", "--lengths", "100002"],
        ["wavepacket", "--model", "nn", "--lengths", "100,4098", "--tau-list", "1"],
    ],
)
def test_scan_past_the_length_cap_is_exit_2_before_allocating(argv, capsys):
    """L past a command's cap (10^5 for the scans, 4096 for wavepacket)
    stops at argument checking: one error line, and less memory than a
    single array over the L/2 + 1 magnetization sectors of L = 10^5."""
    cli.main(argv)  # warm argparse and the error path
    capsys.readouterr()
    tracemalloc.start()
    try:
        code = cli.main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    got = int(argv[argv.index("--lengths") + 1].split(",")[-1])
    assert err == f"error: lengths: {argv[0]} serves L <= {got - 2}, got {got}\n"
    assert peak < 8 * 50_001


@pytest.mark.parametrize(
    "argv, error",
    [
        (
            ["coeffs", "--model", "nn", "--lengths", "1000000000"],
            "lengths: coeffs serves L <= 100000, got 1000000000",
        ),
        (
            ["moments", "--model", "ir", "--lengths", "100,100002"],
            "lengths: moments serves L <= 100000, got 100002",
        ),
        (
            ["evolve", "--model", "nn", "--lengths", "4", "--tau", "0:1:1000000000"],
            "tau: count must lie in [1, 100000], got 1000000000",
        ),
        (
            ["renyi2", "--model", "ir", "--lengths", "8", "--tau", "0:1:100001"],
            "tau: count must lie in [1, 100000], got 100001",
        ),
        (
            ["renyi2", "--model", "nn", "--lengths", "8,10000"],
            "lengths: renyi2 --model nn serves L <= 14, got 10000",
        ),
    ],
)
def test_oversized_flags_are_exit_2_before_any_array(argv, error, monkeypatch, capsys):
    """coeffs and moments share the scans' L <= 10^5 cap, NN renyi2 (dense
    level sums) serves L <= 14, and a --tau grid holds at most
    TAU_COUNT_MAX points: past any of these, one error line, and neither
    the coefficients, nor the tau grid, nor a shorter length's chi is ever
    built."""

    def unreachable(*args, **kwargs):
        raise AssertionError("an oversized flag reached the computation")

    monkeypatch.setattr(cli, "analytic_lanczos", unreachable)
    monkeypatch.setattr(cli, "renyi2_dense", unreachable)
    monkeypatch.setattr(np, "linspace", unreachable)
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "argv",
    [
        ["evolve", "--model", "ir", "--lengths", "100000"],
        ["evolve", "--model", "nn", "--lengths", "100000"],
        ["renyi2", "--model", "ir", "--lengths", "100000"],
        ["renyi2", "--model", "nn", "--lengths", "14"],
        ["wavepacket", "--model", "ir", "--lengths", "4096"],
        ["wavepacket", "--model", "nn", "--lengths", "4096"],
    ],
)
def test_largest_tau_is_served_at_the_largest_length(argv, tmp_path, capsys):
    """At tau = TAU_MAX every command that takes tau runs at its largest
    length without a warning, and every numeric cell is finite."""
    code, text = run_cli(argv + ["--tau-list", repr(TAU_MAX)], tmp_path)
    assert code == 0 and capsys.readouterr().err == ""
    rows = rows_of(text)
    assert rows and float(rows[0]["tau"]) == TAU_MAX
    cells = [value for row in rows for key, value in row.items() if key != "model" and value]
    assert all(math.isfinite(float(value)) for value in cells)


@pytest.mark.parametrize("command", ["evolve", "renyi2", "wavepacket"])
@pytest.mark.parametrize("model", ["nn", "ir"])
def test_tau_past_the_bound_is_exit_2(command, model, tmp_path, capsys):
    """A tau just above TAU_MAX is one error line naming it, and nothing
    is written."""
    above = float(np.nextafter(TAU_MAX, np.inf))
    out = tmp_path / "out.csv"
    argv = [command, "--model", model, "--lengths", "8", "--tau-list", f"0.5,{above!r}"]
    assert cli.main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr() == ("", f"error: tau: values must be <= 1e+300, got {above!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["evolve", "renyi2", "wavepacket"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_negative_zero_tau_prints_as_zero(command, fmt, tmp_path):
    """-0, a negative underflow and a grid starting at -0 print tau 0, and
    the order of 0 and -0 in a list does not change the bytes."""
    base = [command, "--model", "ir", "--lengths", "4", "--format", fmt]
    for flags, reference in (
        (["--tau-list", "-0"], ["--tau-list", "0"]),
        (["--tau-list", "1,-1e-400"], ["--tau-list", "1,0"]),
        (["--tau=-0:1:1"], ["--tau-list", "0"]),
        (["--tau=-0:1:3"], ["--tau-list", "0,0.5,1"]),
        (["--tau-list", "-0,0"], ["--tau-list", "0,-0"]),
    ):
        code, text = run_cli(base + flags, tmp_path)
        assert code == 0 and text == run_cli(base + reference, tmp_path)[1], flags


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--tau-list", "-inf"], "values must be finite and >= 0, got -inf"),
        (["--tau-list", "-NaN"], "values must be finite and >= 0, got nan"),
        (["--tau-list", "-Infinity,1"], "values must be finite and >= 0, got -inf"),
        (["--tau", "-inf:1:2"], "start and stop must be finite, got '-inf:1:2'"),
    ],
    ids=["list-inf", "list-nan", "list-infinity", "grid-inf"],
)
def test_negative_inf_and_nan_reach_the_tau_parsers(flags, message, capsys):
    """argparse would take -inf or -nan for an option and print its usage."""
    assert cli.main(["evolve", "--model", "nn", "--lengths", "4"] + flags) == 2
    assert capsys.readouterr() == ("", f"error: tau: {message}\n")


def test_a_chi_out_of_bounds_is_one_plain_error_line(monkeypatch, capsys):
    """scan_point's bound error names the values as plain floats, with no
    numpy repr, and the CLI prints it as one line and exits 2."""
    monkeypatch.setattr(
        evolve, "ir_magnetization_sums", lambda model, taus: (np.zeros(1), np.full(1, np.nan))
    )
    assert cli.main(["evolve", "--model", "ir", "--lengths", "8", "--tau-list", "0.5"]) == 2
    assert capsys.readouterr() == ("", "error: chi out of [0, 1]: nan to nan\n")


def test_tau_grid_of_the_largest_count_is_served(tmp_path):
    code, text = run_cli(
        ["evolve", "--model", "nn", "--lengths", "4", "--tau", f"0:1:{cli.TAU_COUNT_MAX}"],
        tmp_path,
    )
    assert code == 0 and len(rows_of(text)) == cli.TAU_COUNT_MAX


@pytest.mark.parametrize("error", [np.linalg.LinAlgError("eigenvector norms are not finite")])
def test_numerical_failure_is_exit_3_without_traceback(error, monkeypatch, capsys):
    def failing(length, tau):
        raise error

    monkeypatch.setattr(cli, "psi_ir_exact_profile", failing)
    assert cli.main(["wavepacket", "--model", "ir", "--lengths", "8", "--tau-list", "1"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_an_interrupted_scan_is_exit_130_with_one_line(monkeypatch, capsys):
    def interrupted(model, taus):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "ir_magnetization_sums", interrupted)
    try:
        code = cli.main(["renyi2", "--model", "ir", "--lengths", "8"])
    except KeyboardInterrupt:  # escaping, it would end the whole test session
        pytest.fail("KeyboardInterrupt escaped cli.main")
    assert code == 130
    assert capsys.readouterr() == ("", "error: interrupted\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["wavepacket", "--model", "ir", "--lengths", "2200", "--tau-list", "2,10"],
        ["wavepacket", "--model", "nn", "--lengths", "2200", "--tau-list", "3"],
        ["wavepacket", "--model", "ir", "--lengths", "2400", "--tau-list", "1"],
    ],
)
def test_wavepacket_serves_lengths_the_kernel_refuses(argv, tmp_path):
    """The kernel refuses these (an underflowed seed overlap at L = 2200,
    clustered eigenvalues at IR L = 2400); the closed forms serve them,
    with K = Sum_n n psi_n^2 equal to the O(L) routes."""
    code, text = run_cli(argv, tmp_path)
    assert code == 0
    rows = rows_of(text)
    length = int(argv[4])
    taus = sorted({float(r["tau"]) for r in rows})
    assert taus == [float(t) for t in argv[6].split(",")]
    if argv[2] == "ir":
        expected, _ = ir_magnetization_sums(ModelSpec(ModelKind.IR, length), taus)
    else:
        expected = k_nn_analytic(length, np.array(taus))
    for tau, k in zip(taus, expected):
        psi2 = np.array([float(r["psi2"]) for r in rows if float(r["tau"]) == tau])
        assert psi2.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.arange(psi2.size) @ psi2 == pytest.approx(k, rel=1e-10)


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


def test_wavepacket_nn_tail_matches_decimal_binomial(tmp_path):
    """Every printed digit is data, however small the entry: psi_n =
    (-1)^n sqrt(C(L-1, n) lambda^n (1-lambda)^(L-1-n)) at L = 100,
    tau = 0.1, in 60-digit decimal arithmetic."""
    code, text = run_cli(
        ["wavepacket", "--model", "nn", "--lengths", "100", "--tau-list", "0.1"], tmp_path
    )
    assert code == 0
    psi = {int(r["n"]): float(r["psi"]) for r in rows_of(text)}
    exact = exact_reference.nn_wavepacket(100, 0.1, 60)
    for n in (23, 40, 99):
        assert psi[n] == pytest.approx(exact[n], rel=1e-10)
    assert psi[99] < 0 and abs(psi[99]) < 1e-99


@pytest.mark.parametrize("model, length", [("nn", 200), ("ir", 4096)])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_wavepacket_underflowed_entries_print_as_zero(model, length, fmt, tmp_path):
    """An odd-index entry that underflows is +0, not -0, in both formats:
    both models end in models.signed_unit_profile."""
    argv = ["wavepacket", "--model", model, "--lengths", str(length), "--tau-list", "0.001"]
    code, text = run_cli(argv + ["--format", fmt], tmp_path)
    assert code == 0
    rows = rows_of(text) if fmt == "csv" else json.loads(text)
    zeros = [float(row["psi"]) for row in rows if float(row["psi"]) == 0.0]
    assert zeros, "no entry underflows here"
    assert all(math.copysign(1.0, zero) > 0 for zero in zeros)


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
    assert_allclose(values, survival_moments(ModelSpec(ModelKind.NN, 6), 8), rtol=1e-12)


def test_moments_nmax_beyond_information_content_errors(capsys):
    assert cli.main(["moments", "--model", "ir", "--lengths", "4", "--nmax", "10"]) == 2
    assert capsys.readouterr() == ("", "error: n_max must lie in [0, 6]\n")


@pytest.mark.parametrize(
    "model, lengths, counts",
    [("nn", "2,20", [5, 11]), ("ir", "2,4,6", [5, 7, 9])],
)
def test_moments_default_serves_every_length(model, lengths, counts, tmp_path):
    """Without --nmax each length gets min(DEFAULT_NMAX, 2 x Krylov dimension)
    moments: the short chains are capped, the longer ones get n <= 10."""
    code, text = run_cli(["moments", "--model", model, "--lengths", lengths], tmp_path)
    assert code == 0
    rows = rows_of(text)
    assert [sum(r["L"] == length for r in rows) for length in lengths.split(",")] == counts
    assert [r["mu_n"] for r in rows if r["n"] == "0"] == ["1"] * len(counts)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "model, length, nmax, error",
    [
        ("nn", "1000", "200", "moment mu_132 overflows binary64 (Krylov dimension 1000)"),
        ("ir", "2000", "400", "moment mu_103 overflows binary64 (Krylov dimension 1001)"),
        ("nn", "100000", "20000", "moment mu_96 overflows binary64 (Krylov dimension 100000)"),
    ],
)
def test_moments_overflow_is_exit_3_with_nothing_written(
    model, length, nmax, error, fmt, tmp_path, capsys
):
    """The first moment past binary64 stops the run: one error line, no
    inf or nan row, no warning, and no output file."""
    out = tmp_path / f"out.{fmt}"
    argv = ["moments", "--model", model, "--lengths", length, "--nmax", nmax]
    assert cli.main(argv + ["--format", fmt, "--out", str(out)]) == 3
    assert capsys.readouterr() == ("", f"error: numerical failure: {error}\n")
    assert not out.exists()


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


@pytest.mark.parametrize("command", ["evolve", "renyi2"])
def test_ir_chi_at_zero_prints_the_bytes_of_one_over_l(command, tmp_path):
    """Sum_k C(L, k) (2k - L)^2 = L 2^L, so chi(0) = 1/L exactly, at every L."""
    lengths = (2, 8, 100, 100_000)
    code, text = run_cli(
        [command, "--model", "ir", "--lengths", ",".join(map(str, lengths)), "--tau-list", "0"],
        tmp_path,
    )
    assert code == 0
    assert [(r["L"], r["chi"]) for r in rows_of(text)] == [
        (str(length), "%.17g" % (1.0 / length)) for length in lengths
    ]


def test_ir_chi_just_above_zero_is_one_over_l_to_a_few_ulp(tmp_path):
    """At tau = 1e-300 chi is the rounded sum Sum_m w_m 4 m^2 / L^2 over the
    binomial weights, not the tau = 0 shortcut: L chi stays within 8 ulp of
    1 up to the scan cap only if every weight keeps its relative accuracy."""
    lengths = (8, 100, 2000, 10_000, 100_000)
    grid = ["--lengths", ",".join(map(str, lengths)), "--tau-list", "1e-300"]
    code, text = run_cli(["renyi2", "--model", "ir"] + grid, tmp_path)
    assert code == 0
    rows = rows_of(text)
    assert [int(r["L"]) for r in rows] == list(lengths)
    for row in rows:
        assert abs(Decimal(row["chi"]) * int(row["L"]) - 1) <= 8 * Decimal(2) ** -52, row


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


STDOUT_COMMANDS = [
    ["verify"],
    ["coeffs", "--model", "nn", "--lengths", "4"],
    ["evolve", "--model", "ir", "--lengths", "8", "--tau-list", "0.5"],
]


def run_with_stdout(argv, stdout, buffered):
    """Run the CLI in a fresh interpreter with ``stdout`` as its stdout,
    block-buffered or (PYTHONUNBUFFERED) unbuffered."""
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run(
        [sys.executable, "-m", "dekrylov.cli", *argv],
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=lambda argv: argv[0])
def test_a_closed_stdout_pipe_is_exit_2_with_one_line(argv, buffered):
    """Stdout is a pipe whose read end is closed, as after `| head -1`."""
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = run_with_stdout(argv, writer, buffered)
    finally:
        os.close(writer)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: stdout: cannot write: Broken pipe"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", STDOUT_COMMANDS, ids=lambda argv: argv[0])
def test_a_full_stdout_is_exit_2_with_one_line(argv, buffered):
    with open("/dev/full", "w") as full:
        proc = run_with_stdout(argv, full, buffered)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: stdout: cannot write: No space left on device"]


HELP_COMMANDS = [["--help"], ["verify", "--help"], ["evolve", "--help"], ["moments", "--help"]]


@pytest.mark.parametrize("buffered", [True, False])
@pytest.mark.parametrize("argv", HELP_COMMANDS, ids=lambda argv: "-".join(argv[:-1]) or "top")
def test_help_to_an_unwritable_stdout_is_exit_2_with_one_line(argv, buffered):
    """argparse would lose the help (unbuffered, exit 0) or fail at the last
    flush (buffered, exit 120); help goes the way of scan output instead."""
    reader, writer = os.pipe()
    os.close(reader)
    try:
        proc = run_with_stdout(argv, writer, buffered)
    finally:
        os.close(writer)
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: stdout: cannot write: Broken pipe"]
    if os.path.exists("/dev/full"):
        with open("/dev/full", "w") as full:
            proc = run_with_stdout(argv, full, buffered)
        assert proc.returncode == 2
        assert proc.stderr.splitlines() == [
            "error: stdout: cannot write: No space left on device"
        ]


@pytest.mark.parametrize("argv", HELP_COMMANDS, ids=lambda argv: "-".join(argv[:-1]) or "top")
def test_help_to_a_working_stdout_is_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: dekrylov") and captured.err == ""
    if argv[0] == "moments":
        assert (
            "highest moment (default 10, or 2 x the Krylov dimension where that is lower)"
            in " ".join(captured.out.split())
        )


@pytest.mark.parametrize("command", ["evolve", "wavepacket", "renyi2"])
def test_tau_and_tau_list_together_is_exit_2(command, capsys):
    argv = [command, "--model", "ir", "--lengths", "8", "--tau-list", "0.5", "--tau", "0:1:3"]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: tau: give --tau or --tau-list, not both\n"


def test_malformed_grid_arguments(capsys):
    """Malformed, fractional and non-finite values are one clean error."""
    for flags in (
        ["--tau", "0:2"],
        ["--tau", "0:1e400:3"],
        ["--lengths", "abc"],
        ["--lengths", "4.5"],
        ["--tau-list", "-1"],
        ["--tau-list", "-0.5,1"],
        ["--tau-list", "nan,1"],
        ["--tau-list", "1,inf"],
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
    # The whole tau list is checked at once; the error names the first bad value.
    assert cli.main(["evolve", "--model", "nn", "--tau-list", "-0.5,1"]) == 2
    assert capsys.readouterr().err == (
        "error: tau: values must be finite and >= 0, got -0.5\n"
    )
    assert cli.main(["evolve", "--model", "nn", "--tau-list", "1,nan,-2"]) == 2
    assert capsys.readouterr().err == "error: tau: values must be finite and >= 0, got nan\n"


def test_one_parser_serves_every_call(tmp_path, capsys):
    """main reuses one parser; no flag of one call reaches the next."""
    assert cli.build_parser() is cli.build_parser()

    def lengths_of(args):
        code, text = run_cli(args, tmp_path)
        assert code == 0
        return [int(row["L"]) for row in rows_of(text)]

    moments = ["moments", "--model", "nn", "--lengths", "20,100"]
    assert lengths_of(moments + ["--nmax", "3"]) == [20] * 4 + [100] * 4
    assert lengths_of(moments) == [20] * 11 + [100] * 11
    evolve = ["evolve", "--model", "ir", "--lengths", "100"]
    assert len(lengths_of(evolve + ["--tau-list", "0.5"])) == 1
    assert len(lengths_of(evolve)) == 403
    assert cli.main(["verify"]) == 0
    assert "(full level)" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["coeffs", "--model", "nn", "--lengths", "4"],
        ["moments", "--model", "ir", "--lengths", "8"],
    ],
)
def test_scans_without_tau_build_no_tau_grid(argv, monkeypatch, capsys):
    """coeffs and moments take no --tau and read no tau grid."""

    def unreachable(*args, **kwargs):
        raise AssertionError("a scan without tau built a tau grid")

    monkeypatch.setattr(np, "linspace", unreachable)
    assert cli.main(argv) == 0
    assert capsys.readouterr().err == ""


SCAN_COMMANDS = [
    ["coeffs", "--model", "ir", "--lengths", "4,2"],
    ["evolve", "--model", "nn", "--lengths", "6,4", "--tau-list", "1,0.5,1"],
    ["wavepacket", "--model", "ir", "--lengths", "4", "--tau-list", "0.5"],
    ["renyi2", "--model", "ir", "--lengths", "8", "--tau", "0:1:3"],
    ["moments", "--model", "nn", "--lengths", "4", "--nmax", "3"],
]


@pytest.mark.parametrize("argv", SCAN_COMMANDS, ids=lambda argv: argv[0])
def test_main_looks_up_the_command_when_it_runs(argv, monkeypatch, capsys):
    """A cmd_* patched on the module after import is the one that runs,
    once per call, and the rows it returns are written unchanged."""
    assert cli.main(argv) == 0
    expected = capsys.readouterr().out
    original = getattr(cli, f"cmd_{argv[0]}")
    calls = []

    def counting(config):
        calls.append(config)
        return original(config)

    monkeypatch.setattr(cli, f"cmd_{argv[0]}", counting)
    assert cli.main(argv) == 0
    assert len(calls) == 1
    assert capsys.readouterr() == (expected, "")


EVEN = "IR model requires even L"
NMAX = "nmax: must be >= 0, got -1"


@pytest.mark.parametrize(
    "argv, error",
    [
        (["evolve", "--model", "ir", "--lengths", "7", "--tau-list", "-1"], EVEN),
        (["wavepacket", "--model", "ir", "--lengths", "7"], EVEN),
        (
            ["wavepacket", "--model", "nn", "--lengths", "8"],
            "tau: wavepacket requires an explicit tau list (--tau-list or --tau)",
        ),
        (
            ["evolve", "--model", "ir", "--lengths", "8,100002", "--tau-list", "-1"],
            "lengths: evolve serves L <= 100000, got 100002",
        ),
        (["moments", "--model", "ir", "--lengths", "7", "--nmax", "-1"], EVEN),
        (["moments", "--model", "nn", "--lengths", "3", "--nmax", "-1"], NMAX),
    ],
)
def test_lengths_are_checked_before_tau_and_nmax(argv, error, capsys):
    """The length cap and IR parity come first, then tau, then --nmax."""
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {error}\n")


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


def test_verify_passes(capsys):
    assert cli.main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "12/12 checks passed (full level)" in out
    assert "FAIL" not in out


def test_verify_and_verify_full_print_the_same_lines(capsys):
    """`full` is the only level and selects nothing: the two invocations
    print the same lines once each check's seconds are stripped."""

    def lines(argv):
        assert cli.main(argv) == 0
        out = capsys.readouterr().out
        return [re.sub(r" \([0-9.]+s\)$", "", line) for line in out.splitlines()]

    assert lines(["verify"]) == lines(["verify", "full"])


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
    assert cli.main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    (criterion_2,) = [line for line in failing if "Lanczos coefficients match closed forms" in line]
    assert "max coefficient deviation" in criterion_2
    assert "raised" not in criterion_2


def test_verify_rejects_unknown_level(capsys):
    """`full` is the only level; `quick`, the old reduced one, is gone."""
    for level in ("quick", "exhaustive"):
        with pytest.raises(SystemExit) as info:
            cli.main(["verify", level])
        assert info.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


@pytest.mark.parametrize("level", ["quick", "exhaustive"])
def test_run_checks_rejects_every_level_but_full(level):
    with pytest.raises(ArgumentError, match="level must be 'full'"):
        checks.run_checks(level)


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
