"""Correctness gate: compare a repetition's outputs with the stored references.

One operation is one output row of a scan command, or one check of the
verification suite.  A row fails when its command raised or exited
non-zero, when it is missing, or when a value lies outside the tolerance.
A row that was written but is malformed or outside the tolerance is also
counted as ``wrong``: the run is then not correct.

The tolerances are those of the acceptance criteria or tighter.
"""

from __future__ import annotations

import json
import math
import pathlib

REFERENCE_DIR = pathlib.Path(__file__).resolve().parent / "reference"
TOL_PSI = 1e-10  # criterion 3: |psi - closed form|
TOL_K = 1e-8  # criterion 3: |K - (L-1) lambda|
TOL_CHI = 1e-9  # criterion 8: tridiagonal vs dense chi
TOL_COEFF = 1e-9  # criterion 2: Lanczos coefficients
TOL_TAU = 1e-12
HEADERS = {
    "coeffs": ["model", "L", "n", "a_n", "b_n"],
    "evolve": ["model", "L", "tau", "K", "K_norm", "chi"],
    "renyi2": ["model", "L", "tau", "chi"],
    "wavepacket": ["model", "L", "tau", "n", "psi", "psi2"],
}


def load_reference(workload):
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as handle:
        return json.load(handle)


def _close(cell, expected, tol):
    if expected is None:
        return cell == ""
    value = float(cell)
    return math.isfinite(value) and abs(value - expected) <= tol


def _row_ok(command, model, cells, ref):
    """True when one CSV row matches its reference row."""
    if cells[0] != model or int(cells[1]) != ref[0]:
        return False
    if command == "coeffs":
        return (
            int(cells[2]) == ref[1]
            and _close(cells[3], ref[2], TOL_COEFF)
            and _close(cells[4], ref[3], TOL_COEFF)
        )
    if abs(float(cells[2]) - ref[1]) > TOL_TAU * max(1.0, ref[1]):
        return False
    if command == "renyi2":
        return _close(cells[3], ref[2], TOL_CHI)
    if command == "wavepacket":
        return (
            int(cells[3]) == ref[2]
            and _close(cells[4], ref[3], TOL_PSI)
            and _close(cells[5], ref[3] ** 2, TOL_PSI)
        )
    norm = ref[0] - 1 if model == "nn" else ref[0]
    return (
        _close(cells[3], ref[2], TOL_K)
        and _close(cells[4], ref[2] / norm, TOL_K)
        and _close(cells[5], ref[3], TOL_CHI)
    )


def check_command(record, reference, work):
    """Attempted, failed and wrong rows of one scan command."""
    ref_rows = reference["rows"]
    outcome = {
        "id": record["id"],
        "exit_code": record["exit_code"],
        "exception": record["exception"],
        "stderr": record["stderr"],
        "attempted": len(ref_rows),
        "failed": len(ref_rows),
        "wrong": 0,
    }
    if record["exit_code"] != 0 or record["exception"] is not None:
        return outcome
    command = reference["command"]
    model = reference["argv"][reference["argv"].index("--model") + 1]
    path = work / f"{record['id']}.csv"
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError:
        outcome["wrong"] = len(ref_rows)
        return outcome
    if not lines or lines[0].split(",") != HEADERS[command]:
        outcome["wrong"] = len(ref_rows)
        return outcome
    ok = 0
    body = lines[1:]
    for i, ref in enumerate(ref_rows):
        try:
            good = i < len(body) and _row_ok(command, model, body[i].split(","), ref)
        except (ValueError, IndexError):
            good = False
        ok += good
    outcome["failed"] = len(ref_rows) - ok
    outcome["wrong"] = outcome["failed"] + max(0, len(body) - len(ref_rows))
    return outcome


def check_scans(records, reference, work):
    return [check_command(r, reference[r["id"]], work) for r in records]


def check_verify(verify):
    """Each of the twelve checks is one operation; a FAIL is a failed one."""
    passed = {c["number"] for c in verify["checks"] if c["passed"]}
    numbers = sorted(c["number"] for c in verify["checks"])
    return {
        "attempted": 12,
        "failed": 12 - len(passed & set(range(1, 13))),
        "wrong": 0 if verify["exception"] is not None or numbers == list(range(1, 13)) else 12,
        "failed_checks": [c["number"] for c in verify["checks"] if not c["passed"]],
        "exception": verify["exception"],
    }
