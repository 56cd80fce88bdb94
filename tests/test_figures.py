"""The figure scans of scripts/scan_figures.py against the benchmark references.

The benchmark's correctness gate (perfbench/gate.py) compares every row
with values from independent routes: Wigner profiles, magnetization sums,
dense evolution and the NN closed forms.  This test applies the same gate
to a fresh run of the script.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import dekrylov

ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_gate():
    spec = importlib.util.spec_from_file_location("gate", ROOT / "perfbench" / "gate.py")
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


def test_figure_scans_pass_the_benchmark_gate(tmp_path):
    src = pathlib.Path(dekrylov.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scan_figures.py"), str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    gate = load_gate()
    reference = gate.load_reference("figures")
    assert len(reference) == 8
    for command_id, ref in reference.items():
        record = {"id": command_id, "exit_code": 0, "exception": None, "stderr": ""}
        outcome = gate.check_command(record, ref, tmp_path)
        assert outcome["attempted"] == len(ref["rows"]) > 0
        assert outcome["failed"] == outcome["wrong"] == 0, outcome
