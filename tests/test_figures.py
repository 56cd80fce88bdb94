"""The figure scans of scripts/scan_figures.py against the benchmark references.

The benchmark's correctness gate (perfbench/gate.py) compares every row
with values from independent routes: Wigner profiles, magnetization sums,
dense evolution and the NN closed forms.  This test applies the same gate
to a fresh run of the script, then reruns the script in another fresh
interpreter under another hash seed and compares the CSVs byte for byte.
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


def run_script(out_dir, hash_seed):
    """Run scripts/scan_figures.py into ``out_dir`` in a fresh interpreter."""
    src = pathlib.Path(dekrylov.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "scan_figures.py"), str(out_dir)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr


def test_figure_scans_pass_the_benchmark_gate(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    run_script(first, "0")
    gate = load_gate()
    reference = gate.load_reference("figures")
    assert len(reference) == 8
    for command_id, ref in reference.items():
        record = {"id": command_id, "exit_code": 0, "exception": None, "stderr": ""}
        outcome = gate.check_command(record, ref, first)
        assert outcome["attempted"] == len(ref["rows"]) > 0
        assert outcome["failed"] == outcome["wrong"] == 0, outcome
    run_script(second, "12345")
    names = sorted(path.name for path in first.iterdir())
    assert len(names) == 8
    assert sorted(path.name for path in second.iterdir()) == names
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes(), name
