"""Self-test of the benchmark harness.

Run from the repository root with ``python3 -m pytest perfbench``.  The
smoke test runs every workload once, traced and untraced (about 1.5 min on
2 CPUs).
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import gate
from tracer import Tracer, summarize

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def test_self_time_under_two_thread_pool():
    tracer = Tracer()
    leaf = tracer.wrap("m.leaf", lambda: time.sleep(0.02))

    def work(_):
        time.sleep(0.03)
        leaf()

    inner = tracer.wrap("m.inner", work)

    def drive():
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(inner, range(4)))

    outer = tracer.wrap("m.outer", drive)
    outer()
    spans = tracer.spans
    outer_id = next(i for i, s in enumerate(spans) if s[0] == "m.outer")
    inner_spans = [s for s in spans if s[0] == "m.inner"]
    assert len(inner_spans) == 4
    assert all(s[2] == outer_id for s in inner_spans)
    assert len({s[1] for s in inner_spans}) == 2
    for span_id, span in enumerate(spans):
        if span[0] == "m.leaf":
            assert spans[span[2]][0] == "m.inner"
            assert spans[span[2]][1] == span[1]
    # Children on the pool overlap, so their summed time exceeds the parent's.
    outer_span = spans[outer_id]
    assert sum(s[4] - s[3] for s in inner_spans) > 1.5 * (outer_span[4] - outer_span[3])
    names = summarize(spans)["names"]
    assert 0.0 <= names["m.outer"]["self_s"] < 0.02
    assert abs(names["m.inner"]["self_s"] - 4 * 0.03) < 0.03
    assert abs(names["m.leaf"]["s"] - 4 * 0.02) < 0.03
    assert tracer.max_os_threads >= 3


def test_install_patches_every_binding_site():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import dekrylov
        from dekrylov import cli, evolve, lintri, wigner
    finally:
        sys.path.remove(str(ROOT / "src"))
    original = lintri.eig_tridiag
    tracer = Tracer()
    tracer.install(dekrylov)
    try:
        assert wigner.eig_tridiag is lintri.eig_tridiag is dekrylov.eig_tridiag
        assert lintri.eig_tridiag is not original
        assert cli.scan_point is evolve.scan_point and cli.renyi2_dense is evolve.renyi2_dense
        assert "lintri.eig_tridiag" in tracer.wrapped and "cli.cmd_evolve" in tracer.wrapped
        assert not any(name.split(".")[1].startswith("_") for name in tracer.wrapped)
        spec = dekrylov.analytic_lanczos(dekrylov.ModelSpec(dekrylov.ModelKind.IR, 8))
        dekrylov.expm_action(spec.tridiag, 0.5)
        names = summarize(tracer.spans)["names"]
        assert names["lintri.eig_tridiag"]["calls"] == 1
    finally:
        tracer.uninstall()
    assert lintri.eig_tridiag is original and wigner.eig_tridiag is original


def test_gate_counts_wrong_and_failed_rows(tmp_path):
    reference = gate.load_reference("figures")["ir_wavepacket"]
    lines = ["model,L,tau,n,psi,psi2"]
    for length, tau, n, psi in reference["rows"]:
        lines.append(f"ir,{length},{tau!r},{n},{psi!r},{psi * psi!r}")
    lines[5] = lines[5].rsplit(",", 2)[0] + ",0.5,0.25"
    (tmp_path / "ir_wavepacket.csv").write_text("\n".join(lines[:-1]) + "\n")
    record = {"id": "ir_wavepacket", "exit_code": 0, "exception": None, "stderr": ""}
    outcome = gate.check_command(record, reference, tmp_path)
    assert outcome["attempted"] == len(reference["rows"])
    assert outcome["failed"] == outcome["wrong"] == 2  # one perturbed, one missing
    failed_run = dict(record, exit_code=2)
    outcome = gate.check_command(failed_run, reference, tmp_path)
    assert outcome["failed"] == outcome["attempted"] and outcome["wrong"] == 0


def _run(*args):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_smoke_every_workload():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    plain = _run("--workload", "figures", "--seed", "0", "--seconds", "1", "--trace", "0")
    assert plain["correct"] and plain["failed"] == 0
    assert sorted(plain["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])

    traced = _run("--workload", "all", "--seed", "0", "--seconds", "1", "--trace", "1")
    assert traced["correct"]
    layer_names = [m["name"] for m in spec["per_layer"]]
    for workload in ("figures", "verify_full", "large_L"):
        values = {n: traced["metrics"][f"{workload}.{n}"]["value"] for n in layer_names}
        wigner_calls = values["wigner.psi_ir_exact_profile.calls"]
        assert (wigner_calls > 0) == (workload == "verify_full")
        report = json.loads(
            (ROOT / ".bench_work" / "results" / f"{workload}-seed0-trace1.json").read_text()
        )
        assert report["absent_spans"] == [] and report["hook_errors"] == []
        assert report["span_problems"] == []
        failing = {o.get("id") for o in report["operations"] if o["failed"]}
        if workload == "large_L":
            assert failing == {"ir_evolve_L1200", "ir_evolve_L1200_late"}
            assert values["lintri.eig_tridiag.s"] > 0.5 * report["traced_wall_samples"][0]
        else:
            assert report["failed"] == 0 and not failing
