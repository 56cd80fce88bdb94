#!/usr/bin/env python3
"""Benchmark of the dekrylov command-line scans and verification suite.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload figures|verify_full|large_L|all \
        --seed N --seconds S --trace 0|1

A closed loop with one client: each repetition of the workload runs in a
fresh Python process (``child.py``), one after another, the way a user
runs the tool.  Repetitions continue for about ``--seconds`` seconds; every
timing is the median over the repetitions of the run.  Set-up time is the
import of ``dekrylov`` (numpy and scipy included), sampled by every
repetition and by import-only processes, at least five times a run.  A repetition is started
only while it is expected to end within ``--seconds`` of the start; each
mode (untraced, traced) runs at least once.

Outputs are checked outside the timed region against the reference values
under ``perfbench/reference`` (see ``gate.py``).  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json; ``--trace 1`` alternates untraced and
traced repetitions and reports the per-layer metrics, with the tracing
overhead as traced minus untraced ``wall_s``.  The last line of standard
output is one JSON object; details, including each command's exit code and
exception, go to ``.bench_work/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import statistics
import subprocess
import sys
import time

import gate
from workloads import SCANS, SPAN_EXPECTATIONS, WORKLOADS

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 5
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def run_child(workload, seed, trace, deadline):
    WORK.mkdir(exist_ok=True)
    result_path = WORK / "child-result.json"
    result_path.unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    argv = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--trace", str(trace), "--work", str(WORK / workload), "--result", str(result_path),
    ]
    try:
        proc = subprocess.run(
            argv, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(5.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} repetition did not finish in time") from None
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} repetition exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(result_path.read_text())


def git_commit():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or pathlib.Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def src_lines():
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src").rglob("*.py"))
    )


def check_rep(workload, result, reference):
    if workload in SCANS:
        return gate.check_scans(result["commands"], reference, WORK / workload)
    return [gate.check_verify(result["verify"])]


def span_report(workload, traced):
    """Expected spans that did not fire, or fired where they should not."""
    problems = []
    expected = SPAN_EXPECTATIONS[workload]
    for result in traced:
        calls = result["span_calls"]
        problems += [f"{n} did not fire" for n in expected["fire"] if not calls.get(n)]
        problems += [f"{n} fired" for n in expected["silent"] if calls.get(n)]
    return sorted(set(problems))


def run_workload(workload, seed, seconds, trace, spec):
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    # One import-only process first takes the cost of the first process
    # after a pause; more follow the repetitions if set-up has few samples.
    probe = run_child("none", seed, 0, deadline)
    setup = [probe["setup_s"]]
    env = probe["env"]
    reference = gate.load_reference(workload) if workload in SCANS else None
    modes = (0, 1) if trace else (0,)
    reps = []
    cost = {}
    while True:
        mode = modes[len(reps) % len(modes)]
        elapsed = time.monotonic() - started
        if len(reps) >= len(modes) and elapsed + cost[mode] > seconds:
            break
        began = time.monotonic()
        result = run_child(workload, seed, mode, deadline)
        cost[mode] = max(cost.get(mode, 0.0), time.monotonic() - began)
        outcomes = check_rep(workload, result, reference)
        setup.append(result["setup_s"])
        reps.append((mode, result, outcomes))
    while len(setup) < SETUP_SAMPLES:
        setup.append(run_child("none", seed, 0, deadline)["setup_s"])

    attempted = sum(o["attempted"] for _, _, outs in reps for o in outs)
    failed = sum(o["failed"] for _, _, outs in reps for o in outs)
    wrong = sum(o["wrong"] for _, _, outs in reps for o in outs)
    plain = [(r, outs) for mode, r, outs in reps if mode == 0]
    traced = [r for mode, r, _ in reps if mode == 1]
    wall = statistics.median(r["wall_s"] for r, _ in plain)
    values = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "ok_points_per_s": statistics.median(
            sum(o["attempted"] - o["failed"] for o in outs) / r["wall_s"] for r, outs in plain
        ),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r, _ in plain),
    }
    if trace:
        for name in traced[0]["layers"]:
            values[name] = statistics.median(r["layers"][name] for r in traced)
        values["process.cpu_s"] = statistics.median(r["cpu_s"] for r, _ in plain)
        values["tracing.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
    group = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in group if m["name"] not in values]
    if missing:
        raise BenchError(f"{workload}: no value for {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in group}

    env = dict(env, commit=git_commit(), src_lines=src_lines())
    last_outcomes = reps[-1][2]
    report = {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "repetitions": {"untraced": len(plain), "traced": len(traced)},
        "setup_samples": setup,
        "wall_samples": [r["wall_s"] for r, _ in plain],
        "traced_wall_samples": [r["wall_s"] for r in traced],
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "operations": last_outcomes,
        "metrics": metrics,
        "env": env,
    }
    if trace:
        report["absent_spans"] = traced[-1]["absent"]
        report["hook_errors"] = sorted({e for r in traced for e in r["hook_errors"]})
        report["span_problems"] = span_report(workload, traced)
        report["span_calls"] = traced[-1]["span_calls"]
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(report, indent=1))
    print_report(report)
    return report


def print_report(report):
    reps = report["repetitions"]
    print(
        f"== {report['workload']}  seed {report['seed']}  trace {report['trace']}  "
        f"repetitions {reps['untraced']} untraced, {reps['traced']} traced  "
        f"setup samples {len(report['setup_samples'])}"
    )
    for name, metric in report["metrics"].items():
        print(f"  {name:42s} {metric['value']:.6g} {metric['unit']}")
    print(
        f"  {'failed_frac':42s} {report['failed_frac']:.6g} "
        f"({report['failed']} of {report['attempted']} operations, all repetitions)"
    )
    for outcome in report["operations"]:
        if outcome["failed"]:
            if "id" in outcome:
                cause = outcome["exception"] or f"exit {outcome['exit_code']} {outcome['stderr']}"
                label = outcome["id"]
            else:
                cause = outcome["exception"] or f"FAIL {outcome['failed_checks']}"
                label = "checks"
            print(
                f"  failed: {label}: {outcome['failed']} of {outcome['attempted']} "
                f"in the last repetition, {cause}".rstrip()
            )
    for problem in report.get("span_problems", []):
        print(f"  span expectation not met: {problem}")
    for error in report.get("hook_errors", []):
        print(f"  tracer hook failed: {error}")
    if report.get("absent_spans"):
        print(f"  absent span targets: {', '.join(report['absent_spans'])}")
    if not report["correct"]:
        print("  OUTPUT CHECK FAILED: some written values are outside the reference tolerance")
    print(f"  env {json.dumps(report['env'])}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "dekrylov" / "__init__.py").is_file():
        sys.exit(f"error: no dekrylov sources under {ROOT / 'src'}")
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        reports = [run_workload(n, args.seed, args.seconds, args.trace, spec) for n in names]
    except BenchError as err:
        sys.exit(f"error: {err}")
    if len(reports) == 1:
        metrics = reports[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{name}": metric
            for r in reports
            for name, metric in r["metrics"].items()
        }
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in reports),
                "attempted": sum(r["attempted"] for r in reports),
                "failed": sum(r["failed"] for r in reports),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
