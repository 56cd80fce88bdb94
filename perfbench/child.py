"""One repetition of a benchmark workload in a fresh process.

Usage: child.py --workload NAME --seed N --trace 0|1 --work DIR --result PATH

Times ``import dekrylov`` (set-up), then the workload's calls into the
public API, and writes a JSON result.  ``--workload none`` only times the
import and records the environment.  With ``--trace 1`` the package is
wrapped by ``tracer.Tracer`` after the import and the per-layer metrics are
added to the result.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import pathlib
import platform
import random
import resource
import sys
import time

from tracer import Tracer, summarize
from workloads import SCANS

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCAN_COMMANDS = ("coeffs", "evolve", "wavepacket", "renyi2")


def environment():
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
            return f"{deps.get('name')} {deps.get('version')}"
        except Exception as err:  # the layout of show_config varies by version
            return f"unknown ({type(err).__name__})"

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run_scans(cli, commands, work):
    records = []
    for command_id, argv in commands:
        stderr = io.StringIO()
        code = exception = None
        started = time.perf_counter()
        try:
            with contextlib.redirect_stderr(stderr):
                code = cli.main(argv + ["--out", str(work / f"{command_id}.csv")])
        except SystemExit as err:
            code = err.code
        except Exception as err:  # an escaped exception is a counted failure
            exception = f"{type(err).__name__}: {err}"
        records.append(
            {
                "id": command_id,
                "argv": argv,
                "exit_code": code,
                "exception": exception,
                "stderr": stderr.getvalue().strip(),
                "elapsed_s": time.perf_counter() - started,
            }
        )
    return records


def run_verify(checks):
    try:
        results = checks.run_checks("full")
    except Exception as err:  # a crashed suite fails every check
        return {"exception": f"{type(err).__name__}: {err}", "checks": []}
    return {
        "exception": None,
        "checks": [
            {
                "number": r.number,
                "name": r.name,
                "passed": bool(r.passed),
                "elapsed_s": r.elapsed,
                "detail": r.detail,
            }
            for r in results
        ],
    }


def add_hooks(tracer, wigner):
    def eig_after(args, dim, span):
        tracer.count_max("eig_max_dim", dim)
        tracer.count("eig_work_n3", float(dim) ** 3)

    def renyi2_after(args, length, span):
        tracer.count("renyi2_amplitudes", 2.0**length)

    def write_after(args, state, span):
        tracer.count("write_rows", len(args[3]))
        if args[0] is not None and os.path.exists(args[0]):
            tracer.count("write_bytes", os.path.getsize(args[0]))

    cache = getattr(wigner, "_ir_amplitude_data", None)
    absent = []
    if cache is None or not hasattr(cache, "cache_info"):
        absent.append("wigner._ir_amplitude_data")
        cache = None

    def misses(args):
        return cache.cache_info().misses if cache is not None else None

    def profile_after(args, before, span):
        # Without a cache probe every call counts as cold.
        cold = before is None or cache.cache_info().misses > before
        kind = "cold" if cold else "warm"
        tracer.count(f"profile_{kind}_s", span[4] - span[3])
        tracer.count(f"profile_{kind}_calls")

    tracer.add_hook("lintri.eig_tridiag", lambda args: args[0].dim, eig_after)
    tracer.add_hook("evolve.renyi2_dense", lambda args: args[0].length, renyi2_after)
    tracer.add_hook("cli.write_rows", lambda args: None, write_after)
    tracer.add_hook("wigner.psi_ir_exact_profile", misses, profile_after)
    return absent


def layer_metrics(tracer, verify):
    summary = summarize(tracer.spans)
    names, modules, counts = summary["names"], summary["modules"], tracer.counters

    def get(name, key):
        return names.get(name, {}).get(key, 0)

    profile_calls = counts["profile_cold_calls"] + counts["profile_warm_calls"]
    metrics = {
        "lintri.eig_tridiag.s": get("lintri.eig_tridiag", "s"),
        "lintri.eig_tridiag.calls": get("lintri.eig_tridiag", "calls"),
        "lintri.eig_tridiag.max_dim": counts["eig_max_dim"],
        "lintri.eig_tridiag.work_n3": counts["eig_work_n3"],
        "lintri.expm_from_eig.s": get("lintri.expm_from_eig", "s"),
        "lintri.expm_from_eig.calls": get("lintri.expm_from_eig", "calls"),
        "lintri.expm_from_eig.failures": get("lintri.expm_from_eig", "failures"),
        "evolve.renyi2_dense.s": get("evolve.renyi2_dense", "s"),
        "evolve.renyi2_dense.calls": get("evolve.renyi2_dense", "calls"),
        "evolve.renyi2_dense.amplitudes": counts["renyi2_amplitudes"],
        "evolve.scan_point.self_s": get("evolve.scan_point", "self_s"),
        "evolve.complexity.s": get("evolve.complexity", "s"),
        "evolve.renyi2_tridiag.s": get("evolve.renyi2_tridiag", "s"),
        "wigner.psi_ir_exact_profile.cold_s": counts["profile_cold_s"],
        "wigner.psi_ir_exact_profile.warm_s": counts["profile_warm_s"],
        "wigner.psi_ir_exact_profile.calls": profile_calls,
        "wigner.psi_ir_exact_profile.hit_ratio": (
            counts["profile_warm_calls"] / profile_calls if profile_calls else 0.0
        ),
        "cli.write_rows.s": get("cli.write_rows", "s"),
        "cli.write_rows.rows": counts["write_rows"],
        "cli.write_rows.bytes": counts["write_bytes"],
        "oracle.s": modules.get("oracle", {}).get("self_s", 0.0),
        "doubled.s": modules.get("doubled", {}).get("self_s", 0.0),
        "lanczos.run_lanczos.s": get("lanczos.run_lanczos", "s"),
        "models.analytic_lanczos.s": get("models.analytic_lanczos", "s"),
        "process.os_threads": tracer.max_os_threads,
        "tracing.spans": len(tracer.spans),
    }
    for command in SCAN_COMMANDS:
        metrics[f"cli.cmd_{command}.self_s"] = get(f"cli.cmd_{command}", "self_s")
    elapsed = {c["number"]: c["elapsed_s"] for c in (verify or {}).get("checks", [])}
    for number in range(1, 13):
        metrics[f"checks.c{number:02d}.s"] = elapsed.get(number, 0.0)
    return metrics, summary


# Span targets the per-layer metrics read; a missing one is reported absent.
TARGETS = (
    "lintri.eig_tridiag",
    "lintri.expm_from_eig",
    "evolve.renyi2_dense",
    "evolve.scan_point",
    "evolve.complexity",
    "evolve.renyi2_tridiag",
    "wigner.psi_ir_exact_profile",
    "cli.write_rows",
    "lanczos.run_lanczos",
    "models.analytic_lanczos",
) + tuple(f"cli.cmd_{command}" for command in SCAN_COMMANDS)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    started = time.perf_counter()
    import dekrylov
    from dekrylov import checks, cli, wigner

    setup_s = time.perf_counter() - started
    package_dir = pathlib.Path(dekrylov.__file__).resolve().parent
    if package_dir != (ROOT / "src" / "dekrylov").resolve():
        sys.exit(f"dekrylov was imported from {package_dir}, not from this checkout")
    result = {"setup_s": setup_s}
    if args.workload == "none":
        result["env"] = environment()
        pathlib.Path(args.result).write_text(json.dumps(result))
        return

    work = pathlib.Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    commands = None
    if args.workload in SCANS:
        commands = list(SCANS[args.workload])
        random.Random(args.seed).shuffle(commands)
        for command_id, _ in commands:
            (work / f"{command_id}.csv").unlink(missing_ok=True)
    elif args.workload != "verify_full":
        sys.exit(f"unknown workload {args.workload!r}")

    tracer = None
    if args.trace:
        tracer = Tracer()
        absent_probes = add_hooks(tracer, wigner)
        tracer.install(dekrylov)

    usage = resource.getrusage(resource.RUSAGE_SELF)
    started = time.perf_counter()
    if commands is not None:
        result["commands"] = run_scans(cli, commands, work)
    else:
        result["verify"] = run_verify(checks)
    result["wall_s"] = time.perf_counter() - started
    after = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = (after.ru_utime - usage.ru_utime) + (after.ru_stime - usage.ru_stime)
    result["peak_rss_mb"] = after.ru_maxrss / 1024.0

    if tracer is not None:
        tracer.uninstall()
        metrics, summary = layer_metrics(tracer, result.get("verify"))
        result["layers"] = metrics
        result["absent"] = [t for t in TARGETS if t not in tracer.wrapped] + absent_probes
        result["hook_errors"] = sorted(tracer.hook_errors)
        result["span_calls"] = {
            name: entry["calls"] for name, entry in summary["names"].items()
        }
        result["span_calls"].update(
            {module: entry["calls"] for module, entry in summary["modules"].items()}
        )
        with open(work / "spans.json", "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    pathlib.Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
