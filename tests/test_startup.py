"""What a fresh interpreter loads: no scipy anywhere, no process pool at
import or in `verify`, and no verification layer on the scan path.

Importing scipy costs more than a whole figure scan, and the package
needs it nowhere: every operator carries its exact spectrum, so no
eigensolver runs, and scipy is a test dependency only
(tests/test_api_surface.py checks the sources for imports).  A fresh
interpreter runs the figure scans, the large-L benchmark scans and the
full verification suite, then reports which scipy modules were loaded.

`checks.run_checks` runs the criteria on two plain forked workers, each
read through a pipe of its own, so neither importing the package,
`checks`, `cli` and `wigner` nor running `verify` on two CPUs loads
`multiprocessing` or `concurrent.futures` (12-23 ms to import).

`import dekrylov` and the five scan commands load only the production
modules: the verification layer (`checks`, `oracle`, `doubled`,
`lanczos`) loads when `verify` runs or one of its modules is imported.
"""

import json
import os
import pathlib
import subprocess
import sys

import dekrylov

ROOT = pathlib.Path(__file__).resolve().parents[1]

PROGRAM = """
import contextlib, importlib.util, io, json, runpy, sys, tempfile

import dekrylov
from dekrylov import checks, cli

root = sys.argv[1]
spec = importlib.util.spec_from_file_location("workloads", root + "/perfbench/workloads.py")
workloads = importlib.util.module_from_spec(spec)
spec.loader.exec_module(workloads)
with tempfile.TemporaryDirectory() as tmp:
    sys.argv = ["scan_figures.py", tmp]
    with contextlib.redirect_stdout(io.StringIO()):
        runpy.run_path(root + "/scripts/scan_figures.py", run_name="__main__")
    codes = [
        cli.main(argv + ["--out", f"{tmp}/{command_id}.csv"])
        for command_id, argv in workloads.SCANS["large_L"]
    ]
failed = [r.number for r in checks.run_checks("full") if not r.passed]
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "failed": failed, "scipy": loaded}))
"""


IMPORTS = """
import contextlib, io, json, os, sys

import dekrylov
from dekrylov import checks, cli, wigner

def pool_modules():
    roots = ("multiprocessing", "concurrent")
    return sorted(name for name in sys.modules if name.split(".")[0] in roots)

if sys.argv[1:] == ["verify"]:
    os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs: forked workers
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["verify"])
    print(json.dumps({"code": code, "after_verify": pool_modules()}))
else:
    print(json.dumps(pool_modules()))
"""

SPLIT = """
import contextlib, io, json, sys, tempfile

import dekrylov
from dekrylov import cli

layer = ["dekrylov.checks", "dekrylov.oracle", "dekrylov.doubled", "dekrylov.lanczos", "fractions"]
with tempfile.TemporaryDirectory() as tmp:
    codes = [
        cli.main([command, "--model", model, *extra, "--out", f"{tmp}/{command}_{model}.csv"])
        for model in ("nn", "ir")
        for command, extra in (
            ("coeffs", []),
            ("evolve", []),
            ("wavepacket", ["--lengths", "100", "--tau-list", "0,0.5,2"]),
            ("renyi2", []),
            ("moments", []),
        )
    ]
scans_loaded = [name for name in layer if name in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    verify_code = cli.main(["verify"])
verify_loaded = "dekrylov.checks" in sys.modules

def home(obj):
    return getattr(sys.modules[obj.__module__], obj.__name__)

names = [name for name in dekrylov.__all__ if name != "__version__"]
misplaced = [name for name in names if home(getattr(dekrylov, name)) is not getattr(dekrylov, name)]
star = {}
exec("from dekrylov import *", star)
unbound = [name for name in dekrylov.__all__ if star.get(name) is not getattr(dekrylov, name)]
print(json.dumps({
    "codes": codes, "scans_loaded": scans_loaded, "verify_code": verify_code,
    "verify_loaded": verify_loaded, "names": len(dekrylov.__all__),
    "misplaced": misplaced, "unbound": unbound,
}))
"""


def fresh_env():
    """This environment, with the package's source directory on PYTHONPATH."""
    src = pathlib.Path(dekrylov.__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src), env.get("PYTHONPATH")) if p)
    return env


def run_fresh_process(program, *args, timeout=300, env=None):
    """Run ``program`` in a fresh interpreter, its stdout a pipe; it must exit 0."""
    proc = subprocess.run(
        [sys.executable, "-c", program, *args],
        capture_output=True,
        text=True,
        env=fresh_env() if env is None else env,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def run_fresh(program, *args, timeout=300):
    """Run ``program`` in a fresh interpreter; return its last line as JSON."""
    proc = run_fresh_process(program, *args, timeout=timeout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_scans_and_verify_full_never_import_scipy():
    report = run_fresh(PROGRAM, str(ROOT))
    assert report["codes"] == [0, 0, 0, 0]
    assert report["failed"] == []
    assert report["scipy"] == []


def test_importing_the_package_loads_no_process_pool():
    assert run_fresh(IMPORTS) == []


def test_verify_on_two_cpus_loads_no_process_pool():
    """The forked workers of `verify` need only os, pickle and signal."""
    assert run_fresh(IMPORTS, "verify") == {"code": 0, "after_verify": []}


def test_scans_load_no_verification_layer():
    """The five scan commands of both models, after ``import dekrylov``,
    load none of the verification layer and no ``fractions``; ``verify``
    then loads ``checks``; the package root lists six names, each name it
    re-exports is its home module's object, and ``from dekrylov import *``
    binds each of them."""
    report = run_fresh(SPLIT)
    assert report["codes"] == [0] * 10
    assert report["scans_loaded"] == []
    assert report["verify_code"] == 0 and report["verify_loaded"]
    assert report["names"] == 6
    assert report["misplaced"] == [] and report["unbound"] == []
