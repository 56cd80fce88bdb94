"""How `checks.run_checks` runs the criteria: forked workers or in-process.

With two or more usable CPUs on Linux the criteria run in forked worker
processes; with one they run in the calling process.  Each test runs its
program in a fresh interpreter under a timeout, so a hung pool or a worker
that kills its parent fails the test instead of the suite.  The programs
set the usable CPUs by replacing `os.sched_getaffinity`, which is what
`run_checks` reads.
"""

import sys

import pytest

from dekrylov.checks import QUICK_NUMBERS
from test_startup import run_fresh

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="the criteria run in forked workers only on Linux"
)

PRELUDE = """
import json, multiprocessing, os, signal, sys
from dekrylov import checks, cli

def use_cpus(count):
    os.sched_getaffinity = lambda pid: set(range(count))

def rows(results):
    return [[r.number, r.name, r.passed, r.detail] for r in results]

def patch(number, fn):
    checks.CHECKS = tuple(
        (n, name, fn if n == number else check) for n, name, check in checks.CHECKS
    )
"""


def test_pool_and_in_process_runs_give_the_same_results():
    report = run_fresh(
        PRELUDE
        + """
out = {}
use_cpus(1)
for level in ("quick", "full"):
    out[level + "_serial"] = rows(checks.run_checks(level))
out["serial_imported_pool"] = "concurrent.futures" in sys.modules
use_cpus(2)
for level in ("quick", "full"):
    out[level + "_pool"] = rows(checks.run_checks(level))
out["pool_imported"] = "concurrent.futures" in sys.modules
out["children"] = len(multiprocessing.active_children())
print(json.dumps(out))
"""
    )
    quick = sorted(QUICK_NUMBERS)
    for level, numbers in (("quick", quick), ("full", list(range(1, 13)))):
        serial, pool = report[f"{level}_serial"], report[f"{level}_pool"]
        assert [row[0] for row in serial] == numbers
        assert pool == serial
        assert all(row[2] for row in pool), pool
    assert report["serial_imported_pool"] is False
    assert report["pool_imported"] is True
    assert report["children"] == 0


def test_a_raising_criterion_is_a_failed_result_on_both_paths():
    report = run_fresh(
        PRELUDE
        + """
def broken(quick=False):
    raise ValueError("tampered criterion")

patch(3, broken)
out = {}
for cpus in (1, 2):
    use_cpus(cpus)
    out[str(cpus)] = rows(checks.run_checks("quick"))
out["children"] = len(multiprocessing.active_children())
print(json.dumps(out))
"""
    )
    assert report["1"] == report["2"]
    for number, _, passed, detail in report["2"]:
        if number == 3:
            assert not passed
            assert detail == "raised ValueError: tampered criterion"
        else:
            assert passed, detail
    assert report["children"] == 0


@pytest.mark.parametrize(
    "death", ["os._exit(3)", "os.kill(os.getpid(), signal.SIGKILL)"]
)
def test_a_dead_worker_fails_its_criterion_and_every_unfinished_one(death):
    report = run_fresh(
        PRELUDE
        + f"""
def dies(quick=False):
    {death}

patch(2, dies)
use_cpus(2)
results = rows(checks.run_checks("quick"))
code = cli.main(["verify", "quick"])
print(json.dumps({{
    "results": results,
    "code": code,
    "children": len(multiprocessing.active_children()),
}}))
""",
        timeout=60,
    )
    results = report["results"]
    assert [row[0] for row in results] == sorted(QUICK_NUMBERS)
    by_number = {row[0]: row for row in results}
    _, _, passed, detail = by_number[2]
    assert not passed
    assert detail.startswith("worker process ") and detail.endswith(
        " ended before the check finished"
    )
    assert int(detail.split()[2]) > 0
    for number, _, passed, detail in results:
        if not passed:
            assert detail.startswith(
                ("worker process ", "not run: the worker pool broke when worker process")
            ), detail
    # Criterion 4 takes ~0.15 s and starts after criterion 2 on a worker of
    # a two-worker pool, so it cannot have finished when the pool broke.
    assert not by_number[4][2]
    assert report["code"] == 1
    assert report["children"] == 0
