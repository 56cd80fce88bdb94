"""How `checks.run_checks` runs the criteria: forked workers or in-process.

With two or more usable CPUs on Linux the criteria run in forked worker
processes, the critical-path criterion submitted first; with one they run
in the calling process.  Each test runs its program in a fresh
interpreter under a timeout, so a hung pool or a worker that kills its
parent fails the test instead of the suite.  The programs
set the usable CPUs by replacing `os.sched_getaffinity`, which is what
`run_checks` reads.
"""

import sys

import pytest

from dekrylov.checks import CRITICAL_PATH
from test_startup import run_fresh

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="the criteria run in forked workers only on Linux"
)

PRELUDE = """
import json, multiprocessing, os, signal, sys, time
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
out["serial"] = rows(checks.run_checks())
out["serial_imported_pool"] = "concurrent.futures" in sys.modules
use_cpus(2)
out["pool"] = rows(checks.run_checks())
out["pool_imported"] = "concurrent.futures" in sys.modules
out["children"] = len(multiprocessing.active_children())
print(json.dumps(out))
"""
    )
    serial, pool = report["serial"], report["pool"]
    assert [row[0] for row in serial] == list(range(1, 13))
    assert pool == serial
    assert all(row[2] for row in pool), pool
    assert report["serial_imported_pool"] is False
    assert report["pool_imported"] is True
    assert report["children"] == 0


def test_the_critical_path_is_submitted_first_and_results_keep_their_order():
    report = run_fresh(
        PRELUDE
        + """
from concurrent.futures import ProcessPoolExecutor

submitted = []
real_submit = ProcessPoolExecutor.submit

def submit(self, fn, index, *args):
    submitted.append(checks.CHECKS[index][0])
    return real_submit(self, fn, index, *args)

ProcessPoolExecutor.submit = submit
use_cpus(2)
numbers = [r.number for r in checks.run_checks()]
print(json.dumps({"numbers": numbers, "submitted": submitted}))
"""
    )
    numbers = list(range(1, 13))
    assert report["numbers"] == numbers
    rest = [number for number in numbers if number != CRITICAL_PATH]
    assert report["submitted"] == [CRITICAL_PATH] + rest


def test_a_raising_criterion_is_a_failed_result_on_both_paths():
    report = run_fresh(
        PRELUDE
        + """
def broken():
    raise ValueError("tampered criterion")

patch(3, broken)
out = {}
for cpus in (1, 2):
    use_cpus(cpus)
    out[str(cpus)] = rows(checks.run_checks())
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
def dies():
    {death}

def sleeps():
    time.sleep(600)

patch(2, dies)
patch(4, sleeps)
use_cpus(2)
results = rows(checks.run_checks())
code = cli.main(["verify"])
print(json.dumps({{
    "results": results,
    "code": code,
    "children": len(multiprocessing.active_children()),
}}))
""",
        timeout=60,
    )
    results = report["results"]
    assert [row[0] for row in results] == list(range(1, 13))
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
    # Criterion 4 sleeps until the broken pool terminates its worker, so it
    # is unfinished, and failed, whatever order the workers ran in.
    assert not by_number[4][2]
    assert report["code"] == 1
    assert report["children"] == 0
