"""How `checks.run_checks` runs the criteria: forked workers or in-process.

With two or more usable CPUs on Linux the criteria run on two plain
forked worker processes, one for the critical-path criterion alone and
one for the other eleven; with one they run in the calling process.
Each test runs its program in a fresh interpreter under a timeout, so a
hung worker or a worker that kills its parent fails the test instead of
the suite.  The programs set the usable CPUs by replacing
`os.sched_getaffinity`, which is what `run_checks` reads, and look for a
leftover child with `os.waitpid(-1, os.WNOHANG)`, which raises
`ChildProcessError` once there is none.  Further tests: a dead worker
fails only the criteria it had not finished, results larger than a pipe
buffer come back whole, an interrupted `verify` exits 130 with one line
and leaves no worker, no criterion starts a thread (a threaded BLAS call
would), and text the caller printed before `run_checks` is written once,
not once more by every worker.
"""

import os
import pathlib
import signal
import subprocess
import sys
import time

import pytest

from dekrylov.checks import CRITICAL_PATH
from test_startup import fresh_env, run_fresh, run_fresh_process

pytestmark = pytest.mark.skipif(
    sys.platform != "linux", reason="the criteria run in forked workers only on Linux"
)

PRELUDE = """
import json, os, signal, sys, time
from dekrylov import checks, cli

def use_cpus(count):
    os.sched_getaffinity = lambda pid: set(range(count))

def rows(results):
    return [[r.number, r.name, r.passed, r.detail] for r in results]

def patch(number, fn):
    checks.CHECKS = tuple(
        (n, name, fn if n == number else check) for n, name, check in checks.CHECKS
    )

def children_left():
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True

def pool_modules():
    return sorted(
        name for name in sys.modules if name.split(".")[0] in ("multiprocessing", "concurrent")
    )
"""


def test_pool_and_in_process_runs_give_the_same_results():
    report = run_fresh(
        PRELUDE
        + """
out = {}
use_cpus(1)
out["serial"] = rows(checks.run_checks())
use_cpus(2)
out["pool"] = rows(checks.run_checks())
out["pool_modules"] = pool_modules()
out["children"] = children_left()
print(json.dumps(out))
"""
    )
    serial, pool = report["serial"], report["pool"]
    assert [row[0] for row in serial] == list(range(1, 13))
    assert pool == serial
    assert all(row[2] for row in pool), pool
    assert report["pool_modules"] == []
    assert report["children"] is False


def test_the_critical_path_runs_alone_and_the_other_eleven_share_one_worker():
    """Every criterion reports the pid of the process that ran it."""
    report = run_fresh(
        PRELUDE
        + """
def reports_pid():
    return True, str(os.getpid())

checks.CHECKS = tuple((number, name, reports_pid) for number, name, _ in checks.CHECKS)
use_cpus(2)
results = rows(checks.run_checks())
print(json.dumps({"parent": os.getpid(), "results": results, "children": children_left()}))
"""
    )
    results = report["results"]
    assert [row[0] for row in results] == list(range(1, 13))
    assert all(row[2] for row in results)
    pids = {row[0]: int(row[3]) for row in results}
    alone = pids.pop(CRITICAL_PATH)
    shared = set(pids.values())
    assert len(shared) == 1
    assert len({alone, *shared, report["parent"]}) == 3
    assert report["children"] is False


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
out["children"] = children_left()
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
    assert report["children"] is False


@pytest.mark.parametrize("dying", [2, CRITICAL_PATH])
@pytest.mark.parametrize("death", ["os._exit(3)", "os.kill(os.getpid(), signal.SIGKILL)"])
def test_a_dead_worker_fails_its_criterion_and_every_unfinished_one(death, dying):
    """Criterion 2 takes the other eleven's worker down after criterion 1;
    criterion 4 takes only its own.  The other worker's results stand."""
    report = run_fresh(
        PRELUDE
        + f"""
def dies():
    {death}

patch({dying}, dies)
use_cpus(2)
results = rows(checks.run_checks())
code = cli.main(["verify"])
print(json.dumps({{
    "parent": os.getpid(),
    "results": results,
    "code": code,
    "children": children_left(),
}}))
"""
    )
    results = report["results"]
    assert [row[0] for row in results] == list(range(1, 13))
    failed = {row[0]: row[3] for row in results if not row[2]}
    if dying == CRITICAL_PATH:
        assert list(failed) == [CRITICAL_PATH]
    else:
        assert list(failed) == [2, 3, 5, 6, 7, 8, 9, 10, 11, 12]
    pids = set()
    for detail in failed.values():
        assert detail.startswith("worker process ") and detail.endswith(
            " ended before the check finished"
        ), detail
        pids.add(int(detail.split()[2]))
    assert len(pids) == 1 and pids.pop() not in (0, report["parent"])
    assert report["code"] == 1
    assert report["children"] is False


def test_results_larger_than_a_pipe_buffer_come_back_whole():
    """Each worker writes about 1 MiB, far more than a 64 KiB pipe buffer,
    and waits for the parent to read it."""
    report = run_fresh(
        PRELUDE
        + """
def large(number):
    return lambda: (True, f"{number:02d}" * (1 << 19))

patch(4, large(4))
patch(12, large(12))
use_cpus(2)
results = checks.run_checks()
print(json.dumps({
    "numbers": [r.number for r in results],
    "passed": all(r.passed for r in results),
    "intact": [r.detail == f"{n:02d}" * (1 << 19) for r in results for n in (4, 12) if r.number == n],
    "children": children_left(),
}))
"""
    )
    assert report["numbers"] == list(range(1, 13))
    assert report["passed"] is True
    assert report["intact"] == [True, True]
    assert report["children"] is False


INTERRUPTED = (
    PRELUDE
    + """
def sleeps():
    with open(sys.argv[1] + ".tmp", "w") as handle:
        handle.write(str(os.getpid()))
    os.rename(sys.argv[1] + ".tmp", sys.argv[1])
    time.sleep(600)

patch(4, sleeps)
use_cpus(2)
sys.exit(cli.main(["verify"]))
"""
)


def test_an_interrupted_verify_exits_130_with_one_line_and_no_worker_left(tmp_path):
    """SIGINT to the whole process group, as Ctrl-C in a terminal sends it,
    while criterion 4 sleeps in its worker, which keeps SIGINT blocked and
    is killed by the parent."""
    marker = tmp_path / "criterion-4-worker"
    proc = subprocess.Popen(
        [sys.executable, "-c", INTERRUPTED, str(marker)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=fresh_env(),
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 60
        while not marker.exists():
            assert proc.poll() is None, proc.communicate()[1]
            assert time.monotonic() < deadline, "criterion 4 never started"
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    assert proc.returncode == 130
    assert err.splitlines() == ["error: interrupted"]
    assert "Traceback" not in err
    with pytest.raises(ProcessLookupError):
        os.kill(int(marker.read_text()), 0)
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)  # no process of the session is left


@pytest.mark.skipif(
    not pathlib.Path("/proc/self/task").is_dir(), reason="counts threads in /proc/self/task"
)
def test_no_criterion_starts_a_thread():
    """One forked child per criterion counts its threads before and after;
    a matrix product through a threaded BLAS would leave a helper thread."""
    counts = run_fresh(
        """
import json, os
from dekrylov import checks

def threads():
    return len(os.listdir("/proc/self/task"))

counts = {}
for number, _, fn in checks.CHECKS:
    reader, writer = os.pipe()
    pid = os.fork()
    if pid == 0:
        before = threads()
        passed, _ = fn()
        os.write(writer, json.dumps([before, threads(), bool(passed)]).encode())
        os._exit(0)
    os.close(writer)
    counts[number] = json.loads(os.read(reader, 1024))
    os.close(reader)
    os.waitpid(pid, 0)
print(json.dumps(counts))
"""
    )
    assert counts == {str(number): [1, 1, True] for number in range(1, 13)}


def test_text_printed_before_the_run_is_written_once():
    """The workers inherit the caller's unflushed stdout buffer and leave
    through os._exit, which flushes nothing.  Stdout is a pipe, so it is
    block-buffered unless PYTHONUNBUFFERED says otherwise."""
    env = fresh_env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = run_fresh_process(
        PRELUDE
        + """
print("pending before run_checks")
use_cpus(2)
failed = [r.number for r in checks.run_checks() if not r.passed]
print(json.dumps(failed))
""",
        env=env,
    )
    lines = proc.stdout.splitlines()
    assert lines.count("pending before run_checks") == 1
    assert lines[-1] == "[]"
