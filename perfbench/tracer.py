"""Thread-aware span tracer that wraps a package's functions from outside.

``Tracer.install(package)`` replaces every public function defined in a
module of the package with a timing wrapper, at every binding site: the
defining module and every module that imported the function by name.
Each thread keeps its own span stack.  A span opened on another thread
with an empty stack takes as parent the innermost open span of the thread
that created the tracer, which is where the program drives its pool from.

Spans are kept in memory as ``[name, thread, parent, start, end, error]``
and reduced by ``summarize``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict


def os_thread_count():
    """Number of OS threads of this process (Python threads if /proc is absent)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return threading.active_count()


class Tracer:
    def __init__(self):
        self.spans = []
        self.counters = defaultdict(float)
        self.max_os_threads = os_thread_count()
        self.wrapped = set()
        self.hook_errors = set()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._root = threading.get_ident()
        self._stacks = {}
        self._hooks = {}
        self._restore = []

    def add_hook(self, name, before, after):
        """Call ``before(args) -> state`` and ``after(args, state, span)`` around ``name``."""
        self._hooks[name] = (before, after)

    def count(self, key, value=1.0):
        with self._lock:
            self.counters[key] += value

    def count_max(self, key, value):
        with self._lock:
            self.counters[key] = max(self.counters[key], value)

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            thread = threading.get_ident()
            threads = os_thread_count()
            with self._lock:
                self._stacks[thread] = stack
                self.max_os_threads = max(self.max_os_threads, threads)
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        root_stack = self._stacks.get(self._root)
        if root_stack and threading.get_ident() != self._root:
            return root_stack[-1]
        return None

    def wrap(self, name, fn):
        spans, lock, hooks = self.spans, self._lock, self._hooks

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [name, threading.get_ident(), self._parent(stack), 0.0, None, None]
            hook = hooks.get(name)
            state = self._call_hook(name, hook[0], args) if hook else None
            with lock:
                span_id = len(spans)
                spans.append(span)
            stack.append(span_id)
            span[3] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as err:
                span[5] = type(err).__name__
                raise
            finally:
                span[4] = time.perf_counter()
                stack.pop()
                if hook:
                    self._call_hook(name, hook[1], args, state, span)

        return traced

    def _call_hook(self, name, fn, *args):
        # A failing hook is recorded and never reaches the traced program.
        try:
            return fn(*args)
        except Exception as err:
            with self._lock:
                self.hook_errors.add(f"{name}: {type(err).__name__}: {err}")
            return None

    def install(self, package):
        """Wrap the public functions of every loaded module of ``package``."""
        prefix = package.__name__ + "."
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package.__name__ or name.startswith(prefix))
        ]
        wrappers = {}
        for module in modules:
            short = module.__name__.rsplit(".", 1)[-1]
            for attr, obj in vars(module).items():
                if (
                    attr.startswith("_")
                    or isinstance(obj, type)
                    or not callable(obj)
                    or getattr(obj, "__module__", None) != module.__name__
                ):
                    continue
                name = f"{short}.{attr}"
                wrappers[id(obj)] = (obj, self.wrap(name, obj))
                self.wrapped.add(name)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                entry = wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    setattr(module, attr, entry[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()


def _covered(intervals):
    """Total length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def summarize(spans):
    """Per-name and per-module totals of a span list.

    For each name: ``calls``, ``failures`` (spans that raised), ``s`` (the
    duration of the outermost spans of that name, summed over threads) and
    ``self_s`` (duration minus the union of the child spans' intervals, so
    children running in parallel on a pool are not subtracted twice).
    For each module: ``self_s`` and ``calls`` over its names.
    """
    children = defaultdict(list)
    for span_id, span in enumerate(spans):
        if span[2] is not None:
            children[span[2]].append(span_id)
    names = defaultdict(lambda: {"calls": 0, "failures": 0, "s": 0.0, "self_s": 0.0})
    modules = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
    for span_id, (name, _thread, parent, start, end, error) in enumerate(spans):
        clipped = [
            (max(start, spans[c][3]), min(end, spans[c][4]))
            for c in children[span_id]
            if spans[c][4] > start and spans[c][3] < end
        ]
        self_s = (end - start) - _covered(clipped)
        entry = names[name]
        entry["calls"] += 1
        entry["failures"] += error is not None
        entry["self_s"] += self_s
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][2]
        if ancestor is None:
            entry["s"] += end - start
        module = modules[name.split(".", 1)[0]]
        module["calls"] += 1
        module["self_s"] += self_s
    return {"names": dict(names), "modules": dict(modules)}
