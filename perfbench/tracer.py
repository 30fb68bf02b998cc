"""Spans around tokenaut's public functions, and self time per layer.

``Tracer.install`` wraps every public function defined in a tokenaut
module and rebinds each module attribute that refers to it, so a call is
traced whichever module looks the function up: ``tokenaut.verify`` and
``tokenaut.search`` reach ``schreier_sims`` through their own imported
names, and those names are rebound too.  Kernels returned by
``refinement.make_kernel`` are wrapped so that every ``refine`` call is a
span named after its backend.  No file of the program is edited; the
wrappers exist only in the traced process, and ``uninstall`` puts the
original functions back.

A span is the tuple (id, name, start, end, parent).  Spans are kept in
memory and written out when the traced sweep ends.  A span opened on a
thread that has no open span of its own (a ``verify --jobs`` worker) takes
as parent the innermost span open on the installing thread, which is the
call that fanned the work out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import threading
import time
from collections import defaultdict

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.records: list[tuple[int, str, float, float, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- span recording -------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name: str, fn, after=None):
        """Wrap fn so that each call records a span called name.

        after(result) runs once the span is closed, to update counters.
        """
        records = self.records
        ids = self._ids
        main_stack = self._main_stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = main_stack[-1] if main_stack else NO_PARENT
            sid = next(ids)
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                records.append((sid, name, start, end, parent))
            if after is not None:
                after(result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the public functions of every tokenaut module."""
        import tokenaut

        self._local.stack = self._main_stack
        modules = [tokenaut] + [
            importlib.import_module(f"tokenaut.{info.name}")
            for info in pkgutil.iter_modules(tokenaut.__path__)
            if not info.name.startswith("_")]
        wrappers = {}
        for mod in modules[1:]:
            layer = mod.__name__.rpartition(".")[2]
            for attr, fn in vars(mod).items():
                # A generator function returns before its work is done, so
                # a span would time only the call; its work stays with the
                # caller.
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or inspect.isgeneratorfunction(fn)):
                    continue
                wrappers[fn] = self._wrapper(f"{layer}.{attr}", fn)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def _wrapper(self, name: str, fn):
        if name == "refinement.make_kernel":
            make_kernel = fn

            def traced_make_kernel(*args, **kwargs):
                kernel = make_kernel(*args, **kwargs)
                return _TracedKernel(kernel, self.span(
                    f"refinement.refine.{kernel.backend}", kernel.refine))

            return self.span(name, functools.wraps(fn)(traced_make_kernel))
        count = _COUNTERS.get(name)
        return self.span(name, fn, count and functools.partial(count, self.counters))

    # -- output ---------------------------------------------------------

    def dump(self, path: str, origin: float) -> None:
        """Write the spans as JSON, times in seconds from origin."""
        names = sorted({r[1] for r in self.records})
        index = {n: i for i, n in enumerate(names)}
        rows = [[sid, index[name], round(start - origin, 9),
                 round(end - origin, 9), parent]
                for sid, name, start, end, parent in sorted(self.records)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["id", "name", "start_s", "end_s", "parent"],
                       "names": names, "spans": rows}, fh)


class _TracedKernel:
    """A refinement kernel whose refine calls are spans."""

    def __init__(self, kernel, refine):
        self._kernel = kernel
        self.refine = refine

    def __getattr__(self, attr):
        return getattr(self._kernel, attr)


def _count_search(counters, result) -> None:
    counters["search.nodes"] += result.node_count


def _count_chain(counters, group) -> None:
    counters["perms.chain.base_len"] += len(group.base)
    counters["perms.chain.gens_in"] += len(group.generators)


_COUNTERS = {
    "search.automorphism_group": _count_search,
    "perms.schreier_sims": _count_chain,
}


def self_times(records, window: tuple[float, float]):
    """Exclusive time of each span, and the part of window no span covers.

    At every instant the elapsed time is shared equally among the open
    spans that have no open child.  On one thread this is a span's
    duration minus the part of it its children cover.  When worker
    threads overlap, they share the interpreter, so each of their
    innermost spans is charged its share of the overlap, and the waiting
    parent none.  The self times plus the uncovered time add up to the
    window.
    """
    parent_of = {sid: parent for sid, _, _, _, parent in records}
    # At equal times, starts go before ends, parents start before their
    # children, and children end before their parents.
    events = []
    for sid, _, start, end, _ in records:
        events.append((start, 0, sid))
        events.append((end, 1, -sid))
    events.sort()
    open_children: dict[int, int] = defaultdict(int)
    is_open: set[int] = set()
    leaves: set[int] = set()
    own: dict[int, float] = defaultdict(float)
    uncovered = 0.0
    lo, hi = window
    last = lo
    for t, ending, key in events:
        sid = -key if ending else key
        t = min(max(t, lo), hi)
        if t > last:
            if leaves:
                share = (t - last) / len(leaves)
                for leaf in leaves:
                    own[leaf] += share
            else:
                uncovered += t - last
            last = t
        parent = parent_of[sid]
        if not ending:
            is_open.add(sid)
            leaves.add(sid)
            if parent in is_open:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            is_open.discard(sid)
            leaves.discard(sid)
            if parent in is_open:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    uncovered += max(hi - last, 0.0)
    return own, uncovered


def layer_table(records, window) -> tuple[dict[str, dict], float]:
    """Calls and self time per span name, plus the uncovered time."""
    own, uncovered = self_times(records, window)
    table: dict[str, dict] = {}
    for sid, name, _, _, _ in records:
        row = table.setdefault(name, {"calls": 0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own.get(sid, 0.0)
    return table, uncovered
