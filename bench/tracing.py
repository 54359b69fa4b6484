"""Span tracer that wraps the program's public functions from outside.

The tracer replaces module and class attributes of ``matroidsplit`` with
wrappers that record a span (name, start, end, parent) per call.  A name
imported with ``from ... import ...`` is replaced where it is looked up,
so one wrapper object is installed at every lookup site of a function.
Spans are kept in flat arrays in memory and written out when the run
ends.  Per name it also sums calls, inclusive time (outermost calls of
that name only) and self time (duration minus the time child spans cover),
separately for each phase of the run.

Only the process that installed the tracer records: forked pool workers
restore the original attributes, so pooled work shows only as the time
the parent spends inside each pool.
"""

from __future__ import annotations

import functools
import json
import os
import time
from array import array
from pathlib import Path

SETUP, TIMED = 0, 1


class Tracer:
    def __init__(self):
        self.on = False
        self.phase = SETUP
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_phase = array("b")
        self.span_start = array("d")
        self.span_end = array("d")
        # Open spans: [span index, name id, start, child time].
        self._stack: list[list] = []
        self._depth: dict[int, int] = {}
        # (phase, name id) -> [calls, inclusive s, self s]
        self.totals: dict[tuple[int, int], list] = {}
        self.counts: dict[tuple[int, str], int] = {}
        self._restore: list[tuple[object, str, object]] = []
        self._pid = os.getpid()

    # -- recording ------------------------------------------------------------

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name: str) -> None:
        nid = self._id(name)
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1][0] if self._stack else -1)
        self.span_phase.append(self.phase)
        self.span_end.append(0.0)
        self._depth[nid] = self._depth.get(nid, 0) + 1
        start = time.perf_counter()
        self.span_start.append(start)
        self._stack.append([idx, nid, start, 0.0])

    def end(self) -> None:
        stop = time.perf_counter()
        idx, nid, start, child = self._stack.pop()
        self.span_end[idx] = stop
        dur = stop - start
        self._depth[nid] -= 1
        tot = self.totals.setdefault((self.span_phase[idx], nid), [0, 0.0, 0.0])
        tot[0] += 1
        if self._depth[nid] == 0:
            tot[1] += dur
        tot[2] += dur - child
        if self._stack:
            self._stack[-1][3] += dur

    def count(self, name: str) -> None:
        key = (self.phase, name)
        self.counts[key] = self.counts.get(key, 0) + 1

    # -- installing wrappers ----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def span_wrapper(self, fn, name):
        """Wrap ``fn``; ``name`` is a string or a function of the call's
        arguments returning one."""
        tracer = self
        name_of = name if callable(name) else (lambda args, kwargs: name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            tracer.begin(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        return wrapper

    def count_wrapper(self, fn, name: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.on:
                tracer.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def wrap(self, owners, attr: str, name, counted_only: bool = False) -> None:
        """Install one wrapper of ``owners[0].attr`` at every owner."""
        fn = getattr(owners[0], attr)
        wrapper = (self.count_wrapper(fn, name) if counted_only
                   else self.span_wrapper(fn, name))
        for owner in owners:
            if getattr(owner, attr) is not fn:
                raise RuntimeError(f"{owner!r}.{attr} is not the function "
                                   f"looked up at {owners[0]!r}")
            self._set(owner, attr, wrapper)

    def wrap_pool(self, owner, attr: str, name: str) -> None:
        """Replace a pool class by a subclass that counts starts and spans
        the time from entering the pool to leaving it."""
        tracer = self
        base = getattr(owner, attr)

        class TracedPool(base):
            def __init__(self, *args, **kwargs):
                if tracer.on:
                    tracer.count(name + ".starts")
                super().__init__(*args, **kwargs)

            def __enter__(self):
                self._traced = tracer.on
                if self._traced:
                    tracer.begin(name)
                return super().__enter__()

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    if self._traced:
                        tracer.end()

        self._set(owner, attr, TracedPool)

    def install_fork_guard(self) -> None:
        os.register_at_fork(after_in_child=self._in_child)

    def _in_child(self) -> None:
        if os.getpid() != self._pid:
            self.on = False
            self.uninstall()

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- results ----------------------------------------------------------------

    def overhead_estimate(self) -> float:
        """Seconds the wrappers added to this run: calls recorded times the
        per-call cost."""
        span_cost, count_cost = per_call_cost()
        n_counts = sum(self.counts.values())
        return len(self.span_start) * span_cost + n_counts * count_cost

    def summary(self, phase: int) -> dict:
        """Per name: calls, inclusive seconds and self seconds in ``phase``."""
        out = {}
        for (ph, nid), (calls, incl, self_s) in self.totals.items():
            if ph == phase:
                out[self.names[nid]] = {"calls": calls, "s": incl, "self_s": self_s}
        for (ph, name), n in self.counts.items():
            if ph == phase:
                out.setdefault(name, {})["calls"] = n
        return out

    def write(self, path: Path) -> None:
        """Write the spans: one JSON header line, then the raw arrays."""
        arrays = {"name": self.span_name, "parent": self.span_parent,
                  "phase": self.span_phase, "start": self.span_start,
                  "end": self.span_end}
        header = {
            "names": self.names,
            "phases": {"setup": SETUP, "timed": TIMED},
            "spans": len(self.span_start),
            "arrays": [[k, a.typecode, a.itemsize] for k, a in arrays.items()],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in arrays.values():
                arr.tofile(fh)


def per_call_cost(calls: int = 20000) -> tuple[float, float]:
    """Seconds a span wrapper and a count wrapper add to one call,
    measured on a no-op with a scratch tracer."""
    probe = Tracer()
    probe.on = True

    def noop():
        return None

    def per_call(fn) -> float:
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return (time.perf_counter() - start) / calls

    base = per_call(noop)
    return (per_call(probe.span_wrapper(noop, "probe")) - base,
            per_call(probe.count_wrapper(noop, "probe")) - base)
