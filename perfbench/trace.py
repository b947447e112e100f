"""In-memory spans and counters around the library's public entry points.

The benchmark never edits the library to trace it.  :class:`Tracer`
replaces a name where its caller looks it up (a module global such as
``repro.api.executor.generate_scenario``, or a method on its class) with
a wrapper that records a span, and restores every original on
:meth:`Tracer.uninstall`.  Spans stay in memory until :meth:`Tracer.dump`
writes them out after the run.

A span's layer is the part of its name before the first dot.  Self time
is a span's duration minus the time its child spans cover, so the
per-layer self times of one run add up to the traced wall time.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

#: The layers the benchmark attributes time to, in pipeline order.
#: ``bench`` is the benchmark's own code: time inside a traced phase that
#: no library span covers.
LAYERS = (
    "faults",
    "core",
    "distributed",
    "sim",
    "api",
    "routing",
    "netsim",
    "serve",
    "campaign",
    "bench",
)


class NullTracer:
    """The untraced run: spans cost one no-op context manager."""

    enabled = False
    op: Optional[int] = None

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, amount: float = 1) -> None:
        pass


class Tracer(NullTracer):
    """Records spans (name, start, end, parent, op) and named counters."""

    enabled = True

    def __init__(self) -> None:
        #: ``[name, start, end, parent_index, op]`` per span, in start order.
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.total_time: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Per-event values (e.g. each request's queue wait).
        self.samples: Dict[str, List[float]] = defaultdict(list)
        #: Latest value per key (e.g. each session's own cache counters).
        self.gauges: Dict[Any, Any] = {}
        self.op: Optional[int] = None
        self._stack: List[list] = []  # [span_index (-1: unkept), child_seconds]
        self.top_level_unkept = 0.0
        self._undo: List[Callable[[], None]] = []
        # Forked campaign workers inherit the patched names; their spans
        # could never reach the parent, so they run unrecorded.
        self._pid = os.getpid()

    # -- recording -------------------------------------------------------------------

    def _enter(self, name: str, keep: bool = True) -> float:
        start = time.perf_counter()
        if keep:
            parent = self._stack[-1][0] if self._stack else -1
            self._stack.append([len(self.spans), 0.0])
            self.spans.append([name, start, start, parent, self.op])
        else:
            self._stack.append([-1, 0.0])
        return start

    def _exit(self, name: str, start: float) -> float:
        end = time.perf_counter()
        index, children = self._stack.pop()
        if index >= 0:
            self.spans[index][2] = end
        duration = end - start
        self.total_time[name] += duration
        self.self_time[name] += duration - children
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][1] += duration
        elif index < 0:
            self.top_level_unkept += duration
        return duration

    @contextmanager
    def span(self, name: str):
        start = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, start)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] += amount

    # -- patching --------------------------------------------------------------------

    def traced(
        self,
        function: Callable[..., Any],
        name: Any,
        after: Optional[Callable[..., None]] = None,
        before: Optional[Callable[..., Any]] = None,
        keep: bool = True,
    ) -> Callable[..., Any]:
        """A span-recording wrapper around *function*.

        *name* is the span name, or a callable ``name(args, kwargs)`` for
        entry points whose layer depends on the call (the construction
        registry serves both ``core`` and ``distributed``).  *before* runs
        ahead of the call as ``state = before(args, kwargs)``; *after*
        runs inside the span as ``after(result, args, kwargs, state)`` to
        record counters at the same boundary.  ``keep=False`` marks a
        hot leaf entry point (one call per routed pair): its time and calls
        are aggregated, but no span is stored.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return function(*args, **kwargs)
            span_name = name(args, kwargs) if callable(name) else name
            state = before(args, kwargs) if before is not None else None
            start = tracer._enter(span_name, keep)
            try:
                result = function(*args, **kwargs)
                if after is not None:
                    after(result, args, kwargs, state)
                return result
            finally:
                tracer._exit(span_name, start)

        wrapper.__wrapped__ = function
        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, replacement)
        self._undo.append(lambda: setattr(owner, attr, original))

    def wrap(self, owner: Any, attr: str, name: Any, **hooks: Any) -> None:
        """Replace ``owner.attr`` by :meth:`traced` of it (see there)."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, staticmethod):
            self.patch(owner, attr, staticmethod(self.traced(original.__func__, name, **hooks)))
        else:
            self.patch(owner, attr, self.traced(original, name, **hooks))

    def uninstall(self) -> None:
        """Restore every wrapped name, newest first."""
        while self._undo:
            self._undo.pop()()

    # -- reporting -------------------------------------------------------------------

    def layer_self_seconds(self, wall: float) -> Dict[str, float]:
        """Self time per layer; ``bench`` gets the uncovered rest of *wall*."""
        per_layer = {layer: 0.0 for layer in LAYERS}
        for name, seconds in self.self_time.items():
            per_layer[name.split(".", 1)[0]] += seconds
        top_level = sum(span[2] - span[1] for span in self.spans if span[3] == -1)
        top_level += self.top_level_unkept
        per_layer["bench"] += max(0.0, wall - top_level)
        return per_layer

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (times relative to the first span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "start_s": round(start - origin, 9),
                            "end_s": round(end - origin, 9),
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )
