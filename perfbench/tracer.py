"""In-memory tracer for the traced benchmark run.

The tracer wraps public functions of the ``repro`` layers from the outside:
the ``patch_*`` methods replace a function or method by a timing wrapper in
every module or class that holds it, ``uninstall()`` puts the originals
back.  Nothing in the package itself changes.

Two kinds of record are kept, both in memory until the run ends:

* aggregates per probe name -- call count, total time and self time --
  kept per thread and merged at the end, so per-cycle functions such as
  ``Router.step`` cost one counter update per call, never a record;
* spans -- name, start, end, parent, self time -- around each unit of work
  (a kernel run, a trial, a campaign run, a request) and around the coarse
  probes marked ``span=True``.

Self time is a call's duration minus the time covered by its direct
children.  A child in the same thread nests inside its parent.  A probe
entered on a thread whose own stack is empty (the daemon's event loop, its
compute thread) is a child of the most recently opened span of any thread;
the benchmark's request loop is closed, so such children never overlap and
their durations add up to the time they cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_perf = time.perf_counter


class Tracer:
    """Probe registry plus the aggregates and spans recorded through it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._thread_aggs: List[Dict[str, List[float]]] = []
        self._register_lock = threading.Lock()
        self._cross_lock = threading.Lock()
        #: Open span frames of every thread, oldest first.
        self._open: List[list] = []
        self.spans: List[Dict[str, Any]] = []
        self.counters: Dict[str, float] = {}
        self._patches: List[tuple] = []
        self._ids = itertools.count(1)

    # ------------------------------------------------------------------
    # Per-thread state
    # ------------------------------------------------------------------
    def _state(self):
        local = self._local
        try:
            return local.stack, local.aggs
        except AttributeError:
            local.stack = []
            local.aggs = {}
            with self._register_lock:
                self._thread_aggs.append(local.aggs)
            return local.stack, local.aggs

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a plain counter (no timing)."""
        with self._cross_lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Frames: [name, start, child_seconds, parent_frame, span_id, thread_id]
    # ------------------------------------------------------------------
    def _enter(self, name: str, is_span: bool) -> list:
        stack, _ = self._state()
        if stack:
            parent = stack[-1]
        else:
            parent = self._open[-1] if self._open else None
        frame = [name, 0.0, 0.0, parent, None, threading.get_ident()]
        if is_span:
            frame[4] = next(self._ids)
            self._open.append(frame)
        stack.append(frame)
        frame[1] = _perf()
        return frame

    def _exit(self, frame: list) -> float:
        end = _perf()
        stack, aggs = self._state()
        stack.pop()
        elapsed = end - frame[1]
        self_time = elapsed - frame[2]
        agg = aggs.get(frame[0])
        if agg is None:
            agg = aggs[frame[0]] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += elapsed
        agg[2] += self_time
        parent = frame[3]
        if parent is not None:
            if parent[5] == frame[5]:
                parent[2] += elapsed
            else:
                with self._cross_lock:
                    parent[2] += elapsed
        if frame[4] is not None:
            self._open.remove(frame)
            self.spans.append(
                {
                    "id": frame[4],
                    "name": frame[0],
                    "start": frame[1],
                    "end": end,
                    "parent": parent[4] if parent is not None else None,
                    "self_s": self_time,
                }
            )
        return elapsed

    def span(self, name: str) -> "_SpanContext":
        """Context manager recording one unit of work as a span."""
        return _SpanContext(self, name)

    # ------------------------------------------------------------------
    # Wrapping
    # ------------------------------------------------------------------
    def wrap(
        self,
        name: Any,
        fn: Callable,
        *,
        span: bool = False,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """A timing wrapper around ``fn``.

        ``name`` is the probe name, or a callable mapping the call's
        arguments to one (used for per-backend analysis names).  ``after``
        receives ``(result, args, kwargs)`` once the call returned, outside
        the measured time, to update counters.
        """
        enter = self._enter
        exit_ = self._exit

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name(*args) if callable(name) else name, span)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if after is not None:
                after(result, args, kwargs)
            return result

        return wrapper

    def patch_method(self, cls: type, attr: str, name: Any, **options: Any) -> None:
        """Wrap ``cls.attr`` (plain, class or static method) in place."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement: Any = classmethod(self.wrap(name, raw.__func__, **options))
        elif isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrap(name, raw.__func__, **options))
        else:
            replacement = self.wrap(name, raw, **options)
        setattr(cls, attr, replacement)
        self._patches.append((cls, attr, raw))

    def patch_function(self, module: Any, attr: str, name: Any, **options: Any) -> None:
        """Wrap a module-level function in every ``repro`` module holding it.

        Modules that imported the function by name keep their own binding,
        so each of those bindings is replaced too.
        """
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **options)
        for module_name, holder in list(sys.modules.items()):
            if holder is None or not module_name.startswith("repro"):
                continue
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    self._patches.append((holder, key, original))

    def patch_binding(self, module: Any, attr: str, name: Any, **options: Any) -> None:
        """Wrap one module's binding of a function, leaving other holders."""
        original = getattr(module, attr)
        setattr(module, attr, self.wrap(name, original, **options))
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def aggregates(self) -> Dict[str, Dict[str, float]]:
        """Per-probe ``calls``/``total_s``/``self_s`` merged over threads."""
        merged: Dict[str, List[float]] = {}
        with self._register_lock:
            tables = list(self._thread_aggs)
        for table in tables:
            for name, (calls, total, self_time) in table.items():
                agg = merged.setdefault(name, [0, 0.0, 0.0])
                agg[0] += calls
                agg[1] += total
                agg[2] += self_time
        return {
            name: {"calls": calls, "total_s": total, "self_s": self_time}
            for name, (calls, total, self_time) in merged.items()
        }

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line (times relative to the first)."""
        origin = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as handle:
            for span in sorted(self.spans, key=lambda s: s["start"]):
                record = dict(span)
                record["start"] = round(span["start"] - origin, 9)
                record["end"] = round(span["end"] - origin, 9)
                record["self_s"] = round(span["self_s"], 9)
                handle.write(json.dumps(record) + "\n")


class _SpanContext:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._frame: Optional[list] = None

    def __enter__(self) -> "_SpanContext":
        self._frame = self._tracer._enter(self._name, True)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self._tracer._exit(self._frame)


class NullTracer:
    """Stand-in for untraced rounds: records nothing."""

    def span(self, name: str) -> "NullTracer":
        return self

    def __enter__(self) -> "NullTracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        pass
