"""In-memory span recorder for the benchmark's traced mode.

The recorder wraps public functions of the ``repro`` package from outside:
module functions are replaced in every loaded ``repro.*`` module that binds
them, methods are replaced on their class, and backend ops on the resolved
backend instance.  The program's own tracer (``repro.obs.trace.TRACER``)
stays off.

Every wrapped call updates exact per-name aggregates (calls, inclusive
seconds) and the self time of its layer: a span's duration minus the part of
it covered by wrapped child calls on the same thread.  Calls of names marked
``event=True`` are also kept as individual spans (name, start, end, parent),
up to a cap, for the Chrome-trace file; hot leaf calls (hundreds of thousands
on large designs) only feed the aggregates.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Most individual spans kept for the Chrome trace; aggregates stay exact.
MAX_EVENTS = 50_000


class _Frame:
    __slots__ = ("span_id", "child_s")

    def __init__(self, span_id: int) -> None:
        self.span_id = span_id
        self.child_s = 0.0


class Recorder:
    """Aggregates and spans of the wrapped calls of one traced run."""

    def __init__(self) -> None:
        self.active = False
        self.calls: Dict[str, int] = defaultdict(int)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.values: Dict[str, float] = defaultdict(float)
        #: (span_id, parent_id, name, layer, thread, start, end)
        self.events: List[Tuple[int, int, str, str, int, float, float]] = []
        self.dropped_events = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        func: Callable,
        name: str,
        layer: str,
        event: bool = True,
        on_result: Optional[Callable] = None,
    ) -> Callable:
        """``func`` wrapped to record a span ``name`` in ``layer``.

        ``on_result(recorder, args, kwargs, result)`` runs after each
        recorded call, for counts derived from arguments or results.
        """
        recorder = self
        clock = time.monotonic

        @functools.wraps(func)
        def traced(*args, **kwargs):
            if not recorder.active:
                return func(*args, **kwargs)
            stack = recorder._stack()
            frame = _Frame(next(recorder._ids))
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                recorder.calls[name] += 1
                recorder.total_s[name] += duration
                recorder.self_s[layer] += duration - frame.child_s
                if parent is not None:
                    parent.child_s += duration
                if event:
                    if len(recorder.events) < MAX_EVENTS:
                        recorder.events.append((
                            frame.span_id,
                            parent.span_id if parent is not None else 0,
                            name,
                            layer,
                            threading.get_ident(),
                            start,
                            end,
                        ))
                    else:
                        recorder.dropped_events += 1
            if on_result is not None:
                on_result(recorder, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def patch_function(self, module_name: str, attr: str, name: str, layer: str, **options) -> None:
        """Wrap a module-level function wherever a ``repro`` module binds it."""
        original = getattr(importlib.import_module(module_name), attr)
        wrapped = self.wrap(original, name, layer, **options)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, value))
                    setattr(module, key, wrapped)

    def patch_method(self, cls: type, attr: str, name: str, layer: str, **options) -> None:
        """Wrap a method on the class that defines it."""
        original = cls.__dict__[attr]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, self.wrap(original, name, layer, **options))

    def patch_instance(self, obj: object, attr: str, name: str, layer: str, **options) -> None:
        """Wrap a bound method on one instance (shadows the class attribute)."""
        original = getattr(obj, attr)
        had_own = attr in vars(obj)
        self._patches.append((obj, attr, original if had_own else None))
        setattr(obj, attr, self.wrap(original, name, layer, **options))

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.active = False
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # ------------------------------------------------------------------ #
    # Output
    # ------------------------------------------------------------------ #
    def chrome_trace(self, path: str, origin: float) -> None:
        """Write the kept spans as Chrome-trace JSON (``chrome://tracing``).

        ``origin`` is the ``time.monotonic`` reading that becomes ``ts`` 0.
        """
        threads: Dict[int, int] = {}
        events = []
        for span_id, parent_id, name, layer, thread, start, end in self.events:
            tid = threads.setdefault(thread, len(threads) + 1)
            events.append({
                "name": name,
                "cat": layer,
                "ph": "X",
                "pid": 1,
                "tid": tid,
                "ts": round((start - origin) * 1e6, 3),
                "dur": round((end - start) * 1e6, 3),
                "args": {"id": span_id, "parent": parent_id},
            })
        payload = {
            "traceEvents": events,
            "otherData": {
                "kept_spans": len(events),
                "dropped_spans": self.dropped_events,
                "truncated": self.dropped_events > 0,
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


def wrapper_cost_s(repeats: int = 5, calls: int = 20_000) -> float:
    """Median extra seconds one recorded call costs over a bare call."""
    recorder = Recorder()

    def leaf(value):
        return value

    wrapped = recorder.wrap(leaf, "calib", "bench", event=False)
    recorder.active = True
    costs = []
    for _ in range(repeats):
        start = time.perf_counter()
        for index in range(calls):
            leaf(index)
        bare = time.perf_counter() - start
        start = time.perf_counter()
        for index in range(calls):
            wrapped(index)
        costs.append((time.perf_counter() - start - bare) / calls)
    recorder.active = False
    costs.sort()
    return max(costs[len(costs) // 2], 0.0)
