"""Per-layer spans recorded from the benchmark's own files.

:class:`LayerTracer` wraps each layer's entry point at the attribute the
service calls it through (``repro.runtime.service.effective_zdelta``,
``repro.datalog.plancache.seminaive_evaluate``, ...). While installed,
each wrapper records one :class:`Span` per call in memory: its name,
start, end, the span that was open when it started, and the id of the
benchmark round it belongs to. Nothing is patched outside
:meth:`LayerTracer.installed`, so untraced runs execute the program
unmodified.

Self time follows one rule for every layer: at each instant of a round
the time belongs to the deepest span open at that instant, or to the
round itself when none is open. A layer's self time is the time that
belongs to its spans. Units run on worker threads; their spans are
children of the executor span that was open on the main thread when
they started, and parallel units of one layer count their overlap once.
By construction the layer self times plus the unattributed remainder
add up to the round's measured latency; :func:`attribute` reports any
span that escaped its round, which would break that sum.
"""

from __future__ import annotations

import importlib
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from functools import wraps
from time import perf_counter
from typing import Any, Callable, Iterator

__all__ = [
    "ENGINE_POINTS",
    "LAYER_POINTS",
    "LayerTracer",
    "RoundAttribution",
    "Span",
    "attribute",
]

#: span name → the attributes that are that layer's entry point, as
#: ``(module, attribute path)``. A path with a dot names a method on a
#: class; the class object is shared by every module that imports it.
LAYER_POINTS: dict[str, tuple[tuple[str, str], ...]] = {
    "service.merge": (("repro.runtime.service", "merge_deltas"),),
    "zset.effective": (
        ("repro.runtime.service", "effective_zdelta"),
        ("repro.datalog.plancache", "effective_zdelta"),
    ),
    "plancache.compile": (
        ("repro.datalog.plancache", "CompiledProgramCache.compile"),
    ),
    "seminaive.evaluate": (
        ("repro.datalog.plancache", "seminaive_evaluate"),
    ),
    "compile.dag": (("repro.datalog.plancache", "build_compiled_update"),),
    "plancache.plan": (
        ("repro.datalog.plancache", "CompiledProgramCache.plan"),
    ),
    "executor.run": (("repro.runtime.executor", "RoundExecutor.run"),),
    "units.compute": (("repro.datalog.units", "WorkUnit.execute"),),
    "recorder.record": (("repro.runtime.service", "record_round"),),
    "verify.invariants": (
        ("repro.runtime.recorder", "RoundArtifacts.check"),
    ),
    "verify.materialize": (
        ("repro.datalog.units", "ExecutionPlan.materialization"),
    ),
    "service.facts_delta": (("repro.runtime.service", "_facts_delta"),),
}

#: the shadow maintenance engine's entry points, patched on the class
#: ``repro.datalog.bf.MAINTENANCE_STRATEGIES`` holds for the configured
#: strategy, which is the class ``make_engine`` builds
ENGINE_POINTS = {
    "maintenance.apply": "apply",
    "maintenance.snapshot": "snapshot",
}


@dataclass
class Span:
    """One recorded call of a layer entry point."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    round_id: int


class LayerTracer:
    """Records layer spans in memory while its wrappers are installed.

    ``on_outcome`` receives the round id and the
    :class:`~repro.runtime.executor.RoundOutcome` of each
    ``executor.run`` call, for the counts the executor reports there.
    """

    def __init__(
        self,
        maintenance: str | None = None,
        on_outcome: Callable[[int, Any], None] | None = None,
    ) -> None:
        self.maintenance = maintenance
        self.on_outcome = on_outcome
        self.spans: list[Span] = []
        self.round_id = -1
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._main_thread = threading.main_thread()
        self._ids = iter(range(1, 1 << 62))
        self._saved: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        callback = self.on_outcome if name == "executor.run" else None
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            elif tracer._main_stack:
                # a worker thread: the caller is whatever the main
                # thread has open (the executor span)
                parent = tracer._main_stack[-1]
            else:
                parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans.append(
                    Span(sid, name, start, end, parent, tracer.round_id)
                )
            if callback is not None:
                callback(tracer.round_id, result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, name: str) -> None:
        had = attr in vars(owner)
        original = vars(owner)[attr] if had else getattr(owner, attr)
        self._saved.append((owner, attr, had, original))
        setattr(owner, attr, self._wrap(name, getattr(owner, attr)))

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("layer wrappers are already installed")
        for name, points in LAYER_POINTS.items():
            for module, path in points:
                owner: object = importlib.import_module(module)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                self._patch(owner, attr, name)
        if self.maintenance is not None:
            from repro.datalog.bf import MAINTENANCE_STRATEGIES

            cls = MAINTENANCE_STRATEGIES[self.maintenance]
            for name, attr in ENGINE_POINTS.items():
                self._patch(cls, attr, name)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, had, original = self._saved.pop()
            if had:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    @contextmanager
    def installed(self) -> Iterator["LayerTracer"]:
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ----------------------------------------------------------------------
@dataclass
class RoundAttribution:
    """Where one round's measured latency went, in seconds."""

    latency: float
    #: layer span name → self time
    self_times: dict[str, float]
    #: time no layer span covered
    unattributed: float
    #: span time that fell outside the round's interval (should be 0)
    escaped: float
    #: calls per span name
    calls: dict[str, int]

    @property
    def residual(self) -> float:
        """``latency − Σ self − unattributed``; 0 up to float error."""
        return self.latency - sum(self.self_times.values()) - (
            self.unattributed
        )


def attribute(spans: list[Span], start: float, end: float) -> RoundAttribution:
    """Split the interval ``[start, end]`` among ``spans`` by self time.

    Each instant goes to the deepest span open at that instant (ties to
    the later-starting span), or to ``unattributed`` when none is open.
    """
    by_id = {s.id: s for s in spans}
    depth: dict[int, int] = {}

    def depth_of(s: Span) -> int:
        d = depth.get(s.id)
        if d is None:
            parent = by_id.get(s.parent) if s.parent is not None else None
            d = 1 if parent is None else depth_of(parent) + 1
            depth[s.id] = d
        return d

    calls: dict[str, int] = {}
    escaped = 0.0
    events: list[tuple[float, int, int]] = []
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        lo, hi = max(s.start, start), min(s.end, end)
        escaped += (s.end - s.start) - max(0.0, hi - lo)
        if hi > lo:
            events.append((lo, 1, s.id))
            events.append((hi, 0, s.id))
    events.sort()
    self_times: dict[str, float] = {}
    unattributed = 0.0
    active: dict[int, tuple[int, float]] = {}
    t = start
    for when, kind, sid in events:
        if when > t:
            if active:
                top = max(active, key=active.__getitem__)
                name = by_id[top].name
                self_times[name] = self_times.get(name, 0.0) + (when - t)
            else:
                unattributed += when - t
            t = when
        if kind:
            s = by_id[sid]
            active[sid] = (depth_of(s), s.start)
        else:
            active.pop(sid, None)
    unattributed += end - t
    return RoundAttribution(
        latency=end - start,
        self_times=self_times,
        unattributed=unattributed,
        escaped=escaped,
        calls=calls,
    )
