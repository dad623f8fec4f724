"""In-process span tracer for the benchmark's traced run.

The tracer times calls into the program's public functions by replacing
them, for the duration of one traced pass, with thin wrappers installed
from the benchmark's own files. The program's source is not touched and
the wrappers are removed when the pass ends, so untraced passes run the
program exactly as users do.

Two wrapper kinds exist:

* a *span* wrapper records ``(id, name, start, end, parent)`` per call,
  with the parent taken from the call stack of the load-generating
  thread; spans stay in memory and are written out when the run ends;
* a *count* wrapper only increments a counter. It is used on the hottest
  calls (``PlanningState.evaluate``, ``FlowPool.advance``), where a span
  per call would cost more than the call itself.

Span names are ``<layer>.<what>``; the layer is the program's top-level
module (``scheduling``, ``simulation``, ...). A span's *self time* is its
duration minus the part of it its child spans cover. Every span belongs
to one layer, the pass itself is the root span ``run``, so the layers'
self times plus the root's self time (the unattributed residual) add up
to the pass's wall time.

The program's own tracer (:class:`repro.obs.tracing.Tracer`) is not used
here, for three reasons. A span there costs about 4.3 µs against 1.6 µs
for the wrapper below (a no-op method, CPython 3, 2-CPU x86-64 VM),
because it reads the wall clock and the thread name, builds a dataclass
with an attribute dict and takes a lock per span; on the serve pass's
tens of thousands of sub-millisecond spans that difference would be
charged to the layers. It drops spans beyond ``max_spans``. And it
records spans from every thread, while the split here follows only the
load-generating thread; installing it as the program's global tracer
would also switch on the program's own spans, changing the work measured.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import (
    Any, Callable, Dict, Iterable, Iterator, List, NamedTuple, Optional, Tuple,
)

__all__ = ["Span", "Tracer", "covered_length", "self_times", "layer_split"]

#: Name of the span that covers one whole traced pass.
ROOT = "run"


class Span(NamedTuple):
    """One timed call: ``parent`` is 0 for a span opened at top level."""

    id: int
    name: str
    start: float
    end: float
    parent: int

    @property
    def duration(self) -> float:
        """Seconds from start to end."""
        return self.end - self.start

    @property
    def layer(self) -> str:
        """The layer a span's self time is charged to."""
        return self.name.split(".", 1)[0]


class Tracer:
    """Collects spans and counts from wrappers it installs.

    Only calls made on the thread that created the tracer are recorded;
    calls from other threads pass through untimed, so a background thread
    cannot corrupt the parent stack.
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = [0]
        self._ids = itertools.count(1)
        self._thread = threading.get_ident()
        self._patches: List[Tuple[Any, str, Any, bool]] = []

    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Time the ``with`` body as one span; yields the span id."""
        span_id = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent))

    def _span_wrapper(
        self, fn: Callable, name: str, before: Optional[Callable] = None
    ) -> Callable:
        # The body of span() inlined: a generator-based context manager
        # per call would double the cost on hot paths.
        spans, stack, ids = self.spans, self._stack, self._ids
        thread, clock = self._thread, time.perf_counter

        def traced(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != thread:
                return fn(*args, **kwargs)
            span_id = next(ids)
            parent = stack[-1]
            stack.append(span_id)
            start = clock()
            try:
                if before is not None:
                    before(*args, **kwargs)
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append(Span(span_id, name, start, end, parent))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def _count_wrapper(self, fn: Callable, name: str) -> Callable:
        counts = self.counts

        def counted(*args: Any, **kwargs: Any) -> Any:
            counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn  # type: ignore[attr-defined]
        return counted

    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        raw = inspect.getattr_static(owner, attr)
        if isinstance(raw, classmethod):
            new: Any = classmethod(make(raw.__func__))
        elif isinstance(raw, staticmethod):
            new = staticmethod(make(raw.__func__))
        else:
            new = make(raw)
        own = attr in vars(owner)
        self._patches.append((owner, attr, raw, own))
        setattr(owner, attr, new)

    def wrap_span(
        self, owner: Any, attr: str, name: str,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before`` is called with the call's arguments inside the span,
        just ahead of the original; the benchmark uses it to read state
        off an object (a pool's worker stats) before a call changes it.
        """
        self._patch(owner, attr, lambda fn: self._span_wrapper(fn, name, before))

    def wrap_count(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a call-counting wrapper."""
        self._patch(owner, attr, lambda fn: self._count_wrapper(fn, name))

    def restore(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._patches:
            owner, attr, raw, own = self._patches.pop()
            if own:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-data form, written to the run record when the run ends."""
        return {
            "run_id": self.run_id,
            "fields": list(Span._fields),
            "spans": [list(s) for s in self.spans],
            "counts": dict(self.counts),
        }


# ----------------------------------------------------------------------
def covered_length(intervals: Iterable[Tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        elif b > cur_b:
            cur_b = b
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Iterable[Span]) -> Dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    spans = list(spans)
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered_length(children[s.id], s.start, s.end)
        for s in spans
    }


def layer_split(spans: Iterable[Span]) -> Tuple[Dict[str, float], float, float]:
    """Per-layer self time, the residual, and the wall time of one pass.

    ``spans`` must hold exactly one root span named :data:`ROOT`; its self
    time is the residual (time inside the pass that no layer span covers).
    Returns ``(layers, residual, wall)`` with ``sum(layers) + residual ==
    wall`` up to float rounding.
    """
    spans = list(spans)
    roots = [s for s in spans if s.name == ROOT]
    if len(roots) != 1:
        raise ValueError(f"expected one {ROOT!r} span, got {len(roots)}")
    selfs = self_times(spans)
    layers: Dict[str, float] = defaultdict(float)
    for s in spans:
        if s.name != ROOT:
            layers[s.layer] += selfs[s.id]
    root = roots[0]
    return dict(layers), selfs[root.id], root.duration
