"""Span tracing keyed to simulated time.

A :class:`Tracer` hangs off one :class:`~repro.sim.engine.Engine` and
records begin/end spans, instant events and named counters, all
timestamped with the engine's *simulated* nanosecond clock — never
wall-time. The default tracer on every engine is the shared
:data:`NULL_TRACER`, whose methods are no-ops, so instrumented layers
can call it unconditionally without perturbing untraced runs.

A :class:`TraceSession` makes tracing span a whole experiment: while one
is active (``with TraceSession():``), every :class:`~repro.kernel.Kernel`
constructed attaches a live tracer to its engine and registers itself,
so the micro-benchmarks — which build a fresh kernel per primitive —
all land in one exportable trace, one "process" per benchmark run.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional

from repro.session import Session
from repro.trace.counters import CounterSet, harvest_kernel_counters


class Span:
    """One begin/end interval on a track, in simulated nanoseconds."""

    __slots__ = ("name", "category", "track", "tid", "start_ns", "end_ns",
                 "args")

    def __init__(self, name: str, category: str, track: str, tid: int,
                 start_ns: float, end_ns: Optional[float] = None,
                 args: Optional[dict] = None):
        self.name = name
        self.category = category
        #: display track ("process" in the Chrome trace): the simulated
        #: process/domain or CPU the span belongs to
        self.track = track
        #: thread id within the track
        self.tid = tid
        self.start_ns = start_ns
        self.end_ns = end_ns
        self.args = args

    @property
    def duration_ns(self) -> float:
        if self.end_ns is None:
            return 0.0
        return self.end_ns - self.start_ns

    @property
    def open(self) -> bool:
        return self.end_ns is None

    def __repr__(self) -> str:
        end = f"{self.end_ns:.1f}" if self.end_ns is not None else "open"
        return (f"<Span {self.category}:{self.name} [{self.track}/"
                f"{self.tid}] {self.start_ns:.1f}..{end}>")


class Instant:
    """A point event (a fault, a kill, an IPI) on a track."""

    __slots__ = ("name", "category", "track", "tid", "ts_ns", "args")

    def __init__(self, name: str, category: str, track: str, tid: int,
                 ts_ns: float, args: Optional[dict] = None):
        self.name = name
        self.category = category
        self.track = track
        self.tid = tid
        self.ts_ns = ts_ns
        self.args = args

    def __repr__(self) -> str:
        return (f"<Instant {self.category}:{self.name} [{self.track}] "
                f"t={self.ts_ns:.1f}>")


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Installed on every engine by default. Keeping the *interface*
    identical to :class:`Tracer` lets the kernel, the IPC primitives and
    the proxies call straight into it with no ``if tracing:`` branches on
    their fast paths — and keeps untraced runs byte-identical.
    """

    enabled = False
    label = ""

    _SPAN = Span("", "", "", 0, 0.0, 0.0)

    def begin(self, name: str, category: str = "", *, thread=None,
              track: str = "", args: Optional[dict] = None) -> Span:
        return self._SPAN

    def end(self, span: Span, args: Optional[dict] = None) -> None:
        pass

    def complete(self, name: str, category: str, start_ns: float,
                 end_ns: float, *, thread=None, track: str = "",
                 tid: int = 0, args: Optional[dict] = None) -> None:
        pass

    def instant(self, name: str, category: str = "", *, thread=None,
                track: str = "", args: Optional[dict] = None) -> None:
        pass

    def count(self, name: str, delta: float = 1) -> None:
        pass


#: the shared disabled tracer — one instance for every untraced engine
NULL_TRACER = NullTracer()


class Tracer:
    """A live tracer bound to one engine's simulated clock."""

    enabled = True

    def __init__(self, engine, label: str = ""):
        self.engine = engine
        #: display name of this traced run (the benchmark label); shown
        #: as the process-name prefix in the exported trace
        self.label = label
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.counters = CounterSet()

    # -- span recording -----------------------------------------------------

    def _track_of(self, thread, track: str) -> tuple:
        if thread is not None:
            process = getattr(thread, "current_process", None) \
                or thread.process
            return process.name, thread.tid
        return (track or "main"), 0

    def begin(self, name: str, category: str = "", *, thread=None,
              track: str = "", args: Optional[dict] = None) -> Span:
        """Open a span at the current simulated time; close with end()."""
        track_name, tid = self._track_of(thread, track)
        span = Span(name, category, track_name, tid, self.engine.now(),
                    None, args)
        self.spans.append(span)
        return span

    def end(self, span: Span, args: Optional[dict] = None) -> None:
        """Close a span at the current simulated time."""
        if span.end_ns is None:
            span.end_ns = self.engine.now()
        if args:
            span.args = dict(span.args or {}, **args)

    def complete(self, name: str, category: str, start_ns: float,
                 end_ns: float, *, thread=None, track: str = "",
                 tid: int = 0, args: Optional[dict] = None) -> None:
        """Record an already-finished interval (explicit timestamps)."""
        track_name, thread_id = self._track_of(thread, track)
        if thread is None and tid:
            thread_id = tid
        self.spans.append(Span(name, category, track_name, thread_id,
                               start_ns, end_ns, args))

    def instant(self, name: str, category: str = "", *, thread=None,
                track: str = "", args: Optional[dict] = None) -> None:
        track_name, tid = self._track_of(thread, track)
        self.instants.append(Instant(name, category, track_name, tid,
                                     self.engine.now(), args))

    def count(self, name: str, delta: float = 1) -> None:
        self.counters.add(name, delta)

    # -- inspection ---------------------------------------------------------

    def closed_spans(self) -> List[Span]:
        return [span for span in self.spans if not span.open]

    def spans_named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def clear(self) -> None:
        """Drop everything recorded so far (e.g. after a warm-up phase)."""
        self.spans.clear()
        self.instants.clear()
        self.counters = CounterSet()

    def __repr__(self) -> str:
        return (f"<Tracer '{self.label}' spans={len(self.spans)} "
                f"instants={len(self.instants)}>")


class TraceSession(Session):
    """Collects the tracers of every kernel built while it is active.

    The micro-benchmarks construct one fresh kernel per primitive; a
    session stitches those independent simulations into a single
    exportable trace. Only one session can be active at a time. While
    it is active, ``Kernel.__init__`` calls :meth:`attach` (the
    :data:`repro.session.KERNEL_HOOKS` list); exiting disarms it
    (already-attached tracers keep recording).
    """

    def __init__(self):
        self._serial = itertools.count(1)
        #: (kernel, tracer) pairs in attach order
        self.runs: List[tuple] = []
        self._finalized = False

    def attach(self, kernel, label: str = "") -> Tracer:
        tracer = Tracer(kernel.engine,
                        label or f"run{next(self._serial)}")
        kernel.engine.tracer = tracer
        self.runs.append((kernel, tracer))
        return tracer

    # -- results ------------------------------------------------------------

    def finalize(self) -> None:
        """Harvest aggregate kernel/CODOMs counters into each tracer.

        Idempotent; call once all simulations have finished, before
        exporting or summarizing.
        """
        if self._finalized:
            return
        self._finalized = True
        for kernel, tracer in self.runs:
            harvest_kernel_counters(kernel, tracer.counters)

    def tracers(self) -> List[Tracer]:
        return [tracer for _kernel, tracer in self.runs]

    def span_count(self) -> int:
        return sum(len(tracer.spans) for tracer in self.tracers())

    def merged_counters(self) -> CounterSet:
        merged = CounterSet()
        for tracer in self.tracers():
            merged.merge(tracer.counters)
        return merged

    def counters_by_label(self) -> Dict[str, CounterSet]:
        by_label: Dict[str, CounterSet] = {}
        for tracer in self.tracers():
            by_label.setdefault(tracer.label,
                                CounterSet()).merge(tracer.counters)
        return by_label

    def __repr__(self) -> str:
        return f"<TraceSession runs={len(self.runs)}>"
