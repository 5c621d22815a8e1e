"""Null-tracer, live-tracer and TraceSession behavior, including the
determinism guarantee: tracing records but never charges simulated time."""

import pytest

from repro.kernel import Kernel
from repro.sim.engine import Engine
from repro.trace import (NULL_TRACER, CounterSet, NullTracer, TraceSession,
                         Tracer)


def test_engine_defaults_to_null_tracer():
    engine = Engine()
    assert engine.tracer is NULL_TRACER
    assert not engine.tracer.enabled


def test_null_tracer_is_inert():
    tracer = NullTracer()
    span = tracer.begin("x", "cat")
    tracer.end(span)
    tracer.instant("y")
    tracer.count("z", 5)
    tracer.complete("w", "cat", 0.0, 10.0)
    # same shared sentinel span every time, nothing recorded anywhere
    assert tracer.begin("other", "cat") is span


def test_live_tracer_records_simulated_timestamps():
    engine = Engine()
    tracer = Tracer(engine, label="t")
    captured = {}

    def work():
        captured["span"] = tracer.begin("op", "test", track="main")

    def finish():
        tracer.end(captured["span"], args={"ok": True})

    engine.post(100, work)
    engine.post(250, finish)
    engine.run()
    span = captured["span"]
    assert span.start_ns == 100
    assert span.end_ns == 250
    assert span.duration_ns == 150
    assert span.args == {"ok": True}
    assert not span.open
    assert tracer.closed_spans() == [span]
    assert tracer.spans_named("op") == [span]


def test_end_is_idempotent():
    engine = Engine()
    tracer = Tracer(engine)
    span = tracer.begin("op")
    engine.post(50, lambda: tracer.end(span))
    engine.run()
    tracer.end(span)  # second end at a later time must not move end_ns
    assert span.end_ns == 50


def test_instants_and_counters():
    engine = Engine()
    tracer = Tracer(engine)
    engine.post(10, lambda: tracer.instant("fault", "codoms",
                                           track="codoms"))
    engine.run()
    tracer.count("hits")
    tracer.count("hits", 2)
    assert len(tracer.instants) == 1
    assert tracer.instants[0].ts_ns == 10
    assert tracer.counters.get("hits") == 3


def test_clear_drops_recordings():
    tracer = Tracer(Engine())
    tracer.end(tracer.begin("warmup"))
    tracer.instant("x")
    tracer.count("c")
    tracer.clear()
    assert tracer.spans == []
    assert tracer.instants == []
    assert len(tracer.counters) == 0


def test_counter_set_semantics():
    counters = CounterSet()
    counters.add("a", 2)
    counters.add("a")
    counters.set_max("b", 10)
    counters.set_max("b", 4)  # high-water mark: no decrease
    assert counters.get("a") == 3
    assert counters.get("b") == 10
    assert "a" in counters and "missing" not in counters
    with pytest.raises(ValueError):
        counters.add("a", -1)
    other = CounterSet()
    other.add("a", 7)
    counters.merge(other)
    assert counters.as_dict() == {"a": 10, "b": 10}


def test_session_attaches_tracer_to_kernels_built_inside():
    with TraceSession() as session:
        kernel = Kernel(num_cpus=1)
        assert kernel.tracer.enabled
        assert kernel.engine.tracer is session.tracers()[0]
    # outside the session, new kernels stay untraced
    assert not Kernel(num_cpus=1).tracer.enabled


def test_session_is_exclusive():
    with TraceSession():
        with pytest.raises(RuntimeError):
            TraceSession().__enter__()
    assert TraceSession.current() is None


def test_session_collects_one_tracer_per_kernel():
    with TraceSession() as session:
        Kernel(num_cpus=1)
        Kernel(num_cpus=1)
    labels = [tracer.label for tracer in session.tracers()]
    assert labels == ["run1", "run2"]
    assert session.span_count() == 0


def test_traced_run_records_scheduler_spans_and_harvests_counters():
    with TraceSession() as session:
        kernel = Kernel(num_cpus=1)
        proc = kernel.spawn_process("worker")

        def body(t):
            yield from t.compute(100)

        kernel.spawn(proc, body, name="w0", pin=0)
        kernel.run()
    session.finalize()
    (tracer,) = session.tracers()
    oncpu = [s for s in tracer.closed_spans() if s.category == "oncpu"]
    assert len(oncpu) >= 1
    assert oncpu[0].duration_ns > 0
    merged = session.merged_counters()
    assert merged.get("engine.events_processed") > 0


def test_finalize_is_idempotent():
    with TraceSession() as session:
        kernel = Kernel(num_cpus=1)
        proc = kernel.spawn_process("p")

        def body(t):
            yield from t.compute(10)

        kernel.spawn(proc, body, pin=0)
        kernel.run()
    session.finalize()
    first = session.merged_counters().as_dict()
    session.finalize()
    assert session.merged_counters().as_dict() == first


def test_tracing_does_not_change_simulated_time():
    """The determinism guarantee: enabled tracing must not move the clock
    or the charged-time accounting by a single nanosecond."""

    def simulate():
        kernel = Kernel(num_cpus=2)
        pa = kernel.spawn_process("a")
        pb = kernel.spawn_process("b")

        def body(t):
            for _ in range(5):
                yield from t.compute(37)
                yield t.yield_cpu()

        kernel.spawn(pa, body, pin=0)
        kernel.spawn(pb, body, pin=0)
        kernel.run()
        return kernel.engine.now(), kernel.engine.events_processed

    untraced = simulate()
    with TraceSession() as session:
        traced = simulate()
    assert traced == untraced
    assert session.span_count() > 0  # tracing really was on
