"""Unit tests for the discrete-event engine."""

import sys

import pytest

from repro.errors import SimulationError
from repro.sim.engine import Engine


def test_clock_starts_at_zero():
    assert Engine().now() == 0.0


def test_events_fire_in_time_order():
    engine = Engine()
    fired = []
    engine.post(30, lambda: fired.append("c"))
    engine.post(10, lambda: fired.append("a"))
    engine.post(20, lambda: fired.append("b"))
    engine.run()
    assert fired == ["a", "b", "c"]


def test_ties_fire_in_posting_order():
    engine = Engine()
    fired = []
    for name in "abcde":
        engine.post(5, lambda n=name: fired.append(n))
    engine.run()
    assert fired == list("abcde")


def test_clock_advances_to_event_time():
    engine = Engine()
    seen = []
    engine.post(42.5, lambda: seen.append(engine.now()))
    engine.run()
    assert seen == [42.5]
    assert engine.now() == 42.5


def test_post_during_run_is_processed():
    engine = Engine()
    fired = []

    def first():
        fired.append("first")
        engine.post(5, lambda: fired.append("second"))

    engine.post(10, first)
    engine.run()
    assert fired == ["first", "second"]
    assert engine.now() == 15


def test_cancel_prevents_firing():
    engine = Engine()
    fired = []
    event = engine.post(10, lambda: fired.append("x"))
    engine.post(5, lambda: engine.cancel(event))
    engine.run()
    assert fired == []


def test_cancel_twice_is_harmless():
    engine = Engine()
    event = engine.post(10, lambda: None)
    engine.cancel(event)
    engine.cancel(event)
    engine.run()


def test_run_until_stops_and_advances_clock():
    engine = Engine()
    fired = []
    engine.post(10, lambda: fired.append("early"))
    engine.post(100, lambda: fired.append("late"))
    engine.run(until_ns=50)
    assert fired == ["early"]
    assert engine.now() == 50
    engine.run()
    assert fired == ["early", "late"]


def test_run_until_advances_clock_when_queue_drains():
    engine = Engine()
    engine.post(10, lambda: None)
    engine.run(until_ns=1000)
    assert engine.now() == 1000


def test_negative_delay_rejected():
    engine = Engine()
    with pytest.raises(SimulationError):
        engine.post(-1, lambda: None)


def test_post_at_in_past_rejected():
    engine = Engine()
    engine.post(10, lambda: None)
    engine.run()
    with pytest.raises(SimulationError):
        engine.post_at(5, lambda: None)


def test_pending_counts_only_live_events():
    engine = Engine()
    keep = engine.post(10, lambda: None)
    drop = engine.post(20, lambda: None)
    engine.cancel(drop)
    assert engine.pending() == 1
    assert keep is not drop


def test_max_events_budget():
    engine = Engine()
    fired = []
    for i in range(5):
        engine.post(i + 1, lambda i=i: fired.append(i))
    engine.run(max_events=2)
    assert fired == [0, 1]


def test_events_processed_counter():
    engine = Engine()
    for i in range(3):
        engine.post(i, lambda: None)
    engine.run()
    assert engine.events_processed == 3


def test_run_not_reentrant():
    engine = Engine()
    errors = []

    def reenter():
        try:
            engine.run()
        except SimulationError as exc:
            errors.append(exc)

    engine.post(1, reenter)
    engine.run()
    assert len(errors) == 1


def test_max_events_does_not_skip_clock_past_pending_work():
    # A max_events stop must not advance the clock to until_ns when
    # events before until_ns are still queued — resuming would otherwise
    # fire them "in the past".
    engine = Engine()
    fired = []
    for i in range(4):
        engine.post(10 * (i + 1), lambda i=i: fired.append(i))
    engine.run(until_ns=100, max_events=2)
    assert fired == [0, 1]
    assert engine.now() == 30  # clamped to the next pending event (t=30)
    engine.run(until_ns=100)
    assert fired == [0, 1, 2, 3]
    assert engine.now() == 100


def test_max_events_with_until_advances_when_queue_drains():
    engine = Engine()
    engine.post(10, lambda: None)
    engine.run(until_ns=500, max_events=5)
    assert engine.now() == 500


def test_run_until_skips_cancelled_head_when_advancing():
    engine = Engine()
    dead = engine.post(20, lambda: None)
    engine.post(80, lambda: None)
    engine.cancel(dead)
    engine.run(until_ns=50, max_events=0)
    # the cancelled event at t=20 must not pin the clock
    assert engine.now() == 50


def test_cancel_after_fire_is_harmless():
    engine = Engine()
    fired = []
    event = engine.post(5, lambda: fired.append("x"))
    engine.run()
    engine.cancel(event)  # too late; must not corrupt bookkeeping
    assert fired == ["x"]
    assert engine.pending() == 0
    engine.post(1, lambda: None)
    assert engine.pending() == 1


def test_pending_is_exact_under_heavy_cancellation():
    engine = Engine()
    events = [engine.post(i + 1, lambda: None) for i in range(200)]
    for event in events[::2]:
        engine.cancel(event)
    assert engine.pending() == 100
    engine.run()
    assert engine.events_processed == 100


def test_prune_shrinks_internal_queue():
    engine = Engine()
    events = [engine.post(i + 1, lambda: None) for i in range(128)]
    for event in events[:100]:
        engine.cancel(event)
    # >half cancelled on a >=64-entry queue triggers the lazy prune
    assert len(engine._queue) < 128
    assert engine.pending() == 28
    fired = []
    engine.post(1000, lambda: fired.append("tail"))
    engine.run()
    assert fired == ["tail"]
    assert engine.events_processed == 29


# -- hot-path hardening: handles, bookkeeping, clamp interleaving -----------

def _bookkeeping_exact(engine):
    """Tombstoned entries still in the heap match the engine's count."""
    return sum(1 for entry in engine._queue if entry[2] is None) \
        == engine._cancelled_in_queue


def test_clamp_cancel_interleaving():
    """_next_live_time, run() and _prune() share the cancelled-event
    accounting; interleaving them must keep it exact."""
    engine = Engine()
    fired = []
    events = [engine.post(10 * (i + 1), lambda i=i: fired.append(i))
              for i in range(40)]
    for event in events[:5]:          # cancel the whole leading edge
        engine.cancel(event)
    engine.run(until_ns=5, max_events=0)   # clamp discards dead heads
    assert engine.now() == 5
    assert _bookkeeping_exact(engine)
    assert engine.pending() == 35
    engine.run(max_events=3)               # fire 5..7 (t=60..80)
    assert fired == [5, 6, 7]
    for event in events[10:30]:            # cancel a mid-queue band
        engine.cancel(event)
    assert _bookkeeping_exact(engine)
    engine.run(until_ns=95, max_events=0)  # clamp again: head t=90 live
    assert engine.now() == 90
    engine.run(max_events=1)               # fires 8 (t=90)
    assert fired == [5, 6, 7, 8]
    for event in events[30:]:              # push past the prune threshold
        engine.cancel(event)
    assert _bookkeeping_exact(engine)
    engine.run(until_ns=10_000)
    assert fired == [5, 6, 7, 8, 9]
    assert engine.pending() == 0
    assert _bookkeeping_exact(engine)


def test_callback_triggered_prune_does_not_stall_run():
    """A callback may cancel enough events to trigger _prune() while
    run() is mid-loop; the rebuilt heap must keep draining."""
    engine = Engine()
    fired = []
    victims = [engine.post(50 + i, lambda: fired.append("victim"))
               for i in range(100)]

    def massacre():
        fired.append("massacre")
        for event in victims:
            engine.cancel(event)

    engine.post(1, massacre)
    engine.post(200, lambda: fired.append("tail"))
    engine.run()
    assert fired == ["massacre", "tail"]
    assert engine.pending() == 0
    assert _bookkeeping_exact(engine)


def test_held_handles_are_never_recycled():
    engine = Engine()
    held = [engine.post(i + 1, lambda: None) for i in range(20)]
    engine.run()
    for handle in held:                    # every one already fired
        engine.cancel(handle)
    assert engine.pending() == 0
    assert _bookkeeping_exact(engine)


def test_stale_cancel_cannot_kill_a_recycled_event():
    """A handle kept after its event fired must stay inert once new
    events are being scheduled."""
    engine = Engine()
    fired = []
    stale = engine.post(1, lambda: fired.append("old"))
    engine.post(2, lambda: fired.append("churn"))   # handle not kept
    engine.run()
    engine.post(5, lambda: fired.append("new"))
    engine.cancel(stale)                   # must be a no-op
    assert engine.pending() == 1
    engine.run()
    assert fired == ["old", "churn", "new"]
    assert _bookkeeping_exact(engine)


def test_recycled_event_reuse_preserves_order_and_identity():
    engine = Engine()
    fired = []

    def burst(tag, n):
        for i in range(n):
            engine.post(float(i), lambda t=tag, i=i: fired.append((t, i)))

    burst("a", 50)
    engine.run()
    burst("b", 50)                         # reuses pooled events
    engine.run()
    assert fired == [("a", i) for i in range(50)] \
        + [("b", i) for i in range(50)]


def _post_and_fire(engine, n):
    def tick():
        if engine.events_processed < n:
            engine.post(1.0, tick)

    engine.post(0.0, tick)


def _cancel_churn(engine, n):
    """Timeout-style load: every tick posts and cancels a doomed event,
    exercising the tombstone path alongside the pop loop."""
    def tick():
        if engine.events_processed < n:
            doomed = engine.post(5.0, lambda: None)
            engine.post(1.0, tick)
            engine.cancel(doomed)

    engine.post(0.0, tick)


@pytest.mark.parametrize("loop, max_calls", [(_post_and_fire, 3),
                                             (_cancel_churn, 6)])
def test_hot_loop_python_calls_per_event(loop, max_calls):
    """The engine's hot-path floor, counted rather than timed.

    Per fired event the loop runs the callback and ``post``/``post_at``
    (plus ``cancel`` under churn); the heap compares its list entries in
    C, so nothing else is a Python-level call. A heap entry compared by
    a Python ``__lt__`` adds calls to every push and pop and fails here.
    """
    engine = Engine()
    loop(engine, 10_000)
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        engine.run()
    finally:
        sys.setprofile(None)
    assert engine.events_processed == 10_000
    assert calls <= max_calls * engine.events_processed
