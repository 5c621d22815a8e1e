"""Engine hot-loop micro-benchmarks: the floor under every figure.

Every experiment is ultimately a stream of ``Engine`` events, so a
regression here taxes the whole suite. The floor below is deliberately
conservative, but ratcheted: the optimized loop sustains ~1.3M
events/sec on a 1-vCPU container and BENCH_PR6.json recorded ~2.6M on
an unloaded host, so 500k events/sec leaves 2.6–5x headroom for machine
noise while still catching a real hot-path regression (e.g. a heap
entry compared by a Python ``__lt__`` instead of in C). The old 150k
floor predated the PR-3/PR-6 hot loop and no longer enforced progress.
"""

import time

from repro.sim.engine import Engine

from conftest import simulate_once

#: minimum acceptable post-and-fire throughput (see module docstring)
EVENTS_PER_SEC_FLOOR = 500_000


def _pingpong(n):
    engine = Engine()

    def tick():
        if engine.events_processed < n:
            engine.post(1.0, tick)

    engine.post(0.0, tick)
    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return engine.events_processed / elapsed


def test_engine_event_throughput(benchmark):
    rate = simulate_once(benchmark, lambda: _pingpong(200_000))
    benchmark.extra_info["events_per_sec"] = f"{rate:,.0f}"
    assert rate >= EVENTS_PER_SEC_FLOOR


def test_engine_throughput_with_cancellation_churn(benchmark):
    """Timeout-style load: most posted events are cancelled, exercising
    the lazy-prune path alongside the fast pop loop."""

    def run():
        engine = Engine()
        n = 50_000

        def tick():
            if engine.events_processed < n:
                doomed = engine.post(5.0, lambda: None)
                engine.post(1.0, tick)
                engine.cancel(doomed)

        engine.post(0.0, tick)
        start = time.perf_counter()
        engine.run()
        return engine.events_processed / (time.perf_counter() - start)

    rate = simulate_once(benchmark, run)
    benchmark.extra_info["events_per_sec"] = f"{rate:,.0f}"
    # cancellation roughly halves useful throughput; keep half the floor
    assert rate >= EVENTS_PER_SEC_FLOOR / 2
