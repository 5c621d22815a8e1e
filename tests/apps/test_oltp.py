"""Integration tests for the OLTP harness (small windows: these check
mechanics and orderings; the Figure 8 claims are asserted in
tests/experiments/test_ablation_fig08.py)."""

import pytest

from repro import units
from repro.apps.oltp import (DIPC, IDEAL, IN_MEMORY, LINUX, ON_DISK,
                             OltpParams, OltpResult, run_oltp)
from repro.trace.tracer import TraceSession

QUICK = dict(window_ns=40 * units.MS, warmup_ns=25 * units.MS,
             concurrency=8)


def quick_run(config, storage=IN_MEMORY, **overrides):
    params = dict(QUICK)
    params.update(overrides)
    return run_oltp(OltpParams(config=config, storage=storage, **params))


class TestMechanics:
    def test_all_configs_complete_operations(self):
        for config in (LINUX, DIPC, IDEAL):
            result = quick_run(config)
            assert result.operations > 20, config

    def test_unknown_config_rejected(self):
        with pytest.raises(ValueError):
            run_oltp(OltpParams(config="bsd"))

    def test_throughput_is_rate_of_operations(self):
        result = quick_run(IDEAL)
        window_min = QUICK["window_ns"] / units.MINUTE
        assert result.throughput_ops_min == pytest.approx(
            result.operations / window_min)

    def test_fractions_sum_to_one(self):
        result = quick_run(LINUX)
        assert result.user_fraction + result.kernel_fraction + \
            result.idle_fraction == pytest.approx(1.0, abs=1e-6)


class TestOrdering:
    """The headline qualitative results, at small scale."""

    def test_ideal_beats_linux(self):
        linux = quick_run(LINUX)
        ideal = quick_run(IDEAL)
        assert ideal.throughput_ops_min > 1.2 * linux.throughput_ops_min

    def test_dipc_close_to_ideal(self):
        """>94% of the ideal system efficiency (abstract)."""
        dipc = quick_run(DIPC)
        ideal = quick_run(IDEAL)
        assert dipc.throughput_ops_min >= 0.94 * ideal.throughput_ops_min

    def test_dipc_latency_far_below_linux(self):
        linux = quick_run(LINUX)
        dipc = quick_run(DIPC)
        assert dipc.mean_latency_ns < 0.7 * linux.mean_latency_ns

    def test_linux_burns_kernel_time_dipc_does_not(self):
        linux = quick_run(LINUX)
        dipc = quick_run(DIPC)
        assert linux.kernel_fraction > 0.10
        assert dipc.kernel_fraction < 0.05


class TestStorageModes:
    def test_on_disk_slower_than_in_memory(self):
        mem = quick_run(IDEAL, IN_MEMORY)
        disk = quick_run(IDEAL, ON_DISK)
        assert disk.throughput_ops_min < mem.throughput_ops_min

    def test_on_disk_has_more_idle(self):
        mem = quick_run(IDEAL, IN_MEMORY, concurrency=4)
        disk = quick_run(IDEAL, ON_DISK, concurrency=4)
        assert disk.idle_fraction > mem.idle_fraction


class TestDipcInternals:
    def test_dipc_run_uses_proxies_not_sockets(self):
        result = quick_run(DIPC)
        # sanity: operations completed with near-zero kernel share means
        # the fast path never entered the kernel IPC layer
        assert result.kernel_fraction < 0.05
        assert result.operations > 0

    def test_apl_cache_never_misses(self):
        """§7.1: even the largest benchmark uses 7 domains, well below the
        32 APL-cache entries, so a whole run never misses."""
        with TraceSession() as session:
            run_oltp(OltpParams(config=DIPC, concurrency=8,
                                window_ns=30 * units.MS,
                                warmup_ns=20 * units.MS))
        session.finalize()
        counters = session.merged_counters()
        assert counters.get("apl_cache.hits") > 0
        assert counters.get("apl_cache.misses") == 0

    def test_deterministic_given_seed(self):
        a = quick_run(IDEAL, seed=5)
        b = quick_run(IDEAL, seed=5)
        assert a.operations == b.operations
        assert a.mean_latency_ns == pytest.approx(b.mean_latency_ns)

    def test_concurrency_scales_ideal_until_saturation(self):
        thr = {c: quick_run(IDEAL, concurrency=c).throughput_ops_min
               for c in (2, 8)}
        assert thr[8] > 1.5 * thr[2]
