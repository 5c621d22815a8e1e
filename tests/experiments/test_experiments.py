"""Tests for the experiment drivers: structure, rendering, shapes."""

import pytest

from repro.experiments import fig01_breakdown, fig02_ipc_breakdown
from repro.experiments import fig05_sync_calls
from repro.experiments import fig06_argsize, fig07_driver, table01_arch
from repro.experiments import extras
from repro.runner.points import execute_spec
from repro.sim.stats import Block


def _fold(module, **params):
    """``module``'s typed result, computed through its own points."""
    specs = module.points(**params)
    return module.fold(specs, [execute_spec(spec) for spec in specs])


class TestTable1:
    def test_rows_render(self):
        specs = table01_arch.points()
        text = table01_arch.assemble(
            specs, [execute_spec(spec) for spec in specs])
        assert "CODOMs" in text and "CHERI" in text
        assert "call + return" in text


class TestFig1:
    @pytest.fixture(scope="class")
    def result(self):
        return _fold(fig01_breakdown, concurrency=64, scale=0.4)

    def test_dropping_isolation_buys_a_large_factor(self, result):
        """The motivating observation (paper: Ideal runs 1.92x faster)."""
        assert result.ipc_overhead_factor > 1.3

    def test_linux_burns_kernel_time_ideal_runs_user_code(self, result):
        assert result.linux.kernel_pct > 2 * result.ideal.kernel_pct
        assert result.ideal.user_pct > 75.0


class TestFig2:
    @pytest.fixture(scope="class")
    def rows(self):
        return _fold(fig02_ipc_breakdown, iters=12)

    def test_all_bars_present(self, rows):
        assert [r.label for r in rows] == list(fig02_ipc_breakdown.BARS)

    def test_rpc_dominated_by_user_code(self, rows):
        """Figure 2: RPC's block 1 (user) is its largest component."""
        rpc = next(r for r in rows if r.label == "rpc_same_cpu")
        assert rpc.blocks[Block.USER] > rpc.blocks[Block.KERNEL]
        assert rpc.blocks[Block.USER] > 0.4 * rpc.total_ns

    def test_sem_dominated_by_kernel_side(self, rows):
        sem = next(r for r in rows if r.label == "sem_same_cpu")
        kernelish = (sem.blocks[Block.KERNEL] + sem.blocks[Block.SCHED]
                     + sem.blocks[Block.PTSW] + sem.blocks[Block.SYSCALL]
                     + sem.blocks[Block.TRAMPOLINE])
        # §2.2: "About 80% of the time is instead spent in software"
        assert kernelish > 0.8 * sem.total_ns
        # ...not in the raw syscall and page-table switch
        assert sem.blocks[Block.SYSCALL] + sem.blocks[Block.PTSW] < \
            0.25 * sem.total_ns

    def test_bars_order_as_in_the_figure(self, rows):
        total = {r.label: r.total_ns for r in rows}
        assert total["rpc_cross_cpu"] > total["rpc_same_cpu"] > \
            total["sem_same_cpu"] > total["l4_same_cpu"]

    def test_cross_cpu_has_idle(self, rows):
        cross = next(r for r in rows if r.label == "sem_cross_cpu")
        assert cross.blocks[Block.IDLE] > 0

    def test_render(self, rows):
        text = fig02_ipc_breakdown.render(rows)
        assert "syscall+2xswapgs+sysret" in text


class TestFig5:
    @pytest.fixture(scope="class")
    def rows(self):
        return _fold(fig05_sync_calls, iters=12)

    def test_order_matches_figure(self, rows):
        assert [r.label for r in rows] == list(fig05_sync_calls.ORDER)

    def test_all_errors_within_15_percent(self, rows):
        for row in rows:
            assert abs(row.error_pct) < 15.0, row

    def test_headline_ratios(self, rows):
        ratios = fig05_sync_calls.headline_ratios(rows)
        assert ratios["dipc_vs_rpc"] == pytest.approx(64.12, rel=0.10)
        assert ratios["dipc_vs_l4"] == pytest.approx(8.87, rel=0.10)
        assert ratios["policy_spread"] == pytest.approx(8.47, rel=0.10)

    def test_render(self, rows):
        text = fig05_sync_calls.render(rows)
        assert "64.12x" in text

    def test_tail_latency_columns(self, rows):
        for row in rows:
            assert row.p50_ns > 0, row
            assert row.p50_ns <= row.p95_ns <= row.p99_ns, row
        assert "p95" in fig05_sync_calls.render(rows)


class TestFig6:
    @pytest.fixture(scope="class")
    def series(self):
        sizes = (1, 4096, 262144)
        return {s.label: s
                for s in _fold(fig06_argsize, sizes=sizes, iters=6)}

    def test_dipc_stays_flat(self, series):
        added = series["dipc_proc_low"].added_ns
        assert added[262144] < 4 * max(added[1], 1.0)
        high = series["dipc_proc_high"].added_ns
        assert high[262144] < high[1] + 500

    def test_copy_primitives_grow(self, series):
        for label in ("pipe_cross_cpu", "rpc_cross_cpu", "sem_cross_cpu"):
            added = series[label].added_ns
            assert added[262144] > added[1] + 10_000, label

    def test_rpc_adds_more_copies_than_pipe_than_sem(self, series):
        big = 262144
        assert series["rpc_cross_cpu"].added_ns[big] > \
            series["pipe_cross_cpu"].added_ns[big] > \
            series["sem_cross_cpu"].added_ns[big] > \
            series["dipc_proc_high"].added_ns[big] * 50

    def test_distance_grows_with_size(self, series):
        """The figure's annotation: dIPC's advantage grows with size."""
        gap_small = (series["pipe_cross_cpu"].added_ns[1]
                     - series["dipc_proc_high"].added_ns[1])
        gap_big = (series["pipe_cross_cpu"].added_ns[262144]
                   - series["dipc_proc_high"].added_ns[262144])
        assert gap_big > 5 * gap_small

    def test_tail_latency_table(self, series):
        for s in series.values():
            p50, p95, p99 = s.tail_ns[262144]
            assert 0 < p50 <= p95 <= p99, s.label
        text = fig06_argsize.render(list(series.values()))
        assert "tail latency at" in text


class TestFig7:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r.config: r for r in _fold(fig07_driver, iters=10)}

    def test_dipc_sustains_latency(self, rows):
        """§7.3: only dIPC sustains Infiniband's low latency (~1%)."""
        assert rows["dipc"].latency_overhead_pct[1] < 3.0

    def test_kernel_driver_about_10_percent(self, rows):
        assert 5.0 < rows["kernel"].latency_overhead_pct[1] < 20.0

    def test_ipc_exceeds_100_percent(self, rows):
        assert rows["semaphore"].latency_overhead_pct[1] > 100.0
        assert rows["pipe"].latency_overhead_pct[1] > 100.0

    def test_pipe_worse_than_semaphore(self, rows):
        """§7.3: unnecessary IPC semantics (pipe copies) slow things
        further relative to semaphores."""
        for size in (1, 64):
            assert rows["pipe"].latency_overhead_pct[size] > \
                rows["semaphore"].latency_overhead_pct[size], size

    def test_bandwidth_overhead_large_for_ipc_at_4k(self, rows):
        assert rows["pipe"].bandwidth_overhead_pct[4096] > 40.0
        assert rows["dipc"].bandwidth_overhead_pct[4096] < 5.0


class TestExtras:
    def test_stub_coopt_is_2_5x(self):
        assert extras.stub_coopt().speedup == pytest.approx(2.5)

    def test_crossing_breakeven_is_large(self):
        """§7.5: crossings could be ~14x slower before losing the win;
        our workload gives the same order of magnitude."""
        sens = extras.crossing_cost_sensitivity()
        assert 5.0 < sens.breakeven_slowdown <= 60.0

    def test_capability_overhead_near_paper(self):
        caps = extras.capability_load_overhead()
        assert caps.modeled_overhead_fraction == pytest.approx(0.12,
                                                               abs=0.05)
        assert caps.residual_speedup > 1.3

    def test_render(self):
        assert "setjmp" in extras.render()
