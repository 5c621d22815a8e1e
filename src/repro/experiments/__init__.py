"""Experiment drivers: one module per paper table/figure.

Run them all (or one) from the command line::

    python -m repro.experiments            # everything
    python -m repro.experiments fig5 fig7  # a subset

Module map: fig01_breakdown, fig02_ipc_breakdown, table01_arch,
fig05_sync_calls, fig06_argsize, fig07_driver, fig08_oltp, extras,
plus the shared micro-benchmark drivers in ``microbench``.
"""

from repro.experiments.microbench import (BenchResult, bench_dipc,
                                          bench_dipc_user_rpc, bench_func,
                                          bench_l4, bench_pipe, bench_rpc,
                                          bench_sem, bench_syscall)

__all__ = [
    "BenchResult", "bench_dipc", "bench_dipc_user_rpc", "bench_func",
    "bench_l4", "bench_pipe", "bench_rpc", "bench_sem", "bench_syscall",
]
