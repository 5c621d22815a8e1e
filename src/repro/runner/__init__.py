"""Parallel sharded experiment runner with content-addressed caching.

Every figure driver decomposes into self-contained simulation *points*
(:class:`~repro.runner.points.PointSpec`: a picklable
module/function/kwargs triple). :func:`repro.runner.pool.run_points`
computes them in this process or fans them out across a
``multiprocessing`` pool (``--jobs N`` on ``python -m
repro.experiments``), merges the results back in spec order — so a
parallel run renders byte-identically to an in-process one — and, given
a :class:`~repro.runner.cache.ResultCache`, memoizes each point's result
on disk (``.repro-cache/``) keyed by the point spec, the cost-model
constants and a fingerprint of the package sources, so warm re-runs
never recompute an unchanged point.

The package re-exports nothing: import ``repro.runner.points``,
``repro.runner.registry``, ``repro.runner.pool`` or
``repro.runner.cache`` directly, so a figure module that needs only
``PointSpec`` does not load the process pool.
"""
