"""Simulation points: the unit of work the parallel runner schedules.

A point is one self-contained simulation — one bar of Figure 5, one
(size, series) cell of Figure 6, one OLTP (storage, config, concurrency)
triple of Figure 8, one chaos storm. Each figure driver exposes

* ``points(**params) -> List[PointSpec]`` — the decomposition, and
* ``compute_point(**kwargs) -> JSON`` — runs one point from scratch
  (fresh kernel, deterministic), returning only JSON-serializable data
  so results can cross process boundaries and live in the on-disk
  cache, and
* ``assemble(specs, results) -> str`` — merges the per-point results,
  **in spec order**, into the rendered figure text.

Points are the only way a figure is computed: ``run <name>`` (with or
without ``--jobs``), REPORT.md, the storm set and the ``check`` verb
all call ``compute_point`` through :func:`execute_spec` or a pool
worker. Keeping ``kwargs`` JSON-only is what makes a spec both
picklable (for ``multiprocessing``) and hashable (for the
content-addressed cache).
"""

from __future__ import annotations

import importlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List


@dataclass(frozen=True)
class PointSpec:
    """A picklable description of one simulation point."""

    #: experiment the point belongs to (``fig5``, ``chaos``, ...)
    driver: str
    #: dotted module that owns the point function
    module: str
    #: JSON-serializable keyword arguments for the point function
    kwargs: Dict[str, Any] = field(default_factory=dict)
    #: point-function name inside ``module``
    func: str = "compute_point"
    #: chaos storms opt out: they exist to *verify* determinism, so a
    #: cached replay would be circular
    cacheable: bool = True

    def payload(self) -> str:
        """Canonical JSON identity of this point (the cache-key input)."""
        return json.dumps(
            {"driver": self.driver, "module": self.module,
             "func": self.func, "kwargs": self.kwargs},
            sort_keys=True, separators=(",", ":"))

    def label(self) -> str:
        """Short human-readable tag for logs and progress lines."""
        inner = ",".join(f"{k}={v}" for k, v in sorted(self.kwargs.items()))
        return f"{self.driver}[{inner}]" if inner else self.driver


def execute_spec(spec: PointSpec) -> Any:
    """Run one point in the current process and return its result."""
    module = importlib.import_module(spec.module)
    fn = getattr(module, spec.func)
    return fn(**spec.kwargs)


def _execute_payload(payload) -> Any:
    """Pool-worker entry point: a module-level function so it pickles
    under any multiprocessing start method."""
    module_name, func_name, kwargs = payload
    module = importlib.import_module(module_name)
    return getattr(module, func_name)(**kwargs)
