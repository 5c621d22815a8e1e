"""Figure-driver registry: one validated API for every experiment.

A figure driver is any object satisfying :class:`FigureDriver`:

* ``name`` — the registry key (``fig5``, ``fig9``, ``microbench``, …);
* ``cli_params(quick)`` — the figure's one parameter table: ``run
  <name>`` with or without ``--jobs``, REPORT.md's section and the
  ``check`` verb all decompose the figure with exactly these
  parameters, so they compute the same points and share cache entries;
* ``points(**params)`` — the decomposition into
  :class:`repro.runner.points.PointSpec`;
* ``compute_point(**kwargs)`` — one point from scratch (fresh kernel,
  deterministic, JSON-serializable result);
* ``assemble(specs, results)`` — merge per-point results, in spec
  order, into the rendered figure text.

:func:`specs_for` and :func:`assemble` bracket
:func:`repro.runner.pool.run_points`; that sequence is the only way an
experiment is computed, in-process or on ``--jobs N`` workers.

Drivers self-register with :func:`register_figure`, which validates at
import time that the driver satisfies the protocol **and** that
``cli_params(quick)`` actually binds to ``points``'s signature for
both quick modes — so a renamed keyword fails the moment the module is
imported, not halfway through a two-hour ``--jobs 8`` run.
"""

from __future__ import annotations

import importlib
import inspect
from typing import Dict, List, Protocol, runtime_checkable

from repro.runner.points import PointSpec


@runtime_checkable
class FigureDriver(Protocol):
    """The contract every experiment driver implements."""

    name: str

    def cli_params(self, quick: bool) -> dict: ...

    def points(self, **params) -> List[PointSpec]: ...

    def compute_point(self, **kwargs): ...

    def assemble(self, specs, results) -> str: ...


_REGISTRY: Dict[str, FigureDriver] = {}

#: every registered experiment, in presentation order (``report`` and
#: ``chaos`` are not figures: they run their own point lists)
SUPPORTED = ("table1", "fig1", "fig2", "fig5", "fig6", "fig7", "fig8",
             "fig9", "fig10", "fig11", "fig12", "extras", "ablation",
             "microbench")

_MODULES = {
    "table1": "repro.experiments.table01_arch",
    "fig1": "repro.experiments.fig01_breakdown",
    "fig2": "repro.experiments.fig02_ipc_breakdown",
    "fig5": "repro.experiments.fig05_sync_calls",
    "fig6": "repro.experiments.fig06_argsize",
    "fig7": "repro.experiments.fig07_driver",
    "fig8": "repro.experiments.fig08_oltp",
    "fig9": "repro.experiments.fig09_load",
    "fig10": "repro.experiments.fig10_topo",
    "fig11": "repro.experiments.fig11_isolation",
    "fig12": "repro.experiments.fig12_bracket",
    "extras": "repro.experiments.extras",
    "ablation": "repro.experiments.ablation",
    "microbench": "repro.experiments.microbench",
}


def register_figure(cls):
    """Class decorator: validate a driver and add it to the registry.

    Raises :class:`TypeError`/:class:`ValueError` at import time when
    the driver is malformed; returns the class unchanged otherwise.
    """
    driver = cls() if isinstance(cls, type) else cls
    if not isinstance(driver, FigureDriver):
        missing = [attr for attr in
                   ("name", "cli_params", "points", "compute_point",
                    "assemble") if not hasattr(driver, attr)]
        raise TypeError(
            f"{cls!r} does not satisfy FigureDriver "
            f"(missing: {', '.join(missing) or 'n/a'})")
    name = driver.name
    if not isinstance(name, str) or not name:
        raise ValueError(f"{cls!r}: driver name must be a non-empty "
                         f"string, got {name!r}")
    for attr in ("cli_params", "points", "compute_point", "assemble"):
        if not callable(getattr(driver, attr)):
            raise TypeError(f"figure {name!r}: {attr} must be callable")
    # the CLI parameterization must bind to points() for both modes —
    # catch renamed/removed keywords at import, not mid-run
    signature = inspect.signature(driver.points)
    for quick in (False, True):
        params = driver.cli_params(quick)
        if not isinstance(params, dict):
            raise TypeError(
                f"figure {name!r}: cli_params(quick={quick}) must "
                f"return a dict, got {type(params).__name__}")
        try:
            signature.bind(**params)
        except TypeError as exc:
            raise TypeError(
                f"figure {name!r}: cli_params(quick={quick}) does not "
                f"bind to points{signature}: {exc}") from None
    previous = _REGISTRY.get(name)
    if previous is not None and \
            type(previous).__module__ != type(driver).__module__:
        raise ValueError(
            f"figure {name!r} already registered by "
            f"{type(previous).__module__}")
    _REGISTRY[name] = driver
    return cls


def get(name: str) -> FigureDriver:
    """The registered driver for ``name`` (imports its module lazily)."""
    if name not in _REGISTRY:
        module = _MODULES.get(name)
        if module is None:
            raise KeyError(f"unknown experiment {name!r} "
                           f"(choose from {', '.join(SUPPORTED)})")
        importlib.import_module(module)
        if name not in _REGISTRY:
            raise KeyError(f"module {module} did not register a "
                           f"figure driver named {name!r}")
    return _REGISTRY[name]


def cli_params(name: str, quick: bool) -> dict:
    """``name``'s parameter table for one mode (see :class:`FigureDriver`)."""
    return get(name).cli_params(quick)


def specs_for(name: str, quick: bool) -> List[PointSpec]:
    """Decompose experiment ``name`` with its parameter table."""
    driver = get(name)
    return driver.points(**driver.cli_params(quick))


def assemble(name: str, specs: List[PointSpec], results: list) -> str:
    """Merge per-point results (in spec order) into the rendered text."""
    return get(name).assemble(specs, results)
