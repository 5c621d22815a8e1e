"""Per-layer host-time attribution by wrapping ``repro`` entry points.

A layer is one ``repro`` subpackage (``fault`` counts as ``recovery``).
:class:`LayerTracer.install` replaces, from outside the program:

* every public function and public method defined in a layer module;
* the scheduler callbacks the engine fires (``Scheduler._claimed_start``,
  ``_advance``, ``_after_charge``, ``_preempt``) and ``_do_charge``, whose
  call count is the number of charges;
* the thread bodies handed to ``Kernel.spawn``, attributed to the layer of
  the module that defines them.

Each call is a span. A returned generator is timed per resume, each resume
its own span. A span's self time is its duration minus the durations of
the wrapped spans it contains, so the self times of all spans add up to
the time covered by top-level spans. Every span updates in-memory
aggregates; full records are kept for the first :data:`SPAN_CAP` spans of
each layer. :meth:`LayerTracer.uninstall` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import pkgutil
import sys
from enum import Enum
from time import perf_counter_ns
from types import FunctionType, GeneratorType
from typing import Dict, List, Optional

LAYERS = ("sim", "kernel", "hw", "mem", "codoms", "core", "ipc", "load",
          "topo", "apps", "recovery", "trace", "runner", "experiments")

#: subpackage -> layer, for the packages that are not their own layer
_PACKAGE_LAYER = {"fault": "recovery"}

#: full span records kept per layer
SPAN_CAP = 20_000

#: scheduler callbacks the engine posts (wrapped despite the underscore)
SCHEDULER_CALLBACKS = ("_claimed_start", "_advance", "_after_charge",
                       "_preempt", "_do_charge")


def layer_of(module_name: Optional[str]) -> Optional[str]:
    """The layer a ``repro`` module belongs to, or None."""
    parts = (module_name or "").split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return None
    layer = _PACKAGE_LAYER.get(parts[1], parts[1])
    return layer if layer in LAYERS else None


class Site:
    """Aggregates of one wrapped function (or one thread-body kind)."""

    __slots__ = ("name", "layer", "calls", "self_ns")

    def __init__(self, name: str, layer: str):
        self.name = name
        self.layer = layer
        self.calls = 0
        self.self_ns = 0


class LayerTracer:
    """Wraps the layer entry points while installed; see module doc."""

    def __init__(self):
        #: open spans: [start_ns, wrapped-children ns, span id]; the root
        #: frame's children total is the time covered by top-level spans
        self.root = [0, 0, 0]
        self._stack = [self.root]
        self._ids = itertools.count(1)
        self.sites: Dict[str, Site] = {}
        #: per layer: (site, start_ns, end_ns, parent id, span id, point)
        self.spans: Dict[str, list] = {layer: [] for layer in LAYERS}
        #: id of the point being run, stamped on span records
        self.point = ""
        #: kernels constructed since the last :meth:`take_kernels`
        self.kernels: List = []
        #: ``KernelControlStack.pop_frame`` calls that returned False
        self.stale_replies = 0
        self._restore: List[tuple] = []
        #: id(original) -> (original, wrapper)
        self._wrappers: Dict[int, tuple] = {}

    # -- aggregates ----------------------------------------------------------

    def calls(self, name: str) -> int:
        site = self.sites.get(name)
        return site.calls if site is not None else 0

    def layer_totals(self) -> Dict[str, dict]:
        """``{layer: {"calls": n, "self_ns": ns}}`` over every site."""
        totals = {layer: {"calls": 0, "self_ns": 0} for layer in LAYERS}
        for site in self.sites.values():
            totals[site.layer]["calls"] += site.calls
            totals[site.layer]["self_ns"] += site.self_ns
        return totals

    def take_kernels(self) -> List:
        kernels, self.kernels = self.kernels, []
        return kernels

    # -- wrapping ------------------------------------------------------------

    def _site(self, name: str, layer: str) -> Site:
        site = self.sites.get(name)
        if site is None:
            site = self.sites[name] = Site(name, layer)
        return site

    def wrap(self, fn, name: str, layer: str):
        """``fn`` recording one span per call into site ``name``."""
        site = self._site(name, layer)
        stack = self._stack
        ids = self._ids
        spans = self.spans[layer]
        timed = self.timed_generator
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            site.calls += 1
            parent = stack[-1]
            frame = [perf_counter_ns(), 0, next(ids)]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[0]
                site.self_ns += duration - frame[1]
                parent[1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((site, frame[0], end, parent[2],
                                  frame[2], tracer.point))
            if type(result) is GeneratorType:
                return timed(result, site)
            return result

        return wrapper

    def timed_generator(self, gen, site: Site):
        """Delegate to ``gen``, recording one span per resume (the span
        bookkeeping is written out here and in :meth:`wrap` rather than
        shared, because a helper call per span doubles its cost)."""
        stack = self._stack
        ids = self._ids
        spans = self.spans[site.layer]
        value = None
        thrown = None
        while True:
            site.calls += 1
            parent = stack[-1]
            frame = [perf_counter_ns(), 0, next(ids)]
            stack.append(frame)
            try:
                if thrown is None:
                    item = gen.send(value)
                else:
                    exc, thrown = thrown, None
                    item = gen.throw(exc)
            except StopIteration as stop:
                return stop.value
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[0]
                site.self_ns += duration - frame[1]
                parent[1] += duration
                if len(spans) < SPAN_CAP:
                    spans.append((site, frame[0], end, parent[2],
                                  frame[2], self.point))
            value = None
            try:
                value = yield item
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # delivered into gen on resume
                thrown = exc

    def timed_body(self, body):
        """A thread body whose generator is timed per resume, attributed
        to the layer of the module that defines ``body``."""
        inner = getattr(body, "func", body)     # functools.partial
        module = getattr(inner, "__module__", None)
        layer = layer_of(module)
        if layer is None:
            return body
        site = self._site(
            f"{module}.{getattr(inner, '__qualname__', 'body')}", layer)

        def timed(thread):
            gen = body(thread)
            if type(gen) is GeneratorType:
                return self.timed_generator(gen, site)
            return gen

        return timed

    # -- install / uninstall -------------------------------------------------

    def _replace(self, owner, name: str, value) -> None:
        self._restore.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrapped(self, fn: FunctionType, name: str, layer: str):
        """One wrapper per original, however many names reach it."""
        entry = self._wrappers.get(id(fn))
        if entry is None:
            entry = self._wrappers[id(fn)] = (fn, self.wrap(fn, name, layer))
        return entry[1]

    def _wrap_class(self, cls: type, layer: str) -> None:
        prefix = f"{cls.__module__}.{cls.__qualname__}"
        for name, attr in list(cls.__dict__.items()):
            if name.startswith("_"):
                continue
            if isinstance(attr, FunctionType):
                self._replace(cls, name,
                              self._wrapped(attr, f"{prefix}.{name}", layer))
            elif isinstance(attr, (staticmethod, classmethod)) and \
                    isinstance(attr.__func__, FunctionType):
                wrapped = self._wrapped(attr.__func__, f"{prefix}.{name}",
                                        layer)
                self._replace(cls, name, type(attr)(wrapped))

    def install(self) -> None:
        """Wrap every layer entry point in every ``repro`` module."""
        if self._restore:
            raise RuntimeError("LayerTracer is already installed")
        for module in _layer_modules():
            layer = layer_of(module.__name__)
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or \
                        getattr(obj, "__module__", None) != module.__name__:
                    continue
                if isinstance(obj, FunctionType):
                    self._replace(module, name, self._wrapped(
                        obj, f"{module.__name__}.{name}", layer))
                elif isinstance(obj, type) and \
                        not issubclass(obj, (Enum, BaseException)):
                    self._wrap_class(obj, layer)
        self._install_kernel_hooks()
        # rebind the names other modules bound with ``from m import f``
        for module in _repro_modules():
            for name, obj in list(vars(module).items()):
                entry = self._wrappers.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._replace(module, name, entry[1])

    def _install_kernel_hooks(self) -> None:
        from repro.core.kcs import KernelControlStack
        from repro.kernel.kernel import Kernel
        from repro.kernel.scheduler import Scheduler
        for name in SCHEDULER_CALLBACKS:
            self._replace(Scheduler, name, self.wrap(
                Scheduler.__dict__[name],
                f"repro.kernel.scheduler.Scheduler.{name}", "kernel"))

        kernel_init = self.wrap(Kernel.__init__,
                                "repro.kernel.kernel.Kernel.__init__",
                                "kernel")
        tracer = self

        def init(kernel, *args, **kwargs):
            kernel_init(kernel, *args, **kwargs)
            tracer.kernels.append(kernel)

        self._replace(Kernel, "__init__", init)

        spawn = Kernel.__dict__["spawn"]        # already span-wrapped

        def spawn_timed(kernel, process, body, *args, **kwargs):
            return spawn(kernel, process, tracer.timed_body(body), *args,
                         **kwargs)

        self._replace(Kernel, "spawn", spawn_timed)

        pop_frame = KernelControlStack.__dict__["pop_frame"]

        def pop_frame_counted(kcs, frame):
            live = pop_frame(kcs, frame)
            if live is False:
                tracer.stale_replies += 1
            return live

        self._replace(KernelControlStack, "pop_frame", pop_frame_counted)

    def uninstall(self) -> None:
        """Put every replaced attribute back, newest first."""
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)
        self._wrappers.clear()


def _layer_modules() -> List:
    """Every module of every layer package, imported (``__main__``
    modules excepted: importing them must not run a CLI)."""
    import repro
    modules = []
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if layer_of(info.name) is None or \
                info.name.endswith(".__main__"):
            continue
        modules.append(importlib.import_module(info.name))
    return modules


def _repro_modules() -> List:
    return [module for name, module in list(sys.modules.items())
            if name == "repro" or name.startswith("repro.")]


def wrapped_names() -> List[str]:
    """Names in loaded ``repro`` modules and their classes that are bound
    to a wrapper made here; empty unless a tracer is installed."""
    def ours(obj) -> bool:
        obj = getattr(obj, "__func__", obj)
        return isinstance(obj, FunctionType) and \
            obj.__code__.co_filename == __file__

    found = []
    for module in _repro_modules():
        for name, obj in list(vars(module).items()):
            if ours(obj):
                found.append(f"{module.__name__}.{name}")
            elif isinstance(obj, type) and \
                    obj.__module__ == module.__name__:
                found.extend(f"{module.__name__}.{obj.__qualname__}.{attr}"
                             for attr, value in vars(obj).items()
                             if ours(value))
    return found
