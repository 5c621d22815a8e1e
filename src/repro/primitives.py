"""First-class registry of isolation primitives.

Every IPC mechanism the reproduction models — the paper's five
(pipe/socket/rpc/l4/dipc) plus the bracketing mechanisms from the
related work (dpti, odipc) — is declared exactly once, as a
:class:`PrimitiveSpec`, in ``repro.load.transports``.  The load
harness, the topology engine and the figure drivers all query this
registry instead of keeping parallel hardcoded
tuples, so a new mechanism registers once and shows up everywhere.

Capability flags replace the scattered ``primitive == "dipc"`` string
comparisons that used to gate behaviour at each call site:

``trusted``
    the mechanism runs callee code inside the trusted dIPC runtime
    (needs a :class:`~repro.core.api.DipcManager`, registered entry
    points and ``dipc=True`` processes).
``in_process``
    a call executes inline on the caller's thread — no server-side
    worker threads, no queueing station of its own.
``has_worker_threads``
    the server spawns a worker pool that the load harness must size,
    supervise and respawn.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass, field
from typing import Optional, Union


@dataclass(frozen=True)
class Capabilities:
    """What a primitive needs from (and promises to) the stack."""

    trusted: bool = False
    in_process: bool = False
    has_worker_threads: bool = True

#: a class, or a lazy ``"module:attr"`` reference resolved on first use
ClassRef = Union[type, str]


def _resolve(ref: ClassRef) -> type:
    if isinstance(ref, str):
        module_name, _, attr = ref.partition(":")
        if not attr:
            raise ValueError(f"class reference {ref!r} is not 'module:attr'")
        return getattr(importlib.import_module(module_name), attr)
    return ref


@dataclass
class PrimitiveSpec:
    """One registered isolation mechanism."""

    name: str
    transport_ref: ClassRef
    hop_ref: ClassRef
    capabilities: Capabilities
    _transport_cls: Optional[type] = field(default=None, repr=False)
    _hop_cls: Optional[type] = field(default=None, repr=False)

    def transport(self) -> type:
        """The ``repro.load`` transport class (resolved lazily)."""
        if self._transport_cls is None:
            self._transport_cls = _resolve(self.transport_ref)
        return self._transport_cls

    def hop(self) -> type:
        """The ``repro.topo`` hop class (resolved lazily — hop classes
        live in ``repro.topo.instantiate``, which must stay importable
        without dragging in the load layer and vice versa)."""
        if self._hop_cls is None:
            self._hop_cls = _resolve(self.hop_ref)
        return self._hop_cls


_REGISTRY: dict = {}


def register_primitive(name: str,
                       transport_cls: Optional[ClassRef] = None,
                       hop_cls: Optional[ClassRef] = None,
                       capabilities: Optional[Capabilities] = None):
    """Register an isolation primitive.

    Usable directly::

        register_primitive("pipe", PipeTransport,
                           "repro.topo.instantiate:_PipeHop",
                           Capabilities())

    or as a class decorator (``transport_cls`` omitted)::

        @register_primitive("pipe", hop_cls=..., capabilities=...)
        class PipeTransport(Transport): ...
    """
    caps = capabilities if capabilities is not None else Capabilities()

    def _register(cls: ClassRef):
        if name in _REGISTRY:
            raise ValueError(f"primitive {name!r} is already registered")
        if isinstance(cls, type):
            for attr in ("build", "call", "rebuild_pool"):
                if not hasattr(cls, attr):
                    raise TypeError(
                        f"transport class {cls.__name__} for {name!r} "
                        f"lacks required attribute {attr!r}")
            declared = getattr(cls, "has_worker_threads", True)
            if bool(declared) != caps.has_worker_threads:
                raise ValueError(
                    f"primitive {name!r}: transport class declares "
                    f"has_worker_threads={declared!r} but capabilities "
                    f"say {caps.has_worker_threads!r}")
        _REGISTRY[name] = PrimitiveSpec(
            name=name, transport_ref=cls, hop_ref=hop_cls,
            capabilities=caps)
        return cls

    if transport_cls is None:
        return _register
    _register(transport_cls)
    return _REGISTRY[name]


def _ensure_loaded() -> None:
    """Primitives self-register when the transport module is imported;
    make sure that has happened before answering queries."""
    if not _REGISTRY:
        importlib.import_module("repro.load.transports")


def get(name: str) -> PrimitiveSpec:
    """Look up one primitive; raises ``KeyError`` naming the options."""
    _ensure_loaded()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(f"unknown primitive {name!r} "
                       f"(registered: {', '.join(_REGISTRY)})") from None


def names(**flags: bool) -> tuple:
    """Registered primitive names, in registration order, optionally
    filtered by capability flags: ``names(trusted=False)`` returns the
    untrusted baselines."""
    _ensure_loaded()
    out = []
    for spec in _REGISTRY.values():
        if all(getattr(spec.capabilities, flag) == want
               for flag, want in flags.items()):
            out.append(spec.name)
    return tuple(out)


def specs() -> tuple:
    _ensure_loaded()
    return tuple(_REGISTRY.values())


def baseline_names() -> tuple:
    """The untrusted mechanisms — the comparison set the paper's
    positional claims are made against."""
    return names(trusted=False)
