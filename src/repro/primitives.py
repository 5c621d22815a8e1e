"""First-class registry of isolation primitives.

Every IPC mechanism the reproduction models — the paper's five
(pipe/socket/rpc/l4/dipc) plus the bracketing mechanisms from the
related work (dpti, odipc) — is declared exactly once, as a
:class:`PrimitiveSpec` naming its one channel class, in
``repro.load.transports``. The load harness, the topology engine and
the figure drivers all query this registry instead of keeping parallel
hardcoded tuples, so a new mechanism registers once and shows up
everywhere.

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
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class Capabilities:
    """What a primitive needs from (and promises to) the stack."""

    trusted: bool = False
    in_process: bool = False
    has_worker_threads: bool = True


@dataclass
class PrimitiveSpec:
    """One registered isolation mechanism."""

    name: str
    channel_cls: type
    capabilities: Capabilities

    def channel(self) -> type:
        """The :class:`repro.load.transports.Channel` subclass that
        wires one caller → callee link over this primitive (the
        single-hop transport and every topology edge alike)."""
        return self.channel_cls


_REGISTRY: dict = {}


def register_primitive(name: str, channel_cls: Optional[type] = None,
                       capabilities: Optional[Capabilities] = None):
    """Register an isolation primitive.

    Usable directly::

        register_primitive("pipe", PipeChannel, Capabilities())

    or as a class decorator (``channel_cls`` omitted)::

        @register_primitive("pipe", capabilities=Capabilities())
        class PipeChannel(Channel): ...
    """
    caps = capabilities if capabilities is not None else Capabilities()

    def _register(cls: type):
        if name in _REGISTRY:
            raise ValueError(f"primitive {name!r} is already registered")
        for attr in ("build", "call", "worker_body"):
            if not hasattr(cls, attr):
                raise TypeError(
                    f"channel class {cls.__name__} for {name!r} "
                    f"lacks required attribute {attr!r}")
        declared = getattr(cls, "has_worker_threads", True)
        if bool(declared) != caps.has_worker_threads:
            raise ValueError(
                f"primitive {name!r}: channel class declares "
                f"has_worker_threads={declared!r} but capabilities "
                f"say {caps.has_worker_threads!r}")
        _REGISTRY[name] = PrimitiveSpec(name=name, channel_cls=cls,
                                        capabilities=caps)
        return cls

    if channel_cls is None:
        return _register
    _register(channel_cls)
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
