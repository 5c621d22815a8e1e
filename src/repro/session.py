"""The one context-manager pattern behind the CLI's orthogonal flags.

``--trace``, ``--chaos``, ``--supervise`` and ``check`` each switch a
whole experiment into a mode without threading an argument through
every driver: the flag enters a :class:`Session` (``with
TraceSession(): ...``) and the layers below consult it. Each direct
subclass of :class:`Session` has its own active slot, shared with its
own subclasses, so at most one session of each kind is active at a
time while sessions of different kinds nest freely.

A session that defines ``attach(kernel)`` joins :data:`KERNEL_HOOKS`
while it is active, and every :class:`repro.kernel.Kernel` built in
that time calls it during construction — that is how a tracer, a fault
storm or a schedule controller reaches kernels built deep inside a
figure driver. Hooks run in the order their sessions were entered.
"""

from __future__ import annotations

from typing import ClassVar, List, Optional

#: active sessions that define ``attach(kernel)``, in entry order
KERNEL_HOOKS: List["Session"] = []


class Session:
    """Base class: per-kind active slot, ``with`` support, ``current()``."""

    #: the direct :class:`Session` subclass whose slot this class uses
    _kind: ClassVar[type]
    _active: ClassVar[Optional["Session"]]

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if Session in cls.__bases__:
            cls._kind = cls
            cls._active = None

    def __enter__(self):
        kind = self._kind
        if kind._active is not None:
            raise RuntimeError(f"a {kind.__name__} is already active")
        kind._active = self
        if hasattr(self, "attach"):
            KERNEL_HOOKS.append(self)
        return self

    def __exit__(self, *exc) -> None:
        self._kind._active = None
        if self in KERNEL_HOOKS:
            KERNEL_HOOKS.remove(self)

    @classmethod
    def current(cls):
        """The active session of this kind, or None."""
        return cls._kind._active
