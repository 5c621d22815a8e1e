"""XDR-style (de)marshalling cost model, as used by glibc's rpcgen.

Marshalling is *user* time (block 1) — the paper's Figure 2 attributes
RPC's large user-side cost to exactly this code, and §2.2 lists
"(de)marshal the arguments and results" among the application-side
overheads that dIPC eliminates by passing references.
"""

from __future__ import annotations

from repro.kernel.thread import Thread


class XDRCodec:
    """Encode/decode with a fixed per-message cost plus a per-byte copy."""

    def __init__(self, kernel):
        self.kernel = kernel

    def _ns(self, size: int) -> float:
        costs = self.kernel.costs
        cache = self.kernel.machine.cache
        return costs.XDR_BASE + cache.copy_ns(
            size, startup=costs.MEMCPY_STARTUP)

    def encode(self, thread: Thread, size: int, payload=None):
        """Sub-generator: serialize ``size`` bytes; returns wire message."""
        yield from thread.compute(self._ns(size))
        return {"size": size, "payload": payload}

    def decode(self, thread: Thread, wire):
        """Sub-generator: deserialize a wire message; returns payload."""
        size = wire["size"] if wire else 0
        yield from thread.compute(self._ns(size))
        return wire["payload"] if wire else None
