"""Pre-shared memory buffers for semaphore-based IPC (§2.2).

The Sem. configuration of Figure 2 communicates through a buffer both
processes agreed on beforehand. §2.2 notes the catch: applications must
agree on sizes in advance, and data that arrived through a *different*
buffer must still be copied into this one — which is where Sem.'s
argument-size cost in Figure 6 comes from.
"""

from __future__ import annotations

from typing import Optional

from repro.kernel.thread import Thread


class SharedBuffer:
    """A fixed-size buffer mapped by two (or more) processes."""

    def __init__(self, kernel, capacity: int):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.kernel = kernel
        self.capacity = capacity
        self.payload = None
        self.payload_size = 0

    def populate(self, thread: Thread, size: int, payload=None, *,
                 extra_copy: bool = True):
        """Sub-generator: the producer fills the buffer (user time).

        ``extra_copy=True`` models the common case where the data lives
        elsewhere and must be copied in, on top of writing it.
        """
        if size > self.capacity:
            raise ValueError(
                f"message of {size} exceeds pre-agreed capacity "
                f"{self.capacity} — shared buffers cannot grow on demand")
        cache = self.kernel.machine.cache
        costs = self.kernel.costs
        ns = cache.copy_ns(size, startup=costs.MEMCPY_STARTUP) if extra_copy \
            else cache.touch_ns(size)
        yield from thread.compute(ns)
        self.payload = payload
        self.payload_size = size

    def consume(self, thread: Thread, *, copy_out: bool = False):
        """Sub-generator: the consumer reads the buffer in place
        (or copies it out when it must outlive the exchange)."""
        cache = self.kernel.machine.cache
        costs = self.kernel.costs
        size = self.payload_size
        ns = cache.copy_ns(size, startup=costs.MEMCPY_STARTUP) if copy_out \
            else cache.touch_ns(size)
        if ns > 0:
            yield from thread.compute(ns)
        return self.payload
