"""The database's storage layer: an in-memory B-tree-ish store plus a
disk model for the on-disk configuration (§7.4 runs MariaDB on either a
hard disk or tmpfs)."""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Optional, Tuple

from repro.kernel.thread import Thread

ON_DISK = "on-disk"
IN_MEMORY = "in-memory"


class Disk:
    """A single-spindle disk: FIFO queue, fixed service time.

    Requests queue behind each other (seek-dominated hard disk); the
    issuing thread blocks for queueing + service, accounted as idle/IO
    wait on its CPU — block 7 of Figure 2.
    """

    def __init__(self, kernel, service_ns: float):
        self.kernel = kernel
        self.service_ns = service_ns
        self._busy_until = 0.0
        self.requests = 0
        self.busy_ns = 0.0

    def read(self, thread: Thread):
        """Sub-generator: one random read, blocking the calling thread."""
        engine = self.kernel.engine
        now = engine.now()
        start = max(now, self._busy_until)
        done = start + self.service_ns
        self._busy_until = done
        self.requests += 1
        self.busy_ns += self.service_ns
        engine.post(done - now, lambda: self.kernel.wake(thread))
        yield thread.block("disk-read")


class StorageEngine:
    """A tiny key-value storage engine with DVDStore-ish tables."""

    def __init__(self, kernel, mode: str = IN_MEMORY, *,
                 disk_service_ns: Optional[float] = None):
        if mode not in (ON_DISK, IN_MEMORY):
            raise ValueError(f"unknown storage mode {mode}")
        self.kernel = kernel
        self.mode = mode
        service = disk_service_ns if disk_service_ns is not None \
            else kernel.costs.HDD_READ
        self.disk = Disk(kernel, service) if mode == ON_DISK else None
        self._tables: Dict[str, Dict[object, object]] = {}
        self.reads = 0
        self.disk_reads = 0

    # -- functional K/V interface -----------------------------------------------

    def put(self, table: str, key, value) -> None:
        self._tables.setdefault(table, {})[key] = value

    def get(self, table: str, key):
        return self._tables.get(table, {}).get(key)

    def scan(self, table: str) -> Dict[object, object]:
        return dict(self._tables.get(table, {}))

    # -- timed access used by the DB tier -----------------------------------------

    def access(self, thread: Thread, *, miss: bool):
        """Sub-generator: one query's storage work. ``miss`` says whether
        the buffer pool missed (decided by the workload generator so runs
        are reproducible)."""
        self.reads += 1
        if self.mode == ON_DISK and miss:
            self.disk_reads += 1
            # buffer-pool miss: a syscall into the block layer + the wait
            yield from thread.syscall(self.kernel.costs.SYSCALL_MINWORK)
            yield from self.disk.read(thread)
        # buffer-pool hit (or tmpfs): the cost is in the DB CPU demand
        yield from thread.compute(0.0)
