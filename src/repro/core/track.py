"""Fast process switching in proxies (§6.1.2).

Cross-process proxies must switch the kernel's ``current`` pointer (for
resource accounting and the fd table) without entering the kernel. The
paper's three-level scheme:

* **hot**: the §4.3 privileged instruction maps the target's domain tag
  to its 5-bit hardware tag, which indexes a 32-entry per-thread cache
  array holding the (process, per-process tid) pair;
* **warm**: on a cache-array miss, a per-thread tree keyed by domain tag;
* **cold**: on a tree miss, an upcall into a management thread in the
  target process, which runs a syscall to create the per-process thread
  identifier (§5.2.1) and restarts the lookup.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional


CACHE_ARRAY_SLOTS = 32


@dataclass
class TrackEntry:
    tag: int
    process: object
    per_process_tid: int


class TrackState:
    """Per-thread tracking state: cache array + tree."""

    def __init__(self):
        self.cache_array: List[Optional[TrackEntry]] = \
            [None] * CACHE_ARRAY_SLOTS
        self.tree: Dict[int, TrackEntry] = {}
        self.hot_hits = 0
        self.warm_hits = 0
        self.cold_misses = 0


class ProcessTracker:
    """Implements track_process_call / track_process_ret."""

    def __init__(self, manager):
        self.manager = manager
        self.kernel = manager.kernel
        self.upcalls = 0

    @staticmethod
    def state_of(thread) -> TrackState:
        if thread.track_state is None:
            thread.track_state = TrackState()
        return thread.track_state

    def track_call(self, thread, target_process, target_tag: int):
        """Sub-generator: switch ``current`` to the target process.

        Charges the fast/warm/cold path cost and performs the functional
        switch (thread.current_process + per-process tid). The caller's
        ``current`` is saved by the proxy in the KCS.
        """
        costs = self.kernel.costs
        state = self.state_of(thread)
        cpu = thread.cpu
        hw_tag = cpu.apl_cache.hw_tag_of(target_tag) if cpu is not None \
            else None
        if cpu is not None:
            if hw_tag is not None:
                cpu.apl_cache.hits += 1
            else:
                cpu.apl_cache.misses += 1
                # the OS refills the software-managed APL cache so later
                # calls hit the hot path (never observed mid-benchmark,
                # §7.1)
                hw_tag = cpu.apl_cache.fill(target_tag)
        entry = None
        if hw_tag is not None:
            slot = state.cache_array[hw_tag]
            if slot is not None and slot.tag == target_tag:
                entry = slot
        if entry is not None:
            state.hot_hits += 1
            yield from thread.compute(costs.TRACK_PROCESS_CALL)
        elif target_tag in state.tree:
            state.warm_hits += 1
            entry = state.tree[target_tag]
            if hw_tag is not None:
                state.cache_array[hw_tag] = entry
            yield from thread.compute(costs.TRACK_PROCESS_CALL
                                      + costs.TRACK_TREE_LOOKUP)
        else:
            # cold path: upcall into the target's management thread, which
            # executes a syscall to create the OS structures (§6.1.2)
            state.cold_misses += 1
            self.upcalls += 1
            yield from thread.compute(costs.TRACK_UPCALL)
            yield from thread.syscall(costs.SYSCALL_MINWORK)
            tid = self._per_process_tid(thread, target_process)
            entry = TrackEntry(target_tag, target_process, tid)
            state.tree[target_tag] = entry
            if hw_tag is not None:
                state.cache_array[hw_tag] = entry
            yield from thread.compute(costs.TRACK_PROCESS_CALL)
        # the functional switch: current process (fd table, accounting)
        thread.current_process = target_process
        return entry.per_process_tid

    def track_ret(self, thread, saved_process):
        """Sub-generator: restore ``current`` from the KCS entry."""
        costs = self.kernel.costs
        yield from thread.compute(costs.TRACK_PROCESS_RET)
        thread.current_process = saved_process

    # -- per-process thread identifiers (§5.2.1) ----------------------------------

    def _per_process_tid(self, thread, process) -> int:
        tids = thread.per_process_tids
        if process.pid not in tids:
            counter = getattr(process, "_tid_counter", None)
            if counter is None:
                counter = itertools.count(1000)
                process._tid_counter = counter
            tids[process.pid] = next(counter)
        return tids[process.pid]
