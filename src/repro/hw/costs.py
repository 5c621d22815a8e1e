"""Calibrated nanosecond cost model.

Every constant is anchored, directly or by decomposition, to a number the
paper reports for its evaluation machine (Table 3: Xeon E3-1220v2 @
3.1 GHz, Linux 3.9.10):

* a function call takes "under 2 ns" (§2.2) — ``FUNC_CALL``;
* an empty Linux system call takes "around 34 ns" (§2.2) — decomposed into
  the hardware entry/exit (block 2), the dispatch trampoline (block 3) and
  minimal kernel work (block 4);
* Figure 5's bars, expressed as multiples of a function call, give the
  round-trip targets for every primitive (see ``targets`` below); the
  block-level constants here were solved so the compositions in
  ``repro.ipc`` and ``repro.core`` land on those targets, which
  ``tests/calibration`` asserts.

Derived ratios that the paper headlines, and that therefore must (and do)
hold in this model:

* local RPC (=CPU) / dIPC+proc High = 6856 / 106.9 = 64.12×
* L4 (=CPU) / dIPC+proc High = 948 / 106.9 = 8.87×
* dIPC High / dIPC Low (same process) = 50.8 / 6 = 8.47×
* local RPC / dIPC+proc Low = 6856/2 / 56.8 … = 120.67× per §7.2
* Sem (=CPU) / dIPC+proc High = 1514/2 / 106.9 … = 14.16× per §7.2
* removing the TLS wrfsbase switch speeds dIPC+proc by 1.54×–3.22× (§7.2)
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro import units


@dataclass
class CostModel:
    """All timing constants, in nanoseconds unless noted."""

    # -- CPU basics ----------------------------------------------------------
    ghz: float = 3.1
    #: call + return pair of a regular function (paper: "under 2ns")
    FUNC_CALL: float = 2.0
    #: tiny user-side bookkeeping around a blocking primitive invocation
    USER_STUB: float = 6.0
    #: writing / reading a one-byte argument (cache-resident)
    TOUCH_ARG: float = 4.0

    # -- system call path (empty syscall totals 34ns) -------------------------
    #: block 2: syscall + 2×swapgs + sysret
    SYSCALL_HW: float = 16.0
    #: block 3: syscall dispatch trampoline
    SYSCALL_TRAMPOLINE: float = 12.0
    #: block 4: minimal kernel work of an empty syscall
    SYSCALL_MINWORK: float = 6.0

    # -- scheduling / context switching ---------------------------------------
    #: block 5: full context switch (register save/restore, runqueue ops,
    #: ``current`` switch including the fd-table pointer)
    CTX_SWITCH: float = 316.0
    #: block 6: page table switch (CR3 write + immediate TLB refills);
    #: the scheduler refuses a negative value
    PT_SWITCH: float = 95.0
    #: block 5: entering/leaving the idle loop
    IDLE_LOOP_ENTER: float = 60.0
    #: block 5: waking a CPU out of idle and scheduling the woken thread
    IDLE_WAKE_SCHED: float = 850.0
    #: scheduler timeslice for preemption (macro-benchmarks)
    TIMESLICE: float = 1.0 * units.MS
    #: sched_migration_cost_ns: a thread that ran within this window is
    #: cache-hot and idle CPUs will not steal it — the source of the
    #: "temporary imbalance" §7.4 blames for Linux's idle time
    SCHED_MIGRATION_COST: float = 0.5 * units.MS

    # -- cross-CPU signalling --------------------------------------------------
    #: flight latency of an inter-processor interrupt
    IPI_FLIGHT: float = 1150.0
    #: block 4: IPI handling on the target CPU
    IPI_HANDLE: float = 350.0
    #: block 4: issuing the IPI on the sending CPU (APIC write etc.)
    IPI_SEND: float = 80.0

    # -- futex (POSIX semaphores are futex-backed) -----------------------------
    #: block 4: kernel side of FUTEX_WAKE
    FUTEX_WAKE_WORK: float = 160.0
    #: block 4: kernel side of FUTEX_WAIT before blocking
    FUTEX_WAIT_WORK: float = 70.0
    #: block 4: return path when a waiter resumes
    FUTEX_RESUME: float = 50.0

    # -- pipes -----------------------------------------------------------------
    #: block 4: pipe_write kernel work excluding the data copy and wake
    PIPE_WRITE_WORK: float = 200.0
    #: block 4: pipe_read kernel work excluding the data copy
    PIPE_READ_WORK: float = 177.0

    # -- UNIX datagram sockets ---------------------------------------------------
    #: block 4: sendto kernel work (lookup, skb alloc) excluding copy
    SOCK_SEND_WORK: float = 450.0
    #: block 4: recvfrom kernel work excluding copy
    SOCK_RECV_WORK: float = 350.0

    # -- rpcgen-style local RPC (user-level library costs, block 1) -------------
    #: XDR (un)marshalling fixed cost per message, excluding per-byte copy
    XDR_BASE: float = 500.0
    #: clnt_call bookkeeping on the client (timeouts, xid, retransmit setup)
    RPC_CLIENT_USER: float = 1200.0
    #: svc loop on the server: poll, xprt handling, request demultiplex
    RPC_SERVER_USER: float = 1300.0
    #: re-arming the retransmit path on a timed-out clnt_call attempt
    RPC_RETRY_WORK: float = 400.0
    #: base of the exponential retransmit backoff (doubles per attempt);
    #: only charged when a client opts into retries
    RPC_RETRY_BACKOFF: float = 50.0 * units.US

    # -- L4-style synchronous IPC -----------------------------------------------
    #: block 4: L4 short-IPC kernel path (rendezvous, register transfer)
    L4_KERNEL_PATH: float = 177.0
    #: block 5: L4 direct thread switch (no generic scheduler pass)
    L4_DIRECT_SWITCH: float = 180.0
    #: block 1: user-side stub around the IPC syscall
    L4_USER_STUB: float = 6.0

    # -- CODOMs architecture ------------------------------------------------------
    #: crossing domains via call/jump: negligible (ISCA'14 measured ~0)
    DOMAIN_SWITCH: float = 0.0
    #: APL cache hit (1-2 cycles, runs in parallel with I-fetch)
    APL_CACHE_HIT: float = 0.65
    #: APL cache miss: exception + software refill (§7.5; never hit in
    #: the paper's benchmarks, nor in ours unless forced)
    APL_CACHE_MISS: float = 300.0
    #: creating/deriving a capability into a capability register
    CAP_CREATE: float = 1.5
    #: loading/storing a 32 B capability from/to tagged memory or the DCS
    CAP_MEM: float = 1.0
    #: privileged hardware-tag lookup instruction (§4.3: "< L1 hit")
    TAG_LOOKUP: float = 0.65

    # -- dIPC proxies and stubs (decompose Figure 5's dIPC bars) ------------------
    #: minimal trusted proxy work on call: stack-pointer validity check,
    #: KCS push (return address + sp), return-capability creation
    PROXY_MIN_CALL: float = 2.5
    #: minimal trusted proxy work on return: KCS pop + restore
    PROXY_MIN_RET: float = 1.5
    #: user stub: save live registers to stack (register integrity)
    STUB_REG_SAVE: float = 8.0
    #: user stub: restore registers after return
    STUB_REG_RESTORE: float = 8.0
    #: user stub: zero non-argument / non-result registers (confidentiality)
    STUB_REG_ZERO: float = 8.0
    #: user stub: capabilities for in-stack args + unused stack area
    STUB_STACK_CAPS: float = 5.0
    #: proxy: data-stack switch (confidentiality+integrity; isolate_pcall)
    PROXY_STACK_SWITCH: float = 8.0
    #: proxy: DCS base adjustment (integrity)
    PROXY_DCS_ADJUST: float = 3.0
    #: proxy: separate per-domain capability stack (DCS confidentiality)
    PROXY_DCS_SWITCH: float = 4.3
    #: proxy: locate/lazily-allocate the per-thread stack in the callee
    PROXY_STACK_LOCATE: float = 5.3
    #: track_process_call fast path: APL-tag cache-array lookup + current
    #: swap + KCS store (§6.1.2)
    TRACK_PROCESS_CALL: float = 5.5
    #: track_process_ret: restore current from the KCS
    TRACK_PROCESS_RET: float = 3.5
    #: time-slice donation bookkeeping on a cross-process call
    TRACK_DONATION: float = 2.6
    #: one wrfsbase TLS segment switch (§6.1.2 calls it "costly")
    TLS_SWITCH: float = 19.6
    #: kernel-side unwind of one KCS frame after a crash/kill (§5.2.1)
    KCS_UNWIND_FRAME: float = 200.0
    #: duplicating the kernel thread structure + KCS on a time-out (§5.4)
    THREAD_SPLIT: float = 2500.0
    #: warm path: per-thread tree lookup on cache-array miss
    TRACK_TREE_LOOKUP: float = 120.0
    #: cold path: upcall into the target's management thread + syscall
    TRACK_UPCALL: float = 6000.0

    # -- DPTI: tagged-page-table domain switching (arxiv 2111.10876) --------------
    #: block 6: PCID-tagged CR3 write with no TLB flush — the tagged
    #: entries of the target domain survive, so the switch is a bare
    #: CR3 load plus a handful of warm TLB refills (vs 95 ns for the
    #: flushing PT_SWITCH)
    DPTI_SWITCH: float = 30.0
    #: block 4: kernel gate of a domain call — descriptor lookup,
    #: permission check, tagged-PT selection; shorter than L4's
    #: rendezvous path (177 ns) because no thread switch is needed,
    #: but far more than dIPC's proxy, because it still traps
    DPTI_KERNEL_PATH: float = 90.0
    #: block 1: user-side stub around the domain-call trap
    DPTI_USER_STUB: float = 6.0

    # -- bulk-copy offload engine (arxiv 2601.06331) ------------------------------
    #: fixed cost of submitting one DMA descriptor to the offload
    #: engine (doorbell write, descriptor setup, completion check)
    DMA_SUBMIT: float = 250.0
    #: sustained offload-engine copy bandwidth, bytes per nanosecond
    DMA_BYTES_PER_NS: float = 64.0
    #: smallest transfer worth a descriptor: below this the submission
    #: cost dwarfs the copy and the CPU does it inline (at 16 KB the
    #: offload costs 432.7 ns vs a 512 ns inline touch; at 8 KB the
    #: 250 ns submission still loses, 304.7 ns vs 256 ns)
    OFFLOAD_THRESHOLD: int = 16384

    # -- alternative architectures (Table 1) ----------------------------------------
    #: processor exception + return (CHERI domain crossing, per direction)
    EXCEPTION: float = 150.0
    #: pipeline flush (MMP best-case crossing, per direction)
    PIPELINE_FLUSH: float = 20.0
    #: privileged protection-table entry write/invalidate (MMP data sharing)
    MMP_PROT_WRITE: float = 95.0

    # -- memory copies (see repro.hw.cache.CacheModel for the per-byte part) --------
    #: fixed startup of a memcpy (call, setup)
    MEMCPY_STARTUP: float = 3.0
    #: extra kernel cost per page for cross-process transfers (the kernel
    #: must ensure mappings before copying; §7.2)
    KERNEL_COPY_PAGE_CHECK: float = 55.0

    #: relative timing jitter applied to every charge (0 = deterministic;
    #: §7.2 reports stddev below 1% of the mean — enable e.g. 0.005 to
    #: model it; the scheduler uses a seeded RNG so runs stay reproducible).
    #: Must lie in [0, 1): each charge is scaled by 1 ± JITTER, which must
    #: stay positive, and the scheduler refuses any other value
    JITTER: float = 0.0
    #: seed for the jitter RNG
    JITTER_SEED: int = 1234

    # -- disks (macro-benchmarks) ------------------------------------------------------
    #: effective random-read service time, on-disk DB (queueing-inclusive)
    HDD_READ: float = 420.0 * units.US
    #: tmpfs "I/O" — in-memory file system, no device wait
    TMPFS_READ: float = 0.0

    derived_note: str = field(
        default="see tests/calibration for the end-to-end anchors",
        repr=False,
    )

    # ---------------------------------------------------------------------------
    # Convenience compositions
    # ---------------------------------------------------------------------------

    @property
    def cycle(self) -> float:
        return 1.0 / self.ghz

    def syscall_empty(self) -> float:
        """Round-trip of an empty system call (paper: ~34 ns)."""
        return self.SYSCALL_HW + self.SYSCALL_TRAMPOLINE + self.SYSCALL_MINWORK

    def same_cpu_switch(self) -> float:
        """Block 5 + block 6 cost of switching between two processes."""
        return self.CTX_SWITCH + self.PT_SWITCH

    def cross_cpu_wake(self) -> float:
        """Latency from wake initiation to the remote thread running."""
        return self.IPI_FLIGHT + self.IPI_HANDLE + self.IDLE_WAKE_SCHED

    def dipc_call_leg_ns(self) -> float:
        """User stub + trusted-proxy work of one dIPC call direction —
        the CPU-side window a DMA offload can hide its transfer behind."""
        return (self.STUB_REG_SAVE + self.STUB_REG_ZERO
                + self.STUB_STACK_CAPS + self.PROXY_MIN_CALL
                + self.PROXY_STACK_SWITCH + self.PROXY_DCS_ADJUST
                + self.PROXY_DCS_SWITCH + self.PROXY_STACK_LOCATE
                + self.TRACK_PROCESS_CALL + self.TRACK_DONATION
                + self.TLS_SWITCH + self.CAP_CREATE)

    def dipc_return_leg_ns(self) -> float:
        """Proxy + stub work of the matching dIPC return direction."""
        return (self.PROXY_MIN_RET + self.STUB_REG_RESTORE
                + self.STUB_REG_ZERO + self.TRACK_PROCESS_RET
                + self.PROXY_DCS_SWITCH + self.TLS_SWITCH)

    def dpti_call_leg_ns(self) -> float:
        """One DPTI domain call: stub, trap, kernel gate, tagged switch
        (the data copy is charged separately, per size)."""
        return (self.DPTI_USER_STUB + self.SYSCALL_HW
                + self.DPTI_KERNEL_PATH + self.DPTI_SWITCH)

    def dpti_return_leg_ns(self) -> float:
        """The DPTI return direction: the gate re-validates nothing
        (descriptor already checked on entry) so the kernel path
        halves; the tagged switch and trap exit are paid in full."""
        return (0.5 * self.DPTI_KERNEL_PATH + self.DPTI_SWITCH
                + self.SYSCALL_HW)

    def offload_copy_ns(self, size: int) -> float:
        """Effective synchronous cost of offloading a ``size``-byte
        copy to the DMA engine: descriptor submission, plus whatever
        part of the transfer is *not* hidden behind the proxy call path
        it overlaps with.  Callers gate on ``OFFLOAD_THRESHOLD``; this
        is the cost *given* the offload was chosen."""
        if size <= 0:
            return 0.0
        dma = size / self.DMA_BYTES_PER_NS
        return self.DMA_SUBMIT + max(0.0, dma - self.dipc_call_leg_ns())

    @classmethod
    def default(cls) -> "CostModel":
        return cls()


#: Figure 5 round-trip targets in nanoseconds (multiples of a 2 ns call),
#: used by tests/calibration and by EXPERIMENTS.md. Keys match the labels
#: produced by repro.experiments.fig05_sync_calls.
FIG5_TARGETS_NS = {
    "func": 2.0,
    "syscall": 34.0,
    "dipc_low": 6.0,
    "dipc_high": 50.8,
    "sem_same_cpu": 1514.0,
    "sem_cross_cpu": 4518.0,
    "pipe_same_cpu": 2032.0,
    "pipe_cross_cpu": 4514.0,
    "dipc_proc_low": 56.8,
    "dipc_proc_high": 106.9,
    "rpc_same_cpu": 6856.0,
    "rpc_cross_cpu": 8442.0,
    "dipc_user_rpc": 4822.0,
    "l4_same_cpu": 948.0,
}
