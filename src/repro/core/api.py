"""The dIPC OS interface: Table 2's objects and operations.

Every operation enforces the preconditions the paper's Table 2 states
(``iff`` clauses), which together implement the security model P1-P5:
domains are born unreachable, grants need an OWNER handle on the source,
handles can only be downgraded, and entry requests are checked against
the registered signatures.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro import units
from repro.codoms.apl import Permission
from repro.codoms.dcs import DCSPool
from repro.core.kcs import KernelControlStack
from repro.core.objects import (DomainHandle, EntryDescriptor, EntryHandle,
                                GrantHandle, Signature)
from repro.core.policies import IsolationPolicy, effective_policies
from repro.core.proxy import CalleeTerminated, Proxy
from repro.core.stacks import StackManager
from repro.core.templates import TemplateLibrary
from repro.core.track import ProcessTracker
from repro.errors import DipcError, PermissionDenied, SignatureMismatch

ENTRY_ALIGN = 64


class DipcManager:
    """The dIPC OS extension: one instance per kernel."""

    def __init__(self, kernel):
        self.kernel = kernel
        self.access = kernel.access
        self.apls = kernel.apls
        self.tags = kernel.tags
        self.templates = TemplateLibrary()
        self.track = ProcessTracker(self)
        self.stacks = StackManager(self)
        self.dcs_pool = DCSPool()
        #: address -> Proxy, for calls through resolved entry addresses
        self._proxies_by_address: Dict[int, Proxy] = {}
        #: address -> (descriptor, process) for registered raw entries
        self._entries_by_address: Dict[int, Tuple[EntryDescriptor, object]] \
            = {}
        self.faults_unwound = 0
        self.proxies_created = 0
        #: every GrantHandle ever issued — the fault injector picks
        #: revocation victims here and the invariant auditor verifies
        #: that revoked grants really left the APLs (P1)
        self.grants: List[GrantHandle] = []
        kernel.dipc = self

    # -- internal helpers --------------------------------------------------------

    def _require_dipc(self, process) -> None:
        if not process.dipc_enabled:
            raise DipcError(f"{process.name} is not dIPC-enabled "
                            "(fork without exec? non-PIC binary?)")

    def _prefill_apl_caches(self, *tags: int) -> None:
        """Keep the per-CPU APL caches warm, as the paper's evaluation
        guarantees (§7.1: no benchmark induces an APL cache miss)."""
        for cpu in self.kernel.machine.cpus:
            for tag in tags:
                cpu.apl_cache.fill(tag)

    # -- domain management (Table 2, §5.2.2) ---------------------------------------

    def dom_default(self, process) -> DomainHandle:
        """Owner handle to the process's default domain."""
        self._require_dipc(process)
        return DomainHandle(process.default_tag, Permission.OWNER)

    def dom_create(self, process) -> DomainHandle:
        """A new, fully isolated domain (in no APL: P1)."""
        self._require_dipc(process)
        tag = self.tags.alloc()
        process.domain_tags.add(tag)
        self._prefill_apl_caches(tag)
        return DomainHandle(tag, Permission.OWNER)

    def dom_copy(self, handle: DomainHandle,
                 perm: Permission) -> DomainHandle:
        """Downgrade-only copy, for safe delegation."""
        perm = Permission(perm)
        if perm > handle.perm:
            raise PermissionDenied(
                f"dom_copy cannot upgrade {handle.perm.name} to {perm.name}")
        return DomainHandle(handle.tag, perm)

    def dom_mmap(self, process, handle: DomainHandle, size: int,
                 **bits) -> int:
        """mmap into a domain: requires an OWNER handle."""
        self._require_dipc(process)
        if not handle.is_owner:
            raise PermissionDenied("dom_mmap requires an owner handle")
        return process.alloc_bytes(size, tag=handle.tag, **bits)

    def dom_remap(self, process, dst: DomainHandle, src: DomainHandle,
                  addr: int, size: int) -> None:
        """Reassign pages between domains: both handles must be OWNER."""
        self._require_dipc(process)
        if not (dst.is_owner and src.is_owner):
            raise PermissionDenied("dom_remap requires owner handles")
        first_vpn = addr // units.PAGE_SIZE
        count = units.pages_for(size)
        process.page_table.retag_range(first_vpn, count,
                                       old_tag=src.tag, new_tag=dst.tag)

    # -- grants ------------------------------------------------------------------------

    def grant_create(self, src: DomainHandle,
                     dst: DomainHandle) -> GrantHandle:
        """Let src's code access dst, at dst-handle's permission level."""
        if not src.is_owner:
            raise PermissionDenied("grant_create requires an owner handle "
                                   "for the source domain")
        if dst.perm is Permission.NIL:
            raise PermissionDenied("grant_create with a nil handle")
        hw_perm = dst.perm.hardware()
        self.apls.apl_of(src.tag).grant(dst.tag, hw_perm)
        self._prefill_apl_caches(src.tag, dst.tag)
        grant = GrantHandle(src.tag, dst.tag, hw_perm)
        self.grants.append(grant)
        return grant

    def grant_revoke(self, grant: GrantHandle) -> None:
        if grant.revoked:
            return
        self.apls.apl_of(grant.src_tag).revoke(grant.dst_tag)
        grant.revoked = True

    def reclaim_process(self, process) -> int:
        """Revoke every live grant touching the process's domains.

        Run by ``Kernel.kill_process`` after unwinding, so nothing of a
        dead process's reach survives into a supervised replacement
        (the A9 invariant). Returns the number of grants revoked.
        """
        tags = set(getattr(process, "domain_tags", ()) or ())
        if process.default_tag is not None:
            tags.add(process.default_tag)
        if not tags:
            return 0
        revoked = 0
        for grant in self.grants:
            if grant.revoked:
                continue
            if grant.src_tag in tags or grant.dst_tag in tags:
                self.grant_revoke(grant)
                revoked += 1
        return revoked

    # -- entry points (Table 2, §5.2.3) ---------------------------------------------------

    def entry_register(self, process, domain: DomainHandle,
                       entries: List[EntryDescriptor]) -> EntryHandle:
        """Export entry points of a domain the process owns."""
        self._require_dipc(process)
        if not domain.is_owner:
            raise PermissionDenied("entry_register requires an owner handle")
        if not entries:
            raise DipcError("entry_register with no entries")
        # place each entry at an aligned code address inside the domain
        code_base = process.alloc_pages(
            max(1, units.pages_for(len(entries) * ENTRY_ALIGN)),
            tag=domain.tag, execute=True, write=False)
        for index, descriptor in enumerate(entries):
            if descriptor.func is None:
                raise DipcError(
                    f"entry descriptor {index} has no implementation")
            descriptor.address = code_base + index * ENTRY_ALIGN
            self._entries_by_address[descriptor.address] = \
                (descriptor, process)
        return EntryHandle(domain.tag, list(entries), process.pid)

    def entry_request(self, process, handle: EntryHandle,
                      entries: List[EntryDescriptor], *,
                      stubs_generated: bool = False
                      ) -> Tuple[DomainHandle, List[Proxy]]:
        """Create proxies for an imported entry handle.

        Checks P4 (signatures must match), combines the isolation
        policies (union, then caller/callee activation rules), and
        returns a CALL-permission handle to the fresh proxy domain. On
        return each requested descriptor's ``address`` points at its
        proxy's entry point (Table 2).

        ``stubs_generated`` tells the runtime that the compiler pass
        already emitted caller/callee stubs, so the stub-side properties
        are not folded into the proxy (§5.3.2).
        """
        self._require_dipc(process)
        if len(entries) != handle.count:
            raise SignatureMismatch(
                f"requested {len(entries)} entries, handle exports "
                f"{handle.count}")
        for mine, theirs in zip(entries, handle.entries):
            if mine.signature != theirs.signature:
                raise SignatureMismatch(
                    f"signature mismatch on '{theirs.name}': "
                    f"{mine.signature} != {theirs.signature}")
        callee_process = self._process_by_pid(handle.owner_pid)
        proxy_dom = self.tags.alloc()
        self._prefill_apl_caches(proxy_dom, handle.domain_tag)
        if process.default_tag is not None:
            self._prefill_apl_caches(process.default_tag)
        # the proxy domain can reach both sides; neither can touch it
        # beyond CALLing its aligned entries (P2)
        self.apls.apl_of(proxy_dom).grant(handle.domain_tag,
                                          Permission.READ)
        if process.default_tag is not None:
            self.apls.apl_of(proxy_dom).grant(process.default_tag,
                                              Permission.READ)
        # proxy code pages: privileged-capability bit set (§4.1)
        code_base = self.kernel.gvas.suballoc(callee_process.pid,
                                              units.PAGE_SIZE *
                                              max(1, units.pages_for(
                                                  len(entries) * 1024)))
        first_vpn = code_base // units.PAGE_SIZE
        for vpn in range(first_vpn,
                         first_vpn + max(1, units.pages_for(
                             len(entries) * 1024))):
            self.kernel.shared_table.map_page(
                vpn, tag=proxy_dom, execute=True, write=False,
                privileged=True)
        proxies: List[Proxy] = []
        for index, (mine, theirs) in enumerate(zip(entries,
                                                   handle.entries)):
            policy = effective_policies(
                mine.policy.union(theirs.policy),
                theirs.policy)
            proxy_side = policy.without_stub_properties() \
                if stubs_generated else policy
            cross = callee_process is not process
            template = self.templates.get(theirs.signature, policy, cross)
            entry_address = code_base + index * 1024
            proxy = Proxy(
                self, descriptor=EntryDescriptor(
                    signature=theirs.signature, policy=policy,
                    func=theirs.func, address=theirs.address,
                    name=theirs.name),
                template=template,
                caller_process=process, callee_process=callee_process,
                callee_tag=handle.domain_tag, proxy_tag=proxy_dom,
                entry_address=entry_address,
                target_address=theirs.address,
                policy=proxy_side, stub_policy=policy,
                stubs_in_proxy=not stubs_generated)
            self._proxies_by_address[entry_address] = proxy
            mine.address = entry_address
            mine.policy = policy
            proxies.append(proxy)
            self.proxies_created += 1
        return DomainHandle(proxy_dom, Permission.CALL), proxies

    # -- calling --------------------------------------------------------------------------

    def resolve(self, address: int) -> Proxy:
        proxy = self._proxies_by_address.get(address)
        if proxy is None:
            raise DipcError(f"no proxy at {address:#x}")
        return proxy

    def call(self, thread, address: int, *args):
        """The proxy's call sub-generator for entry ``address`` (use with
        ``yield from``); returning it rather than delegating to it keeps
        one generator frame out of every nested dIPC call."""
        return self.resolve(address).call(thread, *args)

    # -- fault handling hooks used by Kernel.kill_process (§5.2.1) ---------------------------

    def thread_is_abroad(self, thread) -> bool:
        return thread.kcs is not None and thread.kcs.depth > 0

    def threads_visiting(self, victim) -> List:
        """Threads of *other* processes whose call chain touches ``victim``."""
        visiting = []
        for process in self.kernel.processes:
            if process is victim:
                continue
            for thread in process.threads:
                if thread.is_done or thread.kcs is None:
                    continue
                if thread.kcs.depth == 0:
                    continue
                if (thread.current_process is victim
                        or victim in thread.kcs.processes_in_chain()):
                    visiting.append(thread)
        return visiting

    def unwind_on_kill(self, thread, victim) -> None:
        """Inject the kill into a thread whose call chain touches the
        victim; the proxies unwind the KCS to the nearest live caller."""
        thread.pending_exception = CalleeTerminated(victim)
        self.kernel.wake(thread)

    def unwind_dead(self, victim) -> List:
        """Synchronously prune every live thread's KCS frames naming the
        dead ``victim`` (§5.2.1), delivering each chain's cut at its
        oldest live frame. Returns ``[(thread, pruned_frames), ...]``
        for threads that had something to repair."""
        repaired = []
        for process in self.kernel.processes:
            for thread in process.threads:
                if thread.is_done or thread.kcs is None:
                    continue
                pruned = thread.kcs.unwind_dead(victim)
                if pruned:
                    repaired.append((thread, pruned))
        return repaired

    # -- misc ------------------------------------------------------------------------------------

    def _process_by_pid(self, pid: int):
        for process in self.kernel.processes:
            if process.pid == pid:
                return process
        raise DipcError(f"no process with pid {pid}")

    def kcs_of(self, thread) -> KernelControlStack:
        if thread.kcs is None:
            thread.kcs = KernelControlStack(owner=thread)
        return thread.kcs
