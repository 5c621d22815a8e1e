"""Data-sharing patterns of §5.2.2: capabilities for transient zero-copy
argument passing, domain grants for long-lived shared pools, and direct
code access that bypasses proxies."""

import pytest

from repro.codoms.apl import Permission
from repro.core.objects import EntryDescriptor, Signature
from repro.errors import AccessFault

from tests.core.conftest import wire_up_call


def test_capability_passes_buffer_by_reference(kernel, manager, web,
                                               database):
    """The headline zero-copy pattern: the caller mints a capability over
    its buffer; the callee reads the caller's memory directly — no
    marshalling, no copies, revoked on return."""
    buf = web.alloc_bytes(4096)
    web.space.write(buf, b"SELECT * FROM dvds")
    seen = []

    def query(t, request):
        cap, addr, size = request
        t.codoms.install_cap(0, cap)   # callee loads the capability
        seen.append(kernel.access.read(t.codoms, addr, size, t))
        t.codoms.install_cap(0, None)
        yield from t.compute(1)
        return "ok"

    address, _ = wire_up_call(manager, web, database, func=query)

    def body(t):
        cap = kernel.access.mint(t.codoms, buf, 4096, Permission.READ,
                                 synchronous=True, thread=t)
        yield from t.kernel.dipc.call(t, address, (cap, buf, 18))
        cap.revoke()  # transient: dead the moment the caller says so
        assert not cap.is_valid()

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()
    assert seen == [b"SELECT * FROM dvds"]


def test_callee_cannot_use_capability_after_revocation(kernel, manager,
                                                       web, database):
    stash = {}

    def thief(t, request):
        stash["cap"], stash["addr"] = request
        yield from t.compute(1)
        return "ok"

    address, _ = wire_up_call(manager, web, database, func=thief)
    denied = []

    def snoop(t, _):
        t.codoms.install_cap(0, stash["cap"])
        try:
            kernel.access.read(t.codoms, stash["addr"], 4, t)
        except AccessFault:
            denied.append(True)
        yield from t.compute(1)
        return "done"

    address2, _ = wire_up_call(manager, web, database, func=snoop)

    def body(t):
        buf = web.alloc_bytes(4096)
        cap = kernel.access.mint(t.codoms, buf, 64, Permission.READ,
                                 synchronous=False)
        yield from t.kernel.dipc.call(t, address, (cap, buf))
        cap.revoke()
        # the callee stashed the capability; after revocation it is dead
        yield from t.kernel.dipc.call(t, address2, None)

    kernel.spawn(web, body, pin=0)
    kernel.run()
    kernel.check()
    assert denied == [True]


def test_long_lived_pool_via_domain_grant(kernel, manager, web, database):
    """§5.2.2's pattern: allocate a dynamic data structure into its own
    domain and grant the peer direct access — no per-call capabilities."""
    pool_dom = manager.dom_create(database)
    pool = manager.dom_mmap(database, pool_dom, 8192)
    database.space.write(pool, b"shared-index")
    # the database hands the web process a read handle (over an fd)
    fd = database.fdtable.install(manager.dom_copy(pool_dom,
                                                   Permission.READ))
    handle = database.fdtable.get(fd)
    manager.grant_create(manager.dom_default(web), handle)
    got = []

    def body(t):
        got.append(kernel.access.read(t.codoms, pool, 12, t))
        # read-only: writes are still refused
        with pytest.raises(AccessFault):
            kernel.access.write(t.codoms, pool, b"xx", t)
        yield from t.compute(1)

    kernel.spawn(web, body)
    kernel.run()
    kernel.check()
    assert got == [b"shared-index"]


def test_direct_code_access_bypasses_proxies(kernel, manager, web,
                                             database):
    """§5.2.2: granting direct access to code means calls skip the proxy
    — the callee code then executes *as the caller's process* (caller's
    uid, caller's fd table). Intentional, hence safe under P1."""
    web.uid = 1001
    database.uid = 2002
    # the database intentionally exposes its helper-code domain
    helper_dom = manager.dom_create(database)
    code_addr = manager.dom_mmap(database, helper_dom, 4096, execute=True)
    manager.grant_create(manager.dom_default(web),
                         manager.dom_copy(helper_dom, Permission.READ))
    observed = []

    def body(t):
        # jump straight into the database's code: no proxy, no
        # track_process_call — current stays the web process
        kernel.access.check_call(t.codoms, code_addr + 24, t)
        observed.append((t.current_process.name, t.current_process.uid,
                         t.codoms.current_tag))
        yield from t.compute(1)

    kernel.spawn(web, body)
    kernel.run()
    kernel.check()
    name, uid, tag = observed[0]
    assert name == "web"          # still accounted to the caller
    assert uid == 1001            # caller's POSIX identity
    assert tag == helper_dom.tag  # but executing the callee's code
