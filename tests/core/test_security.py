"""The security model §5.1, property by property (P1-P5).

These tests overlap deliberately with the per-module suites: this file
is the executable statement of the paper's security model, organized so
each property has its own evidence.
"""

import pytest

from repro.codoms.apl import Permission
from repro.core.objects import EntryDescriptor, Signature
from repro.core.policies import IsolationPolicy
from repro.errors import (AccessFault, EntryAlignmentFault,
                          PermissionDenied, RemoteFault, SignatureMismatch)

from tests.core.conftest import make_query_entry, wire_up_call


class TestP1_ExplicitGrants:
    """P1: processes can only access each other's code and data when the
    accessee explicitly grants that right."""

    def test_fresh_processes_cannot_touch_each_other(self, kernel, manager,
                                                     web, database):
        db_data = database.alloc_bytes(4096)
        database.space.write(db_data, b"secret")

        def body(t):
            kernel.access.read(t.codoms, db_data, 6, t)
            yield from t.compute(1)

        thread = kernel.spawn(web, body)
        kernel.run()
        assert isinstance(thread.exception, AccessFault)

    def test_explicit_grant_opens_access(self, kernel, manager, web,
                                         database):
        db_data = database.alloc_bytes(4096)
        database.space.write(db_data, b"public")
        read_handle = manager.dom_copy(manager.dom_default(database),
                                       Permission.READ)
        manager.grant_create(manager.dom_default(web), read_handle)
        got = []

        def body(t):
            got.append(kernel.access.read(t.codoms, db_data, 6, t))
            yield from t.compute(1)

        kernel.spawn(web, body)
        kernel.run()
        kernel.check()
        assert got == [b"public"]

    def test_grant_is_directional(self, kernel, manager, web, database):
        """web->database access does not imply database->web."""
        manager.grant_create(manager.dom_default(web),
                             manager.dom_copy(manager.dom_default(database),
                                              Permission.READ))
        web_data = web.alloc_bytes(4096)

        def body(t):
            kernel.access.read(t.codoms, web_data, 1, t)
            yield from t.compute(1)

        thread = kernel.spawn(database, body)
        kernel.run()
        assert isinstance(thread.exception, AccessFault)

    def test_delegation_cannot_amplify(self, manager, database):
        read = manager.dom_copy(manager.dom_default(database),
                                Permission.READ)
        with pytest.raises(PermissionDenied):
            manager.dom_copy(read, Permission.OWNER)

    def test_revoked_grant_closes_access(self, kernel, manager, web,
                                         database):
        db_data = database.alloc_bytes(4096)
        grant = manager.grant_create(
            manager.dom_default(web),
            manager.dom_copy(manager.dom_default(database),
                             Permission.READ))
        manager.grant_revoke(grant)

        def body(t):
            kernel.access.read(t.codoms, db_data, 1, t)
            yield from t.compute(1)

        thread = kernel.spawn(web, body)
        kernel.run()
        assert isinstance(thread.exception, AccessFault)


class TestP2_EntryPointsOnly:
    """P2: inter-process calls always enter through exported, aligned
    entry points, with a valid callee state."""

    def test_call_lands_on_registered_entry(self, kernel, manager, web,
                                            database):
        address, _ = wire_up_call(manager, web, database)
        results = []

        def body(t):
            results.append((yield from t.kernel.dipc.call(t, address,
                                                          "k")))

        kernel.spawn(web, body)
        kernel.run()
        kernel.check()
        assert results == [("row", "k")]

    def test_unaligned_jump_into_proxy_rejected(self, kernel, manager, web,
                                                database):
        """CODOMs alignment forces calls to the proxy's first
        instruction; a jump into its middle faults."""
        address, _ = wire_up_call(manager, web, database)

        def body(t):
            kernel.access.check_call(t.codoms, address + 8, t)
            yield from t.compute(1)

        thread = kernel.spawn(web, body)
        kernel.run()
        assert isinstance(thread.exception, EntryAlignmentFault)

    def test_call_permission_gives_no_data_access_to_proxy(self, kernel,
                                                           manager, web,
                                                           database):
        address, _ = wire_up_call(manager, web, database)

        def body(t):
            kernel.access.read(t.codoms, address, 8, t)  # read proxy code
            yield from t.compute(1)

        thread = kernel.spawn(web, body)
        kernel.run()
        assert isinstance(thread.exception, AccessFault)


class TestP3_ReturnsAreSafe:
    """P3: calls return to the expected point with the caller's state."""

    def test_state_restored_even_when_callee_meddles(self, kernel, manager,
                                                     web, database):
        def meddler(t, key):
            # the callee scribbles on what it can reach; the KCS copy of
            # the caller's state is out of its reach
            t.codoms.privileged = False
            yield from t.compute(1)
            return key

        address, _ = wire_up_call(manager, web, database, func=meddler)

        def body(t):
            tag = t.codoms.current_tag
            sp_stack = t.kernel.dipc.stacks.stack_for(t, web)
            sp = sp_stack.sp
            yield from t.kernel.dipc.call(t, address, "k")
            assert t.codoms.current_tag == tag
            assert not t.codoms.privileged
            assert sp_stack.sp == sp

        kernel.spawn(web, body)
        kernel.run()
        kernel.check()

    def test_kcs_balances_across_nested_and_faulting_calls(self, kernel,
                                                           manager, web,
                                                           database):
        calls = {"n": 0}

        def flaky(t, key):
            calls["n"] += 1
            yield from t.compute(1)
            if calls["n"] % 2:
                raise RuntimeError("intermittent")
            return key

        address, _ = wire_up_call(manager, web, database, func=flaky)

        def body(t):
            for _ in range(6):
                try:
                    yield from t.kernel.dipc.call(t, address, "k")
                except RemoteFault:
                    pass
            assert t.kcs.depth == 0

        kernel.spawn(web, body)
        kernel.run()
        kernel.check()


class TestP4_SignatureAgreement:
    def test_mismatch_rejected_at_request_time(self, manager, web,
                                               database):
        handle = make_query_entry(manager, database)
        with pytest.raises(SignatureMismatch):
            manager.entry_request(web, handle, [EntryDescriptor(
                signature=Signature(in_regs=4, out_regs=2))])

    def test_stack_size_is_part_of_the_contract(self, manager, web,
                                                database):
        handle = make_query_entry(manager, database)
        with pytest.raises(SignatureMismatch):
            manager.entry_request(web, handle, [EntryDescriptor(
                signature=Signature(in_regs=1, out_regs=1,
                                    stack_bytes=64))])


class TestP5_FaultContainment:
    """P5: a process failing its own policy hurts only itself."""

    def test_callee_crash_never_reaches_other_processes(self, kernel,
                                                        manager, web,
                                                        database):
        def crasher(t, key):
            yield from t.compute(1)
            raise MemoryError("heap corruption in the database")

        address, _ = wire_up_call(manager, web, database, func=crasher)
        outcomes = []

        def body(t):
            try:
                yield from t.kernel.dipc.call(t, address, "k")
            except RemoteFault as fault:
                outcomes.append(("fault", fault.origin))
            yield from t.compute(10)
            outcomes.append(("alive", t.current_process.name))

        kernel.spawn(web, body)
        kernel.run()
        kernel.check()
        assert outcomes == [("fault", "database"), ("alive", "web")]
        assert web.alive and database.alive

    def test_sloppy_caller_stub_hurts_only_the_caller(self, kernel,
                                                      manager, web,
                                                      database):
        """A caller that skips register/stack isolation only loses its
        own guarantees: the callee still executes correctly and its own
        policy (enforced in the proxy) still holds."""
        observed = []

        def strict_callee(t, key):
            observed.append(
                t.kernel.dipc.stacks.stack_for(t, database))
            yield from t.compute(1)
            return key

        # caller requests *nothing* (a 'broken' stub); callee demands
        # stack confidentiality — the proxy enforces it regardless
        address, proxy = wire_up_call(
            manager, web, database,
            caller_policy=IsolationPolicy(),
            callee_policy=IsolationPolicy(stack_confidentiality=True),
            func=strict_callee)
        assert proxy.policy.stack_confidentiality

        def body(t):
            caller_stack = t.kernel.dipc.stacks.stack_for(t, web)
            result = yield from t.kernel.dipc.call(t, address, "k")
            assert result == "k"
            assert observed[0] is not caller_stack

        kernel.spawn(web, body)
        kernel.run()
        kernel.check()
