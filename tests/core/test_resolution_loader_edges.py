"""Edge cases for entry resolution and the loader."""

import pytest

from repro.codoms.apl import Permission
from repro.core import (AnnotatedModule, DipcRuntime, IsolationPolicy,
                        Signature, compile_module)
from repro.core.annotations import STUB_COOPT_FACTOR, caller_stub_charges
from repro.errors import DipcError, LoaderError
from repro.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


@pytest.fixture
def runtime(kernel):
    return DipcRuntime(kernel)


def simple_db_module():
    module = AnnotatedModule("db")

    @module.entry("default", Signature(in_regs=1, out_regs=1))
    def get(t, key):
        yield from t.compute(5)
        return key

    return module


class TestResolution:
    def test_double_publish_rejected(self, kernel, runtime):
        proc = kernel.spawn_process("db", dipc=True)
        image = runtime.enable(proc, compile_module(
            simple_db_module(), export_path="/dipc/db"))
        with pytest.raises(DipcError):
            runtime.resolver.publish(proc, "/dipc/db/get",
                                     image.exports["get"])

    def test_resolution_counts(self, kernel, runtime):
        db = kernel.spawn_process("db", dipc=True)
        web = kernel.spawn_process("web", dipc=True)
        runtime.enable(db, compile_module(simple_db_module(),
                                          export_path="/dipc/db"))
        web_module = AnnotatedModule("web")
        web_module.import_entry("get", "/dipc/db/get",
                                Signature(in_regs=1, out_regs=1))
        image = runtime.enable(web, compile_module(web_module))

        def body(t):
            for i in range(3):
                yield from image.call_import(t, "get", i)

        kernel.spawn(web, body)
        kernel.run()
        kernel.check()
        assert runtime.resolver.resolutions == 1  # resolved exactly once

    def test_failing_hook_raises(self, kernel, runtime):
        web = kernel.spawn_process("web", dipc=True)
        runtime.resolver.register_hook("/x", lambda path: None)

        def body(t):
            yield from runtime.resolver.resolve(t, "/x")

        thread = kernel.spawn(web, body)
        kernel.run()
        assert isinstance(thread.exception, DipcError)

    def test_publisher_survives_many_resolvers(self, kernel, runtime):
        db = kernel.spawn_process("db", dipc=True)
        runtime.enable(db, compile_module(simple_db_module(),
                                          export_path="/dipc/db"))
        results = []

        def resolver_body(t, i):
            handle = yield from runtime.resolver.resolve(t, "/dipc/db/get")
            results.append(handle)

        web = kernel.spawn_process("web", dipc=True)
        for i in range(4):
            kernel.spawn(web, lambda t, i=i: resolver_body(t, i))
        kernel.run()
        kernel.check()
        assert len(results) == 4
        assert len({id(h) for h in results}) == 1  # same handle to all


class TestLoaderEdges:
    def test_perm_referencing_unknown_domain(self, kernel, runtime):
        proc = kernel.spawn_process("p", dipc=True)
        module = AnnotatedModule("m")
        module.perms.append(type("P", (), {
            "src": "ghost", "dst": "default",
            "perm": Permission.READ})())
        module.domains.append("default")
        with pytest.raises(LoaderError):
            runtime.enable(proc, compile_module(module))

    def test_duplicate_import_rejected(self):
        module = AnnotatedModule("m")
        module.import_entry("x", "/a/x", Signature())
        with pytest.raises(LoaderError):
            module.import_entry("x", "/b/x", Signature())

    def test_enable_requires_dipc_process(self, kernel, runtime):
        legacy = kernel.spawn_process("legacy", dipc=False)
        with pytest.raises(DipcError):
            runtime.enable(legacy, compile_module(simple_db_module()))


class TestStubCharges:
    def drain(self, gen):
        total = 0.0
        for effect in gen:
            total += effect.ns
        return total

    def make_thread(self, kernel):
        proc = kernel.spawn_process("p")
        return kernel.spawn(proc, lambda t: iter(()), start=False)

    def test_optimized_stubs_are_cheaper(self, kernel):
        thread = self.make_thread(kernel)
        policy = IsolationPolicy(reg_integrity=True,
                                 reg_confidentiality=True)
        slow = (self.drain(caller_stub_charges(thread, policy,
                                               optimized=False,
                                               before=True))
                + self.drain(caller_stub_charges(thread, policy,
                                                 optimized=False,
                                                 before=False)))
        fast = (self.drain(caller_stub_charges(thread, policy,
                                               optimized=True,
                                               before=True))
                + self.drain(caller_stub_charges(thread, policy,
                                                 optimized=True,
                                                 before=False)))
        assert slow / fast == pytest.approx(STUB_COOPT_FACTOR)

    def test_low_policy_stub_is_free(self, kernel):
        thread = self.make_thread(kernel)
        assert self.drain(caller_stub_charges(
            thread, IsolationPolicy.low(), optimized=True,
            before=True)) == 0.0
