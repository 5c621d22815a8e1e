"""End-to-end tests for the compiler pass + loader + runtime + resolver:
the Figure 3 workflow written with annotations."""

import pytest

from repro.codoms.apl import Permission
from repro.core import (AnnotatedModule, DipcRuntime, IsolationPolicy,
                        Signature, compile_module)
from repro.errors import DipcError, LoaderError, SignatureMismatch
from repro.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


@pytest.fixture
def runtime(kernel):
    return DipcRuntime(kernel)


def build_database_module():
    module = AnnotatedModule("database")

    @module.entry("default", Signature(in_regs=1, out_regs=1),
                  iso_callee=IsolationPolicy(dcs_confidentiality=True))
    def query(t, key):
        yield from t.compute(10)
        return ("row", key)

    return module


def build_web_module():
    module = AnnotatedModule("web")
    module.import_entry("query", "/dipc/db/query",
                        Signature(in_regs=1, out_regs=1),
                        iso_caller=IsolationPolicy(reg_integrity=True))
    return module


def test_compile_emits_sections():
    image = compile_module(build_database_module(), export_path="/dipc/db")
    assert ".dipc.entries" in image.sections
    assert image.sections[".dipc.entries"] == [("query", "default")]


def test_compile_rejects_entry_in_undeclared_domain():
    module = AnnotatedModule("bad")
    module.entries["x"] = type("E", (), {
        "name": "x", "domain": "ghost", "func": None,
        "signature": Signature(), "iso_callee": IsolationPolicy()})()
    with pytest.raises(LoaderError):
        compile_module(module)


def test_duplicate_entry_rejected():
    module = AnnotatedModule("m")

    @module.entry("default", Signature())
    def f(t):
        yield from t.compute(1)

    with pytest.raises(LoaderError):
        @module.entry("default", Signature(), name="f")
        def g(t):
            yield from t.compute(1)


def test_full_figure3_workflow(kernel, runtime):
    """Load both modules, call the import: resolution (step A), proxy
    creation (step B), then the call itself (steps 1-3)."""
    db_proc = kernel.spawn_process("database", dipc=True)
    web_proc = kernel.spawn_process("web", dipc=True)
    runtime.enable(db_proc, compile_module(build_database_module(),
                                           export_path="/dipc/db"))
    web_image = runtime.enable(web_proc, compile_module(build_web_module()))
    results = []

    def body(t):
        results.append((yield from web_image.call_import(t, "query", "k1")))
        results.append((yield from web_image.call_import(t, "query", "k2")))

    kernel.spawn(web_proc, body, pin=0)
    kernel.run()
    kernel.check()
    assert results == [("row", "k1"), ("row", "k2")]
    # resolution happened exactly once; the proxy is reused (§3.2)
    assert web_image.imports["query"].resolutions == 1
    assert runtime.manager.proxies_created == 1


def test_import_signature_mismatch_detected_p4(kernel, runtime):
    db_proc = kernel.spawn_process("database", dipc=True)
    web_proc = kernel.spawn_process("web", dipc=True)
    runtime.enable(db_proc, compile_module(build_database_module(),
                                           export_path="/dipc/db"))
    bad_web = AnnotatedModule("web")
    bad_web.import_entry("query", "/dipc/db/query",
                         Signature(in_regs=3, out_regs=1))
    image = runtime.enable(web_proc, compile_module(bad_web))

    def body(t):
        yield from image.call_import(t, "query", 1, 2, 3)

    thread = kernel.spawn(web_proc, body)
    kernel.run()
    assert isinstance(thread.exception, SignatureMismatch)


def test_unresolvable_import_fails(kernel, runtime):
    web_proc = kernel.spawn_process("web", dipc=True)
    module = AnnotatedModule("web")
    module.import_entry("ghost", "/nowhere/ghost", Signature())
    image = runtime.enable(web_proc, compile_module(module))

    def body(t):
        yield from image.call_import(t, "ghost")

    thread = kernel.spawn(web_proc, body)
    kernel.run()
    assert thread.exception is not None


def test_unknown_import_name(kernel, runtime):
    web_proc = kernel.spawn_process("web", dipc=True)
    image = runtime.enable(web_proc, compile_module(AnnotatedModule("web")))

    def body(t):
        yield from image.call_import(t, "missing")

    thread = kernel.spawn(web_proc, body)
    kernel.run()
    assert isinstance(thread.exception, LoaderError)


def test_custom_resolution_hook(kernel, runtime):
    """§6.2.1: programmers can provide their own entry resolution hooks."""
    db_proc = kernel.spawn_process("database", dipc=True)
    web_proc = kernel.spawn_process("web", dipc=True)
    db_image = runtime.enable(
        db_proc, compile_module(build_database_module()))  # not published
    runtime.resolver.register_hook(
        "/dipc/db/query", lambda path: db_image.exports["query"])
    web_image = runtime.enable(web_proc, compile_module(build_web_module()))
    results = []

    def body(t):
        results.append((yield from web_image.call_import(t, "query", "k")))

    kernel.spawn(web_proc, body, pin=0)
    kernel.run()
    kernel.check()
    assert results == [("row", "k")]


def test_perm_annotation_creates_intra_process_grant(kernel, runtime):
    """§2.4/§5.3.1: asymmetric policies — e.g. the PHP interpreter is
    directly readable by the web server, avoiding IPC entirely."""
    proc = kernel.spawn_process("server", dipc=True)
    module = AnnotatedModule("server")
    module.domain("interp")
    module.perm("default", "interp", Permission.WRITE)
    image = runtime.enable(proc, compile_module(module))
    interp_tag = image.domains["interp"].tag
    assert runtime.manager.apls.permission(
        proc.default_tag, interp_tag) is Permission.WRITE
    # and not the other way around: asymmetric
    assert runtime.manager.apls.permission(
        interp_tag, proc.default_tag) is Permission.NIL


def test_loaded_image_bookkeeping(kernel, runtime):
    db_proc = kernel.spawn_process("database", dipc=True)
    image = runtime.enable(db_proc, build_database_module())
    assert "query" in image.exports
    assert runtime.image_of(db_proc) is image
