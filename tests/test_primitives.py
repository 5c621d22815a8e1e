"""The primitive registry: registration API, capability queries."""

import pytest

from repro import primitives
from repro.primitives import Capabilities, register_primitive


def test_seven_primitives_in_registration_order():
    assert primitives.names() == (
        "pipe", "socket", "rpc", "l4", "dipc", "dpti", "odipc")


def test_capability_flags_partition_the_mechanisms():
    # the paper's four kernel-mediated baselines: pooled, untrusted
    for name in ("pipe", "socket", "rpc", "l4"):
        caps = primitives.get(name).capabilities
        assert not caps.trusted and not caps.in_process
        assert caps.has_worker_threads
    # the trusted bracket: in-process, no pools
    for name in ("dipc", "odipc"):
        caps = primitives.get(name).capabilities
        assert caps.trusted and caps.in_process
        assert not caps.has_worker_threads
    # dpti: in-process but untrusted (it still traps into the kernel)
    caps = primitives.get("dpti").capabilities
    assert not caps.trusted and caps.in_process
    assert not caps.has_worker_threads


def test_flag_filtering_and_baselines():
    assert primitives.names(in_process=True) == ("dipc", "dpti", "odipc")
    assert primitives.names(trusted=True) == ("dipc", "odipc")
    assert primitives.baseline_names() == (
        "pipe", "socket", "rpc", "l4", "dpti")


def test_unknown_primitive_raises_keyerror_naming_options():
    with pytest.raises(KeyError, match="carrier-pigeon"):
        primitives.get("carrier-pigeon")
    with pytest.raises(KeyError, match="dipc"):
        primitives.get("nope")


def test_lazy_refs_resolve_to_live_classes():
    for spec in primitives.specs():
        channel = spec.channel()
        assert callable(getattr(channel, "build"))
        assert callable(getattr(channel, "call"))


def test_duplicate_registration_rejected():
    spec = primitives.get("pipe")
    with pytest.raises(ValueError, match="already registered"):
        register_primitive("pipe", spec.channel(), spec.capabilities)


def test_transport_class_must_look_like_a_transport():
    class NotAChannel:
        pass

    with pytest.raises(TypeError, match="build"):
        register_primitive("__bogus__", NotAChannel, Capabilities())
    assert "__bogus__" not in primitives.names()


def test_worker_thread_declaration_must_match_capabilities():
    class Inline:
        has_worker_threads = False

        def build(self):
            pass

        def call(self):
            pass

        def worker_body(self):
            pass

    with pytest.raises(ValueError, match="has_worker_threads"):
        register_primitive("__bogus2__", Inline,
                           Capabilities(has_worker_threads=True))
    assert "__bogus2__" not in primitives.names()


def test_decorator_form_registers_and_returns_the_class():
    @register_primitive("__deco__",
                        capabilities=Capabilities(
                            has_worker_threads=False))
    class DecoChannel:
        has_worker_threads = False

        def build(self):
            pass

        def call(self):
            pass

        def worker_body(self):
            pass

    try:
        assert DecoChannel.__name__ == "DecoChannel"
        assert primitives.get("__deco__").channel() is DecoChannel
    finally:
        primitives._REGISTRY.pop("__deco__", None)
