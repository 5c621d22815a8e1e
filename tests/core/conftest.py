"""Shared fixtures: a kernel with two dIPC-enabled processes (Web and
Database, mirroring Figure 3) and an exported 'query' entry point."""

import pytest

from repro.codoms.apl import Permission
from repro.core.api import DipcManager
from repro.core.objects import EntryDescriptor, Signature
from repro.core.policies import IsolationPolicy
from repro.kernel import Kernel


@pytest.fixture
def kernel():
    return Kernel(num_cpus=2)


@pytest.fixture
def manager(kernel):
    return DipcManager(kernel)


@pytest.fixture
def web(kernel, manager):
    return kernel.spawn_process("web", dipc=True)


@pytest.fixture
def database(kernel, manager):
    return kernel.spawn_process("database", dipc=True)


def make_query_entry(manager, database, *, policy=None, func=None):
    """Register a one-entry 'query' array in the database's default domain."""
    if func is None:
        def func(t, key):  # the exported implementation
            yield from t.compute(5)
            return ("row", key)

    descriptor = EntryDescriptor(
        signature=Signature(in_regs=1, out_regs=1),
        policy=policy or IsolationPolicy(),
        func=func, name="query")
    dom = manager.dom_default(database)
    return manager.entry_register(database, dom, [descriptor])


def wire_up_call(manager, web, database, *, caller_policy=None,
                 callee_policy=None, func=None):
    """Full A-B setup of Figure 3: register, request, grant. Returns the
    proxy entry address the web process can call."""
    handle = make_query_entry(manager, database, policy=callee_policy,
                              func=func)
    request = [EntryDescriptor(signature=Signature(in_regs=1, out_regs=1),
                               policy=caller_policy or IsolationPolicy(),
                               name="query")]
    proxy_handle, proxies = manager.entry_request(web, handle, request)
    manager.grant_create(manager.dom_default(web), proxy_handle)
    return request[0].address, proxies[0]
