"""Property: a dIPC call's measured latency equals the analytic sum of
its policy's cost fragments, for *every* policy combination — the
link between the proxy implementation, the templates and the cost model.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.api import DipcManager
from repro.core.objects import EntryDescriptor, Signature
from repro.core.policies import IsolationPolicy, effective_policies
from repro.hw.costs import CostModel
from repro.kernel import Kernel


def expected_call_ns(costs: CostModel, policy: IsolationPolicy,
                     cross_process: bool) -> float:
    """The analytic composition (see DESIGN.md §4 / hw/costs.py)."""
    total = costs.FUNC_CALL + costs.PROXY_MIN_CALL + costs.PROXY_MIN_RET
    if policy.reg_integrity:
        total += costs.STUB_REG_SAVE + costs.STUB_REG_RESTORE
    if policy.reg_confidentiality:
        total += costs.STUB_REG_ZERO
    if policy.stack_integrity:
        total += costs.STUB_STACK_CAPS
    if policy.stack_confidentiality:
        total += costs.PROXY_STACK_SWITCH
        if cross_process:
            total += costs.PROXY_STACK_LOCATE
    if policy.dcs_integrity:
        total += costs.PROXY_DCS_ADJUST
    if policy.dcs_confidentiality:
        total += costs.PROXY_DCS_SWITCH
    if cross_process:
        total += (costs.TRACK_PROCESS_CALL + costs.TRACK_PROCESS_RET
                  + costs.TRACK_DONATION + 2 * costs.TLS_SWITCH)
    return total


def measure_call(policy: IsolationPolicy, cross_process: bool) -> float:
    kernel = Kernel(num_cpus=1)
    manager = DipcManager(kernel)
    caller = kernel.spawn_process("caller", dipc=True)
    if cross_process:
        callee = kernel.spawn_process("callee", dipc=True)
        dom = manager.dom_default(callee)
    else:
        callee = caller
        dom = manager.dom_create(caller)

    def target(t, x):
        yield from t.compute(0.0)
        return x

    handle = manager.entry_register(callee, dom, [EntryDescriptor(
        signature=Signature(in_regs=1, out_regs=1), policy=policy,
        func=target)])
    request = [EntryDescriptor(signature=Signature(in_regs=1, out_regs=1),
                               policy=policy)]
    proxy_handle, _ = manager.entry_request(caller, handle, request)
    manager.grant_create(manager.dom_default(caller), proxy_handle)
    samples = []

    def body(t):
        yield from manager.call(t, request[0].address, 1)  # warm up
        start = t.now()
        yield from manager.call(t, request[0].address, 1)
        samples.append(t.now() - start)

    kernel.spawn(caller, body, pin=0)
    kernel.run()
    kernel.check()
    return samples[0]


@settings(max_examples=24, deadline=None)
@given(bits=st.tuples(*[st.booleans()] * 6), cross=st.booleans())
def test_property_measured_equals_composition(bits, cross):
    policy = IsolationPolicy(*bits)
    # the proxy enforces the *effective* policy (both sides request the
    # same one here, so union == policy and the caller's integrity bits
    # are honoured)
    effective = effective_policies(policy, policy)
    costs = CostModel.default()
    measured = measure_call(policy, cross)
    assert measured == pytest.approx(
        expected_call_ns(costs, effective, cross), rel=1e-6)


def test_low_and_high_corners():
    costs = CostModel.default()
    assert measure_call(IsolationPolicy.low(), False) == pytest.approx(6.0)
    assert measure_call(IsolationPolicy.high(), True) == pytest.approx(
        expected_call_ns(costs, IsolationPolicy.high(), True))
