"""Static guards on the charge sites.

``Thread.compute``, ``Thread.kwork`` and ``Thread.syscall`` are
sub-generators. A body that yields one bare (``yield t.compute(5)``)
hands the scheduler a generator object instead of an effect, which
crashes only the thread that reaches that line ("yielded a
non-effect"); in a rarely taken branch that would surface as a wrong
figure, not a failing test. This scans every module of the project.

A charge site also never passes ``Block.<member>``: that lookup takes
the enum metaclass's slow attribute path (about 100 ns) on every call.
``compute`` and ``kwork`` already default to the USER and KERNEL
blocks, and ``repro.sim.stats`` holds every block as a module global.
This scans ``src/``.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "examples")
HELPERS = ("compute", "kwork", "syscall")
#: every call that takes a block: the helpers, ``Scheduler.charge`` and
#: ``CPU.charge``
CHARGERS = HELPERS + ("charge",)


def _helper_yields(source: str, filename: str = "<string>"):
    """``(line, helper, bare)`` for every ``yield``/``yield from`` of a
    ``<expr>.compute/kwork/syscall(...)`` call in ``source``."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, (ast.Yield, ast.YieldFrom)):
            continue
        call = node.value
        if isinstance(call, ast.Call) \
                and isinstance(call.func, ast.Attribute) \
                and call.func.attr in HELPERS:
            found.append((node.lineno, call.func.attr,
                          isinstance(node, ast.Yield)))
    return found


def _charge_sites(source: str, filename: str = "<string>"):
    """``(line, name, member)`` for every call of a ``CHARGERS`` name in
    ``source``; ``member`` names the ``Block.<member>`` argument, or is
    None when the call passes none."""
    found = []
    for node in ast.walk(ast.parse(source, filename)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) \
            else getattr(func, "id", None)
        if name not in CHARGERS:
            continue
        members = [arg.attr for arg in
                   [*node.args, *(kw.value for kw in node.keywords)]
                   if isinstance(arg, ast.Attribute)
                   and isinstance(arg.value, ast.Name)
                   and arg.value.id == "Block"]
        found.append((node.lineno, name, members[0] if members else None))
    return sorted(found, key=lambda site: site[0])


def _project_files():
    files = []
    for top in SCANNED:
        files.extend(sorted((ROOT / top).rglob("*.py")))
    return files


def test_guard_flags_a_bare_yield():
    source = ("def body(t):\n"
              "    yield from t.compute(5)\n"
              "    yield t.kwork(5)\n"
              "    yield (t.syscall())\n")
    assert _helper_yields(source) == [(2, "compute", False),
                                      (3, "kwork", True),
                                      (4, "syscall", True)]


def test_no_helper_is_yielded_bare():
    files = _project_files()
    assert len(files) > 100
    bare = []
    delegated = 0
    for path in files:
        for line, helper, is_bare in _helper_yields(path.read_text(),
                                                    str(path)):
            if is_bare:
                bare.append(f"{path.relative_to(ROOT)}:{line}: "
                            f"yield .{helper}(...) needs 'yield from'")
            else:
                delegated += 1
    assert not bare, "\n".join(bare)
    # the scan really saw the project's bodies
    assert delegated > 200


@pytest.mark.parametrize("helper", HELPERS)
def test_a_bare_yield_crashes_only_its_thread(helper):
    """Why the guard exists: the scheduler rejects the generator as a
    non-effect and finishes the thread with a TypeError."""
    from repro.kernel import Kernel

    kernel = Kernel(num_cpus=1)

    def body(t):
        yield getattr(t, helper)(10)

    thread = kernel.spawn(kernel.spawn_process("p"), body)
    kernel.run()
    assert isinstance(thread.exception, TypeError)
    assert "yielded a non-effect" in str(thread.exception)


def test_guard_flags_a_block_member_argument():
    source = ("def body(t, cpu):\n"
              "    yield from t.kwork(5, Block.USER)\n"
              "    yield from t.kwork(5, SYSCALL)\n"
              "    cpu.charge(block=Block.IDLE, ns=5)\n"
              "    yield from t.compute(5)\n")
    assert _charge_sites(source) == [(2, "kwork", "USER"),
                                     (3, "kwork", None),
                                     (4, "charge", "IDLE"),
                                     (5, "compute", None)]


def test_no_charge_site_looks_up_a_block_member():
    sites = 0
    lookups = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for line, name, member in _charge_sites(path.read_text(),
                                                str(path)):
            sites += 1
            if member is not None:
                lookups.append(f"{path.relative_to(ROOT)}:{line}: "
                               f".{name}(..., Block.{member}) needs "
                               f"the module global {member}")
    assert not lookups, "\n".join(lookups)
    # the scan really saw the project's charge sites
    assert sites > 100
