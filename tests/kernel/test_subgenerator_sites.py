"""Static guard: the charging helpers are always used with ``yield from``.

``Thread.compute``, ``Thread.kwork`` and ``Thread.syscall`` are
sub-generators. A body that yields one bare (``yield t.compute(5)``)
hands the scheduler a generator object instead of an effect, which
crashes only the thread that reaches that line ("yielded a
non-effect"); in a rarely taken branch that would surface as a wrong
figure, not a failing test. This scans every module of the project.
"""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[2]
SCANNED = ("src", "tests", "examples")
HELPERS = ("compute", "kwork", "syscall")


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
