"""Tests of the benchmark itself.

``PYTHONPATH=src python -m pytest layerbench -q``; they run on tiny point
lists, so the whole file takes a few seconds.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import pytest

import child
import compare
import layers
import reference
import run
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def _tiny_specs() -> list:
    """One small point of every kind the workloads use."""
    from repro.experiments import fig10_topo
    topo = next(p.kwargs for p in fig10_topo.points(
        scenarios=("chain-4",), rungs=(100.0,), reps=1,
        window_ns=100_000.0, warmup_ns=50_000.0, seed=3)
        if p.kwargs["primitive"] == "dipc")
    kinds = [
        ("fig5", {"label": "dipc_proc_high", "iters": 20}),
        ("fig11", {"primitive": "pipe", "size": 64, "iters": 20,
                   "warmup": 2}),
        ("fig9", {"primitive": "dipc", "mode": "open", "policy": "shed",
                  "offered_kops": 1600.0, "window_ns": 100_000.0,
                  "warmup_ns": 50_000.0, "seed": 3}),
        ("fig10", dict(topo)),
        ("storm", dict(topo)),
        ("oltp", {"config": "dipc", "storage": "on-disk",
                  "concurrency": 4, "scale": 0.005, "warmup_ns": 1e6,
                  "seed": 3}),
    ]
    return [{"id": workloads.point_id("tiny", kind, kwargs), "kind": kind,
             "label": kind, "kwargs": kwargs} for kind, kwargs in kinds]


def _args(tmp_path) -> argparse.Namespace:
    return argparse.Namespace(seconds=0.0, out=str(tmp_path), seed=3)


# -- point lists --------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_specs_are_a_pure_function_of_the_seed(name):
    first = workloads.specs(name, 7)
    assert json.dumps(first) == json.dumps(workloads.specs(name, 7))
    assert len({spec["id"] for spec in first}) == len(first)
    other = workloads.specs(name, 8)
    assert len(other) == len(first)
    if name == "pingpong":
        assert other == first            # pingpong takes no seed
    else:
        assert [s["id"] for s in other] != [s["id"] for s in first]


# -- judging point-passes -----------------------------------------------------

def _rows(digests):
    return [{"point": 0, "pass": index, "digest": digest, "error": "",
             "violations": [], "problems": [], "host_ns": 1}
            for index, digest in enumerate(digests)]


def test_flipped_digest_raises_error_rate():
    points = [{"id": "p0", "label": "p0"}]
    clean = run.evaluate(points, _rows(["aa", "aa", "aa"]), {})
    assert (clean["attempted"], clean["failed"]) == (3, 0)
    flipped = run.evaluate(points, _rows(["aa", "ab", "aa"]), {})
    assert flipped["failed"] == 1
    assert "pass 1" in flipped["failures"][0]["reasons"][0]
    pinned = run.evaluate(points, _rows(["aa", "aa"]), {"p0": "ff"})
    assert pinned["failed"] == 2


# -- self-time arithmetic -----------------------------------------------------

class _Clock:
    def __init__(self):
        self.now = 0

    def __call__(self) -> int:
        return self.now

    def advance(self, ns: int) -> None:
        self.now += ns


def test_self_time_on_nested_tree_with_generator_resumes(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(layers, "perf_counter_ns", clock)
    tracer = layers.LayerTracer()

    def leaf():
        clock.advance(7)

    leaf_w = tracer.wrap(leaf, "leaf", "sim")

    def gen():
        clock.advance(5)
        yield 1
        leaf_w()
        clock.advance(2)
        yield 2
        clock.advance(1)
        return 3

    gen_w = tracer.wrap(gen, "gen", "ipc")

    def outer():
        clock.advance(10)
        assert list(gen_w()) == [1, 2]
        clock.advance(3)

    tracer.wrap(outer, "outer", "experiments")()
    totals = tracer.layer_totals()
    assert totals["sim"] == {"calls": 1, "self_ns": 7}
    # one creation call plus three resumes; the second contains leaf
    assert totals["ipc"] == {"calls": 4, "self_ns": 5 + 2 + 1}
    assert totals["experiments"] == {"calls": 1, "self_ns": 10 + 3}
    assert tracer.root[1] == 28 == sum(t["self_ns"]
                                       for t in totals.values())
    spans = {site.name: (start, end, parent, span)
             for layer in tracer.spans.values()
             for site, start, end, parent, span, _point in layer}
    assert spans["leaf"][2] != 0          # nested under a gen resume
    assert spans["outer"][2] == 0         # top level


def test_timed_generator_keeps_send_throw_and_close():
    tracer = layers.LayerTracer()
    log = []

    def gen():
        try:
            value = yield "first"
            log.append(value)
            yield "second"
        except KeyError as exc:
            log.append(f"caught {exc.args[0]}")
            yield "recovered"
        finally:
            log.append("closed")

    wrapped = tracer.wrap(gen, "gen", "ipc")
    g = wrapped()
    assert next(g) == "first"
    assert g.send("hello") == "second"
    assert g.throw(KeyError("k")) == "recovered"
    g.close()
    assert log == ["hello", "caught k", "closed"]

    def delegating():
        return (yield from wrapped())

    d = delegating()
    assert next(d) == "first"
    assert d.send(1) == "second"
    with pytest.raises(StopIteration):
        d.send(None)


# -- children -----------------------------------------------------------------

def test_untraced_child_leaves_every_function_unwrapped(tmp_path):
    """A fresh interpreter runs a timed pass over every tiny point kind
    and reports the names bound to a tracer wrapper: none."""
    specs_path = tmp_path / "specs.json"
    specs_path.write_text(json.dumps(_tiny_specs()))
    code = (
        "import argparse, json, sys\n"
        "import child\n"
        "specs = json.load(open(sys.argv[1]))\n"
        "args = argparse.Namespace(seconds=0.0, out=sys.argv[2], seed=3)\n"
        "report = child.timed(args, specs)\n"
        "print(json.dumps({'wrapped': report['wrapped'],"
        " 'passes': report['passes']}))\n")
    env = dict(os.environ, PYTHONPATH=HERE)
    proc = subprocess.run([sys.executable, "-c", code, str(specs_path),
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report == {"wrapped": [], "passes": child.MIN_PASSES}


def test_traced_and_untraced_results_are_identical(tmp_path):
    specs = _tiny_specs()
    args = _args(tmp_path)
    clock = reference.HostClock().start()
    timed = child.timed(args, specs)
    timed["points"] = specs
    traced = child.traced(args, specs)
    clock.stop()
    child.scale_rows(timed["rows"] + traced["rows"], clock)
    assert layers.wrapped_names() == []              # uninstalled again
    untraced = run.point_digests(specs, timed["rows"])
    verdict = run.evaluate(specs, traced["rows"], {}, expected=untraced)
    assert verdict["failed"] == 0, verdict["failures"]
    assert run.evaluate(specs, timed["rows"], {})["failed"] == 0

    report = traced["layers"]
    assert report["attributed_ns"] + report["unattributed_ns"] \
        == report["section_ns"]
    assert report["attributed_ns"] == report["top_level_ns"]
    assert report["unattributed_ns"] < 0.02 * report["section_ns"]
    assert report["layers"]["apps"]["calls"] > 0     # the oltp point
    assert report["counts"]["worker_restarts"] >= 0
    assert os.path.getsize(tmp_path / "spans.jsonl") > 0

    assert run.ipc_us_per_call(timed).keys() == {"pipe"}
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    assert set(run.per_layer(timed, traced)) == declared


def test_host_clock_scale_averages_speed_over_the_span():
    clock = reference.HostClock()
    nominal = reference.REFERENCE_NS
    clock._starts = [0, 10, 20, 30, 40]
    clock._durations = [nominal, 2 * nominal, 2 * nominal, nominal, nominal]
    assert clock.scale(5, 25) == pytest.approx(0.5)       # slow half
    assert clock.scale(0, 40) == pytest.approx(0.8)
    # fewer than two samples inside: the neighbours count too
    assert clock.scale(31, 33) == pytest.approx(1.0)
    assert clock.scale(12, 18) == pytest.approx(0.5)


# -- comparing result sets ----------------------------------------------------

def _result(wall_s: float, digest: str = "d", seed: int = 1) -> dict:
    return {"workload": "load", "trace": False, "seed": seed,
            "digest": digest, "failed": 0, "error_rate": 0.0,
            "fingerprint": {"cpu_model": "x", "nproc": 2, "python": "3"},
            "metrics": {"wall_s": {"value": wall_s, "unit": "s"}}}


def test_compare_applies_bounds_and_flags_behaviour_changes(capsys):
    benchmark = {"end_to_end": [{"name": "wall_s", "unit": "s",
                                 "better": "lower", "bound": 0.1}],
                 "per_layer": []}
    base = [_result(v) for v in (1.0, 1.01, 0.99)]
    assert compare.compare(base, [_result(v) for v in (1.02, 1.0, 1.03)],
                           benchmark) == 0
    assert compare.compare(base, [_result(v) for v in (1.3, 1.3, 1.31)],
                           benchmark) == 1
    assert "REGRESSION" in capsys.readouterr().out
    noisy = [_result(v) for v in (0.5, 1.0, 1.5, 2.0)]
    assert compare.compare(base, noisy, benchmark) == 0
    assert "unresolved" in capsys.readouterr().out
    assert compare.compare(base, [_result(1.0, digest="e")],
                           benchmark) == 1
    assert "BEHAVIOUR CHANGE" in capsys.readouterr().out
    other = _result(1.0)
    other["fingerprint"] = {"cpu_model": "y", "nproc": 2, "python": "3"}
    assert compare.compare(base, [other], benchmark) == 2
