"""Exporters (Chrome trace JSON, spans CSV) and run-metadata capture."""

import csv
import json

from repro.kernel import Kernel
from repro.trace import TraceSession
from repro.trace.export import (SPAN_CSV_COLUMNS, chrome_trace_dict,
                                render_counters, write_chrome_trace,
                                write_spans_csv)
from repro.trace.meta import (collect_meta, constants_hash, git_sha,
                              summary_line, write_meta)


def traced_session():
    with TraceSession() as session:
        kernel = Kernel(num_cpus=1)
        proc = kernel.spawn_process("worker")

        def body(t):
            yield from t.compute(50)
            yield t.yield_cpu()
            yield from t.compute(25)

        kernel.spawn(proc, body, name="w0", pin=0)
        kernel.spawn(proc, body, name="w1", pin=0)
        kernel.run()
    session.finalize()
    return session


def test_chrome_trace_dict_structure():
    trace = chrome_trace_dict(traced_session())
    events = trace["traceEvents"]
    assert trace["otherData"]["clock"] == "simulated-ns"
    assert trace["otherData"]["runs"] == ["run1"]
    phases = {event["ph"] for event in events}
    assert "X" in phases  # at least one complete span
    assert "M" in phases  # process-name metadata
    # every event carries the required keys and microsecond timestamps
    for event in events:
        assert {"ph", "name", "pid", "tid"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0
            assert event["ts"] >= 0


def test_trace_json_roundtrips_through_disk(tmp_path):
    path = write_chrome_trace(traced_session(), str(tmp_path / "trace.json"))
    with open(path) as handle:
        trace = json.load(handle)
    assert len(trace["traceEvents"]) > 0


def test_process_names_are_prefixed_with_run_label():
    trace = chrome_trace_dict(traced_session())
    names = [event["args"]["name"] for event in trace["traceEvents"]
             if event["ph"] == "M" and event["name"] == "process_name"]
    assert names
    assert all(name.startswith("run1/") for name in names)


def test_counter_events_emitted():
    trace = chrome_trace_dict(traced_session())
    counters = [event for event in trace["traceEvents"]
                if event["ph"] == "C"]
    assert any(event["name"] == "engine.events_processed"
               for event in counters)


def test_multiple_runs_get_distinct_pid_blocks():
    with TraceSession() as session:
        for _ in range(2):
            kernel = Kernel(num_cpus=1)
            proc = kernel.spawn_process("p")

            def body(t):
                yield from t.compute(10)

            kernel.spawn(proc, body, pin=0)
            kernel.run()
    trace = chrome_trace_dict(session)
    pids_by_run = {}
    for event in trace["traceEvents"]:
        if event["ph"] == "M":
            run = event["args"]["name"].split("/")[0]
            pids_by_run.setdefault(run, set()).add(event["pid"])
    assert set(pids_by_run) == {"run1", "run2"}
    assert not (pids_by_run["run1"] & pids_by_run["run2"])


def test_spans_csv_layout(tmp_path):
    path = write_spans_csv(traced_session(), str(tmp_path / "spans.csv"))
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    assert tuple(rows[0]) == SPAN_CSV_COLUMNS
    assert len(rows) > 1
    for row in rows[1:]:
        assert row[0] == "run1"
        start, end, duration = float(row[5]), float(row[6]), float(row[7])
        assert end >= start
        assert duration == end - start


def test_render_counters_mentions_harvested_stats():
    text = render_counters(traced_session())
    assert "engine.events_processed" in text
    assert "sched.context_switches" in text


def test_collect_meta_contents():
    meta = collect_meta(experiment="fig5", quick=True,
                        params={"iters": 3}, argv=["prog", "trace"])
    assert meta["meta_version"] == 1
    assert meta["experiment"] == "fig5"
    assert meta["mode"] == "quick"
    assert meta["params"] == {"iters": 3}
    assert meta["argv"] == ["prog", "trace"]
    assert meta["python"].count(".") >= 1
    assert meta["seed"] == meta["cost_constants"]["JITTER_SEED"]
    assert len(meta["constants_hash"]) == 12
    assert meta["constants_hash"] == constants_hash()


def test_meta_roundtrips_through_disk(tmp_path):
    meta = collect_meta(experiment="report", quick=False)
    path = write_meta(str(tmp_path / "meta.json"), meta)
    with open(path) as handle:
        assert json.load(handle) == meta


def test_git_sha_shape():
    sha = git_sha(cwd="/root/repo")
    assert sha == "unknown" or len(sha.split("-", 1)[0]) == 40


def test_summary_line_is_single_line():
    line = summary_line(collect_meta(experiment="x", quick=True))
    assert "\n" not in line
    assert "quick mode" in line
    assert "costs" in line
