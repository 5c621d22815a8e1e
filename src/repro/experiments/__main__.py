"""Command-line entry point regenerating the paper's tables and figures.

``python -m repro.experiments run [names...] [--quick] [--jobs N]
[--trace] [--chaos]``

One verb, orthogonal flags:

* ``names`` — table1, fig1, fig2, fig5, fig6, fig7, fig8, fig9 (alias
  fig09_load), fig10 (alias fig10_topo), fig11 (alias
  fig11_isolation), fig12 (alias fig12_bracket), extras, ablation,
  microbench, report, or ``all``;
* ``--quick`` shrinks iteration counts / windows (for smoke runs);
* ``--jobs N`` routes each experiment through the sharded point runner
  (``repro.runner``): the figure is decomposed into independent
  simulation points, fanned out across N worker processes, and merged
  back in spec order — the rendered output is byte-identical to the
  default serial path. Any ``--jobs`` value (including 1) also enables
  the content-addressed result cache under ``--cache-dir`` (default
  ``.repro-cache/``); pass ``--no-cache`` to disable it;
* ``--trace`` records a span trace of the (single) experiment and
  writes ``trace.json`` (Chrome trace-event format, loadable at
  https://ui.perfetto.dev), ``spans.csv`` and ``meta.json`` into
  ``--out``;
* ``--chaos`` arms a deterministic fault storm (``repro.fault``,
  seeded by ``--seed``) against every kernel the experiment builds,
  and prints the injection summary after the figure.

``--trace``/``--chaos`` attach to kernels built *in this process*, so
either flag forces the serial path (a note is printed when ``--jobs``
is also given).

The bare form ``python -m repro.experiments [names...]`` is shorthand
for ``run``. The ``chaos`` subcommand keeps working as a deprecated
alias (a warning goes to stderr): ``chaos --seed N --storms K`` runs
the standalone storm harness, writes the injection log to
``--out``/chaos.log, verifies the log is byte-identical for the same
seed, and exits non-zero on any invariant violation.

``python -m repro.experiments check <target> [--schedules N] [--seed S]
[--chaos] [--strategy random|perturb] [--jobs N] [--shrink] [--out DIR]
[--topo-n N]`` explores N interleavings of a figure driver or a
:mod:`repro.check.scenarios` workload under the deterministic schedule
controller, running the deadlock detector and the A1-A9 invariant
auditor after each; failing schedules are written as repro bundles
(default ``.repro-check/``) and ``--shrink`` delta-debugs the first one
to a minimal repro. ``check --replay <bundle>`` re-executes a bundle
and exits 0 iff the recorded outcome reproduced byte-identically.

``python -m repro.experiments conformance [--quick] [--seed S]
[--jobs N] [--out DIR]`` sweeps the kill-point recovery conformance
matrix (:mod:`repro.recovery.conformance`): every unwind phase
(pre-call, in-proxy, mid-callee, mid-reply, during-rebuild) crossed
with every registered IPC primitive and topology pattern, killing the
root service at exactly the probed event and machine-checking the
A1-A10 audit, reclamation sweep and a goodput floor. ``--quick``
restricts the pattern axis to the chain; failing cells are written as
``check --replay`` bundles under ``--out`` (default ``.repro-check/``).
"""

from __future__ import annotations

import argparse
import os
import sys
import time


def _run_table1(quick: bool) -> str:
    from repro.experiments import table01_arch
    return table01_arch.render(table01_arch.run())


def _run_fig1(quick: bool) -> str:
    from repro.experiments import fig01_breakdown
    return fig01_breakdown.render(
        fig01_breakdown.run(concurrency=64 if quick else 256,
                            scale=0.3 if quick else 1.0))


def _run_fig2(quick: bool) -> str:
    from repro.experiments import fig02_ipc_breakdown
    return fig02_ipc_breakdown.render(
        fig02_ipc_breakdown.run(iters=15 if quick else 40))


def _run_fig5(quick: bool) -> str:
    from repro.experiments import fig05_sync_calls
    return fig05_sync_calls.render(
        fig05_sync_calls.run(iters=15 if quick else 40))


def _run_fig6(quick: bool) -> str:
    from repro.experiments import fig06_argsize
    sizes = tuple(16 ** i for i in range(0, 6)) if quick else \
        fig06_argsize.DEFAULT_SIZES
    return fig06_argsize.render(
        fig06_argsize.run(sizes=sizes, iters=8 if quick else 20))


def _run_fig7(quick: bool) -> str:
    from repro.experiments import fig07_driver
    return fig07_driver.render(
        fig07_driver.run(iters=10 if quick else 30))


def _run_fig8(quick: bool) -> str:
    from repro.experiments import fig08_oltp
    concurrencies = (4, 16, 64) if quick else \
        fig08_oltp.DEFAULT_CONCURRENCIES
    scale = 0.25 if quick else 1.0
    on_disk = fig08_oltp.run("on-disk", concurrencies, scale)
    in_mem = fig08_oltp.run("in-memory", concurrencies, scale)
    return (fig08_oltp.render(on_disk) + "\n\n"
            + fig08_oltp.render(in_mem))


def _run_fig9(quick: bool) -> str:
    from repro.experiments import fig09_load
    return fig09_load.run(quick)


def _run_fig10(quick: bool) -> str:
    from repro.experiments import fig10_topo
    return fig10_topo.run(quick)


def _run_fig11(quick: bool) -> str:
    from repro.experiments import fig11_isolation
    return fig11_isolation.run(quick)


def _run_fig12(quick: bool) -> str:
    from repro.experiments import fig12_bracket
    return fig12_bracket.run(quick)


def _run_extras(quick: bool) -> str:
    from repro.experiments import extras
    return extras.render()


def _run_ablation(quick: bool) -> str:
    from repro.experiments import ablation
    return ablation.render(ablation.run(iters=10 if quick else 25))


def _run_microbench(quick: bool) -> str:
    from repro.runner import registry
    from repro.runner.points import execute_spec
    specs = registry.specs_for("microbench", quick)
    return registry.assemble("microbench", specs,
                             [execute_spec(spec) for spec in specs])


def _run_report(quick: bool) -> str:
    from repro.experiments import report
    path = report.generate(quick=quick)
    return f"report written to {path}"


def _run_chaos(quick: bool) -> str:
    from repro.fault import chaos
    report = chaos.run_chaos(7, 2 if quick else 5, quick=quick)
    return chaos.render(report)


def _make_cache(args):
    """The shared result cache, or None when ``--no-cache`` is given."""
    if args.no_cache:
        return None
    from repro.runner.cache import ResultCache
    return ResultCache(args.cache_dir)


def _run_sharded(name: str, quick: bool, jobs: int, cache, *,
                 checkpoint=None, resume=False, timeout_s=None,
                 retries=2) -> str:
    """Run one experiment through the point runner (see repro.runner)."""
    from repro.runner import registry
    from repro.runner.pool import run_points, summary
    specs = registry.specs_for(name, quick)
    results, stats = run_points(specs, jobs=jobs, cache=cache,
                                checkpoint=checkpoint, resume=resume,
                                timeout_s=timeout_s, retries=retries)
    print(summary(stats))
    return registry.assemble(name, specs, results)


RUNNERS = {
    "table1": _run_table1,
    "fig1": _run_fig1,
    "fig2": _run_fig2,
    "fig5": _run_fig5,
    "fig6": _run_fig6,
    "fig7": _run_fig7,
    "fig8": _run_fig8,
    "fig9": _run_fig9,
    "fig10": _run_fig10,
    "fig11": _run_fig11,
    "fig12": _run_fig12,
    "extras": _run_extras,
    "ablation": _run_ablation,
    "microbench": _run_microbench,
    "report": _run_report,
    "chaos": _run_chaos,
}

#: "all" runs every figure/table but not the aggregate report, the
#: chaos smoke, or the raw microbenchmark sweep (a tuning tool)
DEFAULT_SET = [name for name in RUNNERS
               if name not in ("report", "chaos", "microbench")]

#: long-form aliases accepted on the command line
_ALIASES = {
    "fig09_load": "fig9",
    "fig9_load": "fig9",
    "fig10_topo": "fig10",
    "fig11_isolation": "fig11",
    "fig12_bracket": "fig12",
}


def _normalize(name: str) -> str:
    """Accept aliases and zero-padded figure names: fig05 → fig5."""
    name = _ALIASES.get(name, name)
    if name.startswith("fig0") and len(name) == 5:
        return "fig" + name[4]
    return name


def _run_traced(name: str, quick: bool, out_dir: str,
                chaos_seed=None) -> int:
    """Run one experiment under a TraceSession; write the trace
    artifacts. ``chaos_seed`` additionally arms a ChaosSession."""
    from repro.trace.export import (render_counters, write_chrome_trace,
                                    write_spans_csv)
    from repro.trace.meta import collect_meta, write_meta
    from repro.trace.tracer import TraceSession

    runner = RUNNERS.get(name)
    if runner is None:
        print(f"unknown experiment '{name}' "
              f"(choose from {', '.join(RUNNERS)})", file=sys.stderr)
        return 2
    os.makedirs(out_dir, exist_ok=True)
    start = time.time()
    print(f"\n{'=' * 78}\ntrace {name}\n{'=' * 78}")
    with TraceSession() as session:
        if chaos_seed is None:
            output = runner(quick)
        else:
            from repro.fault.session import ChaosSession
            with ChaosSession(seed=chaos_seed) as chaos_session:
                output = runner(quick)
    session.finalize()
    print(output)
    if chaos_seed is not None:
        print(chaos_session.summary())
    trace_path = write_chrome_trace(
        session, os.path.join(out_dir, "trace.json"))
    csv_path = write_spans_csv(session, os.path.join(out_dir, "spans.csv"))
    meta_path = write_meta(
        os.path.join(out_dir, "meta.json"),
        collect_meta(experiment=name, quick=quick,
                     params={"traced_runs": len(session.runs)}))
    print(f"\ncounters ({len(session.runs)} traced runs, "
          f"{session.span_count()} spans):")
    print(render_counters(session))
    print(f"\nwrote {trace_path} (load at https://ui.perfetto.dev), "
          f"{csv_path}, {meta_path}")
    print(f"\n[trace {name} took {time.time() - start:.1f}s]")
    return 0


def _run_chaos_cli(seed: int, storms: int, quick: bool,
                   out_dir: str, jobs: int = 0) -> int:
    """Run fault storms; write the injection log; non-zero on failure."""
    from repro.fault import chaos

    os.makedirs(out_dir, exist_ok=True)
    start = time.time()
    print(f"\n{'=' * 78}\nchaos seed={seed} storms={storms}\n{'=' * 78}")
    report = chaos.run_chaos(seed, storms, quick=quick, verify=True,
                             jobs=jobs)
    print(chaos.render(report))
    log_path = os.path.join(out_dir, "chaos.log")
    with open(log_path, "w") as fh:
        fh.write(report.log_text)
    print(f"\nwrote {log_path} ({report.total_injections} injections)")
    print(f"\n[chaos took {time.time() - start:.1f}s]")
    return 0 if report.ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the dIPC paper's tables and figures.")
    parser.add_argument("names", nargs="*", default=["all"],
                        help="'run' (optional verb) followed by "
                             f"experiments: {', '.join(RUNNERS)}, or "
                             "'all'; 'check <target>' explores "
                             "interleavings; 'conformance' sweeps the "
                             "kill-point recovery matrix; 'chaos' is a "
                             "deprecated alias for the storm harness")
    parser.add_argument("--quick", action="store_true",
                        help="smaller iteration counts / windows")
    parser.add_argument("--jobs", type=int, default=0,
                        help="shard experiments into simulation points "
                             "and compute them on N worker processes "
                             "(also enables the result cache); "
                             "0 = original serial path (default)")
    parser.add_argument("--trace", action="store_true",
                        help="record a span trace of the (single) "
                             "experiment; artifacts go to --out")
    parser.add_argument("--chaos", action="store_true",
                        help="arm a deterministic fault storm (seeded "
                             "by --seed) against every kernel the "
                             "experiment builds; exits non-zero if the "
                             "post-run invariant audit (A1-A10) fails")
    parser.add_argument("--supervise", action="store_true",
                        help="run load experiments with supervised "
                             "server pools and circuit breakers: killed "
                             "workers restart, killed server processes "
                             "are rebuilt (composes with --chaos)")
    parser.add_argument("--resume", action="store_true",
                        help="resume an interrupted sweep from its "
                             "checkpoint journal under --cache-dir, "
                             "recomputing only unfinished points")
    parser.add_argument("--point-timeout", type=float, default=600.0,
                        help="with --jobs: declare the worker pool "
                             "wedged when no point completes for this "
                             "many seconds (0 disables; default 600)")
    parser.add_argument("--retries", type=int, default=2,
                        help="with --jobs: per-point retry budget after "
                             "a crashed or stalled worker (default 2)")
    parser.add_argument("--cache-dir", default=".repro-cache",
                        help="result-cache directory used with --jobs "
                             "(default .repro-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="with --jobs: recompute every point, "
                             "skipping the result cache")
    parser.add_argument("--out", default=".",
                        help="directory for trace artifacts "
                             "(trace.json, spans.csv, meta.json) and "
                             "the chaos injection log (chaos.log)")
    parser.add_argument("--seed", type=int, default=7,
                        help="chaos: base RNG seed (default 7)")
    parser.add_argument("--storms", type=int, default=25,
                        help="deprecated 'chaos' subcommand: number of "
                             "fault storms (default 25)")
    parser.add_argument("--schedules", type=int, default=25,
                        help="'check' verb: number of interleavings to "
                             "explore per target (default 25)")
    parser.add_argument("--strategy", default="random",
                        choices=("random", "perturb"),
                        help="'check' verb: schedule exploration "
                             "strategy (default random; schedule 0 is "
                             "always the uncontrolled baseline)")
    parser.add_argument("--shrink", action="store_true",
                        help="'check' verb: delta-debug the first "
                             "failing schedule down to a minimal repro")
    parser.add_argument("--replay", metavar="BUNDLE",
                        help="'check' verb: re-execute a repro bundle "
                             "and exit 0 iff the recorded outcome "
                             "reproduced")
    parser.add_argument("--topo-n", type=int, default=None,
                        help="'check' verb: topology size for sizeable "
                             "scenarios (e.g. chain4)")
    args = parser.parse_args(argv)
    names = list(args.names) or ["all"]

    # -- verbs ---------------------------------------------------------
    if names[0] == "check" or args.replay:
        from repro.check import cli as check_cli
        if args.replay:
            return check_cli.run_replay(args.replay)
        if len(names) != 2:
            print("usage: python -m repro.experiments check <target> "
                  "[--schedules N] [--seed S] [--chaos] [--strategy S] "
                  "[--jobs N] [--shrink] [--out DIR] [--topo-n N]  |  "
                  "check --replay <bundle>", file=sys.stderr)
            return 2
        out_dir = args.out if args.out != "." else None
        cache = _make_cache(args)
        return check_cli.run_check(
            _normalize(names[1]), schedules=args.schedules,
            seed=args.seed, chaos=args.chaos, strategy=args.strategy,
            jobs=args.jobs, shrink=args.shrink, out_dir=out_dir,
            topo_n=args.topo_n, cache=cache)
    if names[0] == "conformance" and len(names) == 1:
        from repro.recovery.conformance import run_matrix
        out_dir = args.out if args.out != "." else None
        return run_matrix(quick=args.quick, seed=args.seed,
                          jobs=args.jobs, out_dir=out_dir,
                          cache=_make_cache(args) if args.jobs > 0
                          else None)
    if names[0] == "chaos" and len(names) == 1:
        print("warning: the 'chaos' subcommand is deprecated; the "
              "storm harness keeps it working, and 'run <fig> --chaos' "
              "storms any experiment", file=sys.stderr)
        return _run_chaos_cli(args.seed, args.storms, args.quick,
                              args.out, jobs=args.jobs)
    if names[0] == "run":
        names = names[1:] or ["all"]

    names = [_normalize(name) for name in names]
    names = DEFAULT_SET if (not names or "all" in names) else names
    for name in names:
        if name not in RUNNERS:
            print(f"unknown experiment '{name}' "
                  f"(choose from {', '.join(RUNNERS)})", file=sys.stderr)
            return 2

    # -- orthogonal flags ----------------------------------------------
    if args.resume and (args.chaos or args.supervise or args.trace):
        print("--resume applies to the point runner; it cannot be "
              "combined with --chaos/--supervise/--trace",
              file=sys.stderr)
        return 2
    if args.trace:
        if len(names) != 1:
            print("--trace records one experiment at a time",
                  file=sys.stderr)
            return 2
        if args.jobs > 0:
            print("note: --trace attaches to in-process kernels; "
                  "running serially (--jobs ignored)", file=sys.stderr)
        return _run_traced(names[0], args.quick, args.out,
                           chaos_seed=args.seed if args.chaos else None)
    if args.resume and args.jobs <= 0:
        args.jobs = 1  # --resume implies the runner path
    if (args.chaos or args.supervise) and args.jobs > 0:
        print("note: --chaos/--supervise attach to in-process kernels; "
              "running serially (--jobs ignored)", file=sys.stderr)
    use_runner = (args.jobs > 0 and not args.chaos
                  and not args.supervise)
    cache = _make_cache(args) if use_runner else None
    timeout_s = args.point_timeout if args.point_timeout > 0 else None
    if use_runner:
        from repro.runner.registry import SUPPORTED as _sharded
    for name in names:
        start = time.time()
        print(f"\n{'=' * 78}\n{name}\n{'=' * 78}")
        if use_runner and name in _sharded:
            print(_run_sharded(name, args.quick, args.jobs, cache,
                               checkpoint=args.cache_dir,
                               resume=args.resume, timeout_s=timeout_s,
                               retries=args.retries))
        elif use_runner and name == "report":
            from repro.experiments import report
            path = report.generate(quick=args.quick, jobs=args.jobs,
                                   cache=cache,
                                   checkpoint=args.cache_dir,
                                   resume=args.resume,
                                   timeout_s=timeout_s,
                                   retries=args.retries)
            print(f"report written to {path}")
        elif args.chaos or args.supervise:
            import contextlib
            with contextlib.ExitStack() as stack:
                chaos_session = None
                recovery_session = None
                if args.chaos:
                    from repro.fault.session import ChaosSession
                    chaos_session = stack.enter_context(
                        ChaosSession(seed=args.seed))
                if args.supervise:
                    from repro.recovery.session import RecoverySession
                    recovery_session = stack.enter_context(
                        RecoverySession(seed=args.seed))
                output = RUNNERS[name](args.quick)
            print(output)
            violations = []
            if chaos_session is not None:
                print(chaos_session.summary())
                violations.extend(chaos_session.audit_kernels())
            if recovery_session is not None:
                print(recovery_session.summary())
                violations.extend(
                    f"recovery {v}"
                    for v in recovery_session.audit_violations())
            label = "chaos audit" if args.chaos else "recovery audit"
            if violations:
                for violation in violations:
                    print(f"VIOLATION: {violation}")
                print(f"{label}: FAILED "
                      f"({len(violations)} violation(s))")
                return 1
            print(f"{label}: all invariants held")
        else:
            print(RUNNERS[name](args.quick))
        print(f"\n[{name} took {time.time() - start:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
