"""Command-line entry point regenerating the paper's tables and figures.

``python -m repro.experiments run [names...] [--quick] [--jobs N]
[--trace] [--chaos]``

One verb, orthogonal flags:

* ``names`` — table1, fig1, fig2, fig5, fig6, fig7, fig8, fig9 (alias
  fig09_load), fig10 (alias fig10_topo), fig11 (alias
  fig11_isolation), fig12 (alias fig12_bracket), extras, ablation,
  microbench, report, or ``all``;
* ``--quick`` shrinks iteration counts / windows (for smoke runs);
* ``--jobs N`` fans each experiment's simulation points out across N
  worker processes and merges them back in spec order — the rendered
  output is byte-identical to the default run, which computes the same
  points in this process. Any ``--jobs`` value (including 1) also
  enables the content-addressed result cache under ``--cache-dir``
  (default ``.repro-cache/``; pass ``--no-cache`` to disable it) and
  prints a ``runner:`` summary line;
* ``--trace`` records a span trace of the (single) experiment and
  writes ``trace.json`` (Chrome trace-event format, loadable at
  https://ui.perfetto.dev), ``spans.csv`` and ``meta.json`` into
  ``--out``;
* ``--chaos`` arms a deterministic fault storm (``repro.fault``,
  seeded by ``--seed``) against every kernel the experiment builds,
  and prints the injection summary after the figure.

Every experiment is computed one way, by :func:`run_experiment`: the
figure's registered parameter table (``registry.specs_for``) → the point
runner (``repro.runner.pool.run_points``) → ``registry.assemble``, so
``run <fig> --quick`` prints exactly its section of a quick REPORT.md.
``--trace``/``--chaos``/``--supervise`` attach to kernels built *in
this process*, so they compute the points in-process and uncached (a
note is printed when ``--jobs`` is also given).

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
import contextlib
import os
import sys
import time

from repro.runner import registry

#: every name ``run`` accepts: the registered figure drivers, then the
#: aggregate report and the chaos smoke
EXPERIMENTS = registry.SUPPORTED + ("report", "chaos")

#: "all" runs every figure/table but not the aggregate report, the
#: chaos smoke, or the raw microbenchmark sweep (a tuning tool)
DEFAULT_SET = [name for name in EXPERIMENTS
               if name not in ("report", "chaos", "microbench")]

#: long-form aliases accepted on the command line
_ALIASES = {
    "fig09_load": "fig9",
    "fig9_load": "fig9",
    "fig10_topo": "fig10",
    "fig11_isolation": "fig11",
    "fig12_bracket": "fig12",
}


def run_experiment(name: str, quick: bool, *, seed: int = 7, jobs: int = 0,
                   cache=None, checkpoint=None, resume: bool = False,
                   timeout_s=None, retries: int = 2) -> str:
    """Compute experiment ``name`` and return its rendered text.

    A registered figure goes ``registry.specs_for`` → ``run_points`` →
    ``registry.assemble``; ``report`` and the ``chaos`` smoke run their
    own point lists through the same ``run_points``, the smoke's storms
    seeded by ``seed`` (the CLI's ``--seed``). ``jobs <= 1``
    computes every point in this process, which is what lets the
    ``--trace``/``--chaos``/``--supervise`` sessions reach the kernels;
    ``jobs > 1`` fans the points out to worker processes. The output is
    the same text either way. The ``runner:`` summary line is printed
    only when ``jobs > 0`` (an explicit ``--jobs``).
    """
    from repro.runner.pool import run_points, summary

    runner = dict(jobs=jobs, cache=cache, checkpoint=checkpoint,
                  resume=resume, timeout_s=timeout_s, retries=retries)
    if name == "report":
        from repro.experiments import report
        path = report.generate(quick=quick, **runner)
        return f"report written to {path}"
    if name == "chaos":
        from repro.fault import chaos
        return chaos.render(chaos.run_chaos(seed, 2 if quick else 5,
                                            quick=quick, jobs=jobs))
    specs = registry.specs_for(name, quick)
    results, stats = run_points(specs, **runner)
    if jobs > 0:
        print(summary(stats))
    return registry.assemble(name, specs, results)


def _make_cache(args):
    """The shared result cache, or None when ``--no-cache`` is given."""
    if args.no_cache:
        return None
    from repro.runner.cache import ResultCache
    return ResultCache(args.cache_dir)


def _normalize(name: str) -> str:
    """Accept aliases and zero-padded figure names: fig05 → fig5."""
    name = _ALIASES.get(name, name)
    if name.startswith("fig0") and len(name) == 5:
        return "fig" + name[4]
    return name


def _run_traced(name: str, quick: bool, out_dir: str, seed: int,
                chaos: bool = False) -> int:
    """Run one experiment under a TraceSession; write the trace
    artifacts. ``chaos`` additionally arms a ChaosSession seeded by
    ``seed``."""
    from repro.trace.export import (render_counters, write_chrome_trace,
                                    write_spans_csv)
    from repro.trace.meta import collect_meta, write_meta
    from repro.trace.tracer import TraceSession

    os.makedirs(out_dir, exist_ok=True)
    start = time.time()
    print(f"\n{'=' * 78}\ntrace {name}\n{'=' * 78}")
    with TraceSession() as session:
        if not chaos:
            output = run_experiment(name, quick, seed=seed)
        else:
            from repro.fault.session import ChaosSession
            with ChaosSession(seed=seed) as chaos_session:
                output = run_experiment(name, quick, seed=seed)
    session.finalize()
    print(output)
    if chaos:
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
                             f"experiments: {', '.join(EXPERIMENTS)}, or "
                             "'all'; 'check <target>' explores "
                             "interleavings; 'conformance' sweeps the "
                             "kill-point recovery matrix; 'chaos' is a "
                             "deprecated alias for the storm harness")
    parser.add_argument("--quick", action="store_true",
                        help="smaller iteration counts / windows")
    parser.add_argument("--jobs", type=int, default=0,
                        help="compute each experiment's simulation "
                             "points on N worker processes (also "
                             "enables the result cache and prints a "
                             "runner: line); 0 = compute them in this "
                             "process, uncached (default)")
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
        if name not in EXPERIMENTS:
            print(f"unknown experiment '{name}' "
                  f"(choose from {', '.join(EXPERIMENTS)})",
                  file=sys.stderr)
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
        return _run_traced(names[0], args.quick, args.out, args.seed,
                           chaos=args.chaos)
    if args.resume and args.jobs <= 0:
        args.jobs = 1  # --resume reads the journal --jobs writes
    in_process = args.chaos or args.supervise
    if in_process and args.jobs > 0:
        print("note: --chaos/--supervise attach to in-process kernels; "
              "running serially (--jobs ignored)", file=sys.stderr)
    runner = {}
    if args.jobs > 0 and not in_process:
        runner = dict(jobs=args.jobs, cache=_make_cache(args),
                      checkpoint=args.cache_dir, resume=args.resume,
                      timeout_s=(args.point_timeout
                                 if args.point_timeout > 0 else None),
                      retries=args.retries)
    for name in names:
        start = time.time()
        print(f"\n{'=' * 78}\n{name}\n{'=' * 78}")
        with contextlib.ExitStack() as stack:
            chaos_session = recovery_session = None
            if args.chaos:
                from repro.fault.session import ChaosSession
                chaos_session = stack.enter_context(
                    ChaosSession(seed=args.seed))
            if args.supervise:
                from repro.recovery.session import RecoverySession
                recovery_session = stack.enter_context(
                    RecoverySession(seed=args.seed))
            output = run_experiment(name, args.quick, seed=args.seed,
                                    **runner)
        print(output)
        if in_process:
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
        print(f"\n[{name} took {time.time() - start:.1f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
