"""Golden-output gate: recompute the pinned digests, fail on any change.

``python3 layerbench/golden.py [--update]``

``golden.json`` pins, for seed 42:

* the digest of every benchmark point and of each workload's point list;
* the sha256 of ``report --quick``'s REPORT.md without its ``> commit``
  line (which names the commit and Python version);
* the sha256 of ``run figN --quick`` stdout for fig9-fig12, without the
  ``[figN took ...]`` and ``runner:`` lines.

Every figure is recomputed with a fresh result cache in a temporary
directory, two worker processes at a time. A change that is meant to
alter simulated output re-pins with ``--update`` and says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads   # noqa: E402

GOLDEN_PATH = os.path.join(HERE, "golden.json")
SEED = 42
FIGURES = ("fig9", "fig10", "fig11", "fig12")
JOBS = 2


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def workload_digests(seed: int = SEED) -> dict:
    """Run every point once, in this process, and digest the results."""
    points, per_workload = {}, {}
    for name in workloads.WORKLOADS:
        specs = workloads.specs(name, seed)
        digests = {}
        for spec in specs:
            result, _ops, violations = workloads.run_point(spec)
            if violations:
                raise RuntimeError(f"{spec['label']}: {violations[0]}")
            digests[spec["id"]] = workloads.digest(result)
        points.update(digests)
        per_workload[name] = workloads.workload_digest(
            digests, [spec["id"] for spec in specs])
    return {"points": points, "workloads": per_workload}


def _experiments(args, cwd: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", *args],
        cwd=cwd, env=env, stdout=subprocess.PIPE, text=True, check=True)
    return proc.stdout


def figure_digests() -> dict:
    """sha256 of the quick report and of the fig9-fig12 quick stdout."""
    out_root = os.path.join(HERE, "out")
    os.makedirs(out_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="golden-", dir=out_root)
    try:
        cache = ["--jobs", str(JOBS), "--cache-dir",
                 os.path.join(tmp, "cache")]
        _experiments(["report", "--quick", *cache], tmp)
        with open(os.path.join(tmp, "REPORT.md")) as handle:
            report = "".join(line for line in handle
                             if not line.startswith("> commit"))
        out = {"report_quick": _sha256(report)}
        for fig in FIGURES:
            stdout = _experiments(["run", fig, "--quick", *cache], tmp)
            noise = re.compile(rf"^(\[{fig} took |runner:)")
            kept = [line for line in stdout.splitlines(keepends=True)
                    if not noise.match(line)]
            out[f"{fig}_quick"] = _sha256("".join(kept))
        return out
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="layerbench/golden.py")
    parser.add_argument("--update", action="store_true",
                        help="rewrite golden.json instead of checking")
    args = parser.parse_args(argv)
    current = workload_digests()
    current["figures"] = figure_digests()
    current["seed"] = SEED
    if args.update:
        with open(GOLDEN_PATH, "w") as handle:
            json.dump(current, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"pinned {len(current['points'])} points, "
              f"{len(current['figures'])} figure outputs")
        return 0
    with open(GOLDEN_PATH) as handle:
        golden = json.load(handle)
    mismatches = [f"{section}/{name}"
                  for section in ("workloads", "figures")
                  for name, digest in golden[section].items()
                  if current[section].get(name) != digest]
    for section in ("workloads", "figures"):
        for name, digest in current[section].items():
            status = "BAD" if f"{section}/{name}" in mismatches else "ok "
            print(f"{status} {section[:-1]:<9}{name:<14} {digest[:16]}")
    if mismatches:
        print(f"golden: {len(mismatches)} mismatch(es): "
              f"{', '.join(mismatches)}")
        return 1
    print("golden: every digest matches")
    return 0


if __name__ == "__main__":
    sys.exit(main())
