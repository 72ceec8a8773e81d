#!/usr/bin/env python
"""Run the perf-gating benchmarks and write one JSON report.

Usage: ``python tools/bench_report.py [--out PATH] [--root DIR]``

The report goes to the git-ignored :data:`DEFAULT_OUT`
(``benchmarks/out/bench_report.json``) unless ``--out`` names another
path; the committed snapshots are never rewritten.

Runs the telemetry benchmark (``benchmarks/test_bench_metrics.py`` —
history-memory and summary-speed gates), the batched-backend benchmark
(``benchmarks/test_bench_batch.py`` — cluster speedup and equivalence
gates), the sharded-fleet benchmark (``benchmarks/test_bench_fleet.py``
— cross-plan bit-identity plus the parallel wall-clock speedup gate),
the scheduler benchmark (``benchmarks/test_bench_sched.py`` —
slack-greedy vs static goodput at equal SLO), and the mega-fleet
benchmark (``benchmarks/test_bench_megafleet.py`` — bit-identity of
the whole-cluster and sharded packings of the fleet engine), the
checkpoint/spill benchmark
(``benchmarks/test_bench_checkpoint.py`` — the spilled-history peak-RSS
gate plus checkpoint save/restore round-trip timing), and the
observability benchmark (``benchmarks/test_bench_obs.py`` — the
disabled-path and trace-on overhead gates on the 1000-leaf mega run,
with the tick-phase breakdown); the benchmarks
that emit measurement detail as JSON are merged in.  Each suite's wall time and pass/fail land in one report so CI can
upload the perf trajectory as an artifact run over run.

The committed ``BENCH_PR*.json`` snapshots at the repo root are folded
into the report's ``trajectory`` section — discovered by glob, so every
future snapshot joins automatically; an unparsable snapshot degrades
to a warning, never a crash, so the report stays usable on partial
checkouts.

Exits non-zero if any benchmark gate fails; the report is written
either way so a failing run still leaves its numbers behind.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import re
import subprocess
import sys
import tempfile
import time

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))

#: Default report path, relative to ``--root``.
DEFAULT_OUT = os.path.join("benchmarks", "out", "bench_report.json")

#: The gating benchmarks whose wall time and verdicts the report records.
#: name -> (pytest file, extra env).  The fleet and scheduler benchmarks
#: must see REPRO_JOBS=0 (auto) so their sharded plans actually use the
#: pool.
BENCHES = (
    ("metrics", "benchmarks/test_bench_metrics.py", {}),
    ("batch", "benchmarks/test_bench_batch.py", {}),
    ("fleet", "benchmarks/test_bench_fleet.py", {"REPRO_JOBS": "0"}),
    ("sched", "benchmarks/test_bench_sched.py", {"REPRO_JOBS": "0"}),
    ("megafleet", "benchmarks/test_bench_megafleet.py",
     {"REPRO_JOBS": "1"}),
    ("checkpoint", "benchmarks/test_bench_checkpoint.py",
     {"REPRO_JOBS": "1"}),
    ("obs", "benchmarks/test_bench_obs.py", {"REPRO_JOBS": "1"}),
)

#: Benchmarks that write a JSON measurement detail file, keyed by the
#: environment variable naming the output path.
DETAIL_ENVS = {
    "metrics": "REPRO_BENCH_OUT",
    "fleet": "REPRO_BENCH_FLEET_OUT",
    "sched": "REPRO_BENCH_SCHED_OUT",
    "megafleet": "REPRO_BENCH_MEGAFLEET_OUT",
    "checkpoint": "REPRO_BENCH_CHECKPOINT_OUT",
    "obs": "REPRO_BENCH_OBS_OUT",
}


def trajectory_snapshots(root: str = ROOT) -> list:
    """Committed ``BENCH_PR<N>.json`` snapshots at ``root``, oldest first.

    Discovered by glob and ordered by PR number, so a new snapshot
    joins the trajectory the moment it is committed — the fixed tuple
    this replaces silently dropped every snapshot newer than itself.
    Files whose suffix is not a plain integer (``BENCH_PRx.json``,
    ``BENCH_PR5_old.json``) are not snapshots and are ignored.
    """
    pattern = re.compile(r"^BENCH_PR(\d+)\.json$")
    found = []
    for path in glob.glob(os.path.join(root, "BENCH_PR*.json")):
        match = pattern.match(os.path.basename(path))
        if match:
            found.append((int(match.group(1)), os.path.basename(path)))
    return [name for _, name in sorted(found)]


def run_bench(path: str, extra_env: dict) -> dict:
    """Run one benchmark file under pytest; return wall time + verdict."""
    env = dict(os.environ)
    env.update(extra_env)
    env["PYTHONPATH"] = (os.path.join(ROOT, "src")
                         + os.pathsep + env.get("PYTHONPATH", ""))
    env.setdefault("REPRO_JOBS", "1")
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         path],
        cwd=ROOT, env=env, capture_output=True, text=True)
    wall_s = time.perf_counter() - start
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
    return {"wall_s": round(wall_s, 2), "passed": proc.returncode == 0}


def load_trajectory(root: str = ROOT, exclude: str = "") -> dict:
    """Collect the committed BENCH_PR*.json snapshots, warning on gaps.

    A snapshot that is unparsable is reported to stderr and skipped —
    the trajectory is best-effort context, never a reason to fail the
    report run.  ``exclude`` names the report's own output path, which
    must not be folded into itself when it names a snapshot.
    """
    trajectory = {}
    for name in trajectory_snapshots(root):
        path = os.path.join(root, name)
        if exclude and os.path.abspath(path) == os.path.abspath(exclude):
            continue
        try:
            with open(path, "r", encoding="utf-8") as handle:
                trajectory[name] = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"warning: cannot read perf snapshot {name} ({exc}); "
                  f"skipping it in the trajectory", file=sys.stderr)
    return trajectory


def resolve_out(out: str, root: str) -> str:
    """Anchor a relative report path at the repo root.

    The report must land (and self-exclude from the trajectory) next to
    the committed ``BENCH_PR*.json`` snapshots no matter where the
    script is invoked from — the old cwd-relative default scattered
    reports outside the repo when run from a subdirectory, and the
    newest committed snapshot was folded into the report that was about
    to overwrite it.
    """
    return out if os.path.isabs(out) \
        else os.path.join(os.path.abspath(root), out)


def main(argv=None) -> int:
    """Entry point; returns the process exit code."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default=DEFAULT_OUT,
                        help="report path; a relative path is anchored at "
                             "--root, not the caller's cwd (default: "
                             f"<root>/{DEFAULT_OUT})")
    parser.add_argument("--root", default=ROOT,
                        help="repository root the benchmarks and the "
                             "snapshot trajectory are read from "
                             "(default: the checkout containing this "
                             "script)")
    args = parser.parse_args(argv)
    root = os.path.abspath(args.root)
    out = resolve_out(args.out, root)

    report = {"report": "bench_report", "benches": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for name, path, env in BENCHES:
            extra = dict(env)
            detail_path = None
            if name in DETAIL_ENVS:
                detail_path = os.path.join(tmp, f"{name}_detail.json")
                extra[DETAIL_ENVS[name]] = detail_path
            print(f"running {path} ...", flush=True)
            report["benches"][name] = run_bench(path, extra)
            if detail_path and not os.path.exists(detail_path):
                print(f"warning: benchmark {name!r} emitted no detail "
                      f"JSON ({DETAIL_ENVS[name]}); recording verdict "
                      f"only", file=sys.stderr)
            elif detail_path:
                with open(detail_path, "r", encoding="utf-8") as handle:
                    report["benches"][name].update(json.load(handle))

    report["trajectory"] = load_trajectory(root=root, exclude=out)
    report["tests_passed"] = all(b["passed"]
                                 for b in report["benches"].values())
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"wrote {out}")
    for name, bench in report["benches"].items():
        verdict = "ok" if bench["passed"] else "FAILED"
        print(f"  {name}: {verdict} in {bench['wall_s']}s")
    return 0 if report["tests_passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
