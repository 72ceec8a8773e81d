#!/usr/bin/env python3
"""The repository's benchmark: one workload, timed in fresh processes.

Run from the repository root::

    python3 perfbench/run.py --workload fig8-cluster --seed 1 \\
        --seconds 20 --trace 0

``--trace 0`` runs the workload (``perfbench/workloads.py``) again and
again in fresh processes for ``--seconds``: full runs, each followed
by a set-up probe (the same workload cut to one tick, no warm-up).  It
prints every end-to-end metric with its unit, as medians:

* ``setup_s`` — host wall time of the set-up probe (imports, compile,
  offline DRAM profiling, array construction, controller attach);
* ``wall_s`` — host wall time of the full run;
* ``server_ticks_per_s`` — simulated server-ticks / (wall_s - setup_s);
* ``peak_rss_mb`` — peak resident memory of the run process.

The host times are rescaled to a reference speed by a speed probe
that runs beside the workload on its CPU (:class:`SpeedMeter`).

``--trace 1`` alternates untraced and traced full runs and prints the
per-module metrics of ``perfbench/tracer.py`` (medians over the traced
runs), the unattributed share of traced wall time and the tracing
overhead against the untraced median.

Every run's simulated output digest is checked against the one pinned
for its input variant in ``perfbench/reference.json``; a mismatch, a
crash or a non-zero exit counts as failed.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The full record (provenance, parameters, every sample,
the simulated result metrics next to the paper's values) goes to
``perfbench/out/``, the only place the benchmark writes.

``--pin`` re-runs every input variant once and rewrites
``reference.json``; do that only when a change is meant to alter the
simulated output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"

sys.path.insert(0, str(BENCH))
# The benchmark's own byte code is cached under the output directory
# too, so a run writes nothing next to its sources.
sys.pycache_prefix = str(OUT / "pycache")
import workloads  # noqa: E402  (the benchmark's own module)

#: End-to-end metrics and their units.
END_TO_END = (("setup_s", "s"), ("wall_s", "s"),
              ("server_ticks_per_s", "1/s"), ("peak_rss_mb", "MB"))

#: Fewest full runs (and set-up probes) a run takes, however short
#: ``--seconds`` is.
MIN_SAMPLES = 3

#: A run must end well inside this many seconds.
HARD_LIMIT_S = 170.0

#: The speed probe: a short fixed kernel timed every
#: ``PROBE_INTERVAL_S`` on the CPU the workload processes run on (about
#: 3% of that CPU), and the time it takes at the reference speed the
#: host-time metrics are expressed in.
PROBE_INTERVAL_S = 0.02
PROBE_REF_S = 0.0005
_PROBE_ARRAY = np.linspace(0.0, 1.0, 200)

#: Program-wide toggles that would change what is measured; every
#: ``REPRO_*`` variable is removed from the children's environment.
ENV_PREFIX = "REPRO_"


def child_env() -> Dict[str, str]:
    """The environment of every workload process."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(ENV_PREFIX)}
    env["REPRO_JOBS"] = "1"
    # One thread per workload process: NumPy's BLAS would otherwise
    # start a thread per CPU.
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    # Byte code is cached (as for any user) but under the output
    # directory, so nothing next to the sources is written.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = str(OUT / "pycache")
    return env


def git_revision() -> Optional[str]:
    """The checked-out commit, read from the local ``.git`` (or None)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        return None
    return None


def provenance(seed: int) -> dict:
    return {
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "removed_env": sorted(k for k in os.environ
                              if k.startswith(ENV_PREFIX)),
        "child_env": {"REPRO_JOBS": "1"},
        "seed": seed,
        "scenario_seed": seed % workloads.SLOTS,
    }


class Runner:
    """Launches workload processes and keeps the failure count."""

    def __init__(self, workload: str, seed: int, deadline: float,
                 reference: Optional[dict], delay: Optional[str] = None):
        self.workload = workload
        self.seed = seed
        self.hard_deadline = deadline
        self.reference = reference
        self.delay = delay
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[str, List[str]] = {"full": [], "setup": []}

    def expected_digest(self, mode: str) -> Optional[str]:
        if self.reference is None:
            return None
        return self.reference.get(self.workload, {}).get(mode, {}).get(
            str(self.seed % workloads.SLOTS))

    def launch(self, mode: str, trace: bool = False,
               spans: Optional[Path] = None) -> Tuple[float, Optional[dict]]:
        """One fresh workload process: ``(wall seconds, its report)``.

        The report is None when the process failed; the failure is
        counted and its reason kept.
        """
        cmd = [sys.executable, str(BENCH / "workloads.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--mode", mode, "--trace", "1" if trace else "0"]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        if self.delay:
            cmd += ["--delay", self.delay]
        timeout = max(1.0, self.hard_deadline - time.perf_counter())
        self.attempted += 1
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env,
                                  capture_output=True, text=True,
                                  timeout=timeout)
        except subprocess.TimeoutExpired:
            return self._fail(time.perf_counter() - start,
                              f"{mode}: timed out after {timeout:.0f} s")
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
            return self._fail(wall, f"{mode}: exit {proc.returncode}: "
                                    f"{tail[0]}")
        try:
            report = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, ValueError):
            return self._fail(wall, f"{mode}: no report on stdout")
        self.digests[mode].append(report["digest"])
        expected = self.expected_digest(mode)
        if self.reference is not None and report["digest"] != expected:
            return self._fail(wall, f"{mode}: output digest "
                                    f"{report['digest'][:12]} != pinned "
                                    f"{str(expected)[:12]}")
        return wall, report

    def _fail(self, wall: float, reason: str) -> Tuple[float, None]:
        self.failed += 1
        self.errors.append(reason)
        return wall, None


def median(values: List[float]) -> float:
    return float(statistics.median(values))


def probe_kernel() -> float:
    """The speed probe's fixed work: an interpreter loop and small-array
    NumPy calls, the workloads' two kinds of work."""
    total = 0.0
    for i in range(4000):
        total += abs(i % 13 - 6.5)
    x = _PROBE_ARRAY
    for _ in range(40):
        x = np.sqrt(x * x + 1.0) - 0.5
    return total + float(x[0])


class SpeedMeter:
    """Times :func:`probe_kernel` on a background thread while it runs.

    A shared host's CPUs change speed by up to 1.8x within seconds.
    The probe runs on the workload's CPU while the workload runs, so
    the mean probe time over a sample is the host's speed during that
    sample; :meth:`at_reference_speed` rescales the sample by it.
    """

    def __init__(self):
        self.probes: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "SpeedMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        while not self._stop.wait(PROBE_INTERVAL_S):
            # The probe's own CPU time: a probe the workload process
            # preempts does not count the workload's time.
            start, cpu = time.perf_counter(), time.thread_time()
            probe_kernel()
            self.probes.append((start, time.thread_time() - cpu))

    def at_reference_speed(self, wall: float, start: float,
                           end: float) -> float:
        """``wall`` seconds, measured between ``start`` and ``end``,
        rescaled to the reference speed."""
        inside = [d for t, d in list(self.probes) if start <= t < end]
        if not inside:
            raise RuntimeError("no speed probe ran during a sample")
        return wall * PROBE_REF_S / statistics.fmean(inside)


def pin_to_one_cpu() -> None:
    """Pin this process, and so every child it starts, to one CPU.

    Each CPU of a shared host changes speed on its own; on one CPU the
    speed probe and the workload processes see the same speed.
    """
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def measure(runner: Runner, seconds: float) -> dict:
    """Untraced samples: full runs, each followed by a set-up probe.

    Runs pinned to one CPU under a :class:`SpeedMeter`; the host-time
    metrics are medians of the samples at the reference speed.
    """
    pin_to_one_cpu()
    deadline = time.perf_counter() + seconds
    # Untimed warm-up: fills the byte-code cache and the page cache.
    runner.launch("setup")
    full: List[Tuple[float, dict]] = []
    setup: List[float] = []
    raw: Dict[str, List[float]] = {"wall_s": [], "setup_s": []}
    with SpeedMeter() as meter:
        while True:
            start = time.perf_counter()
            wall, report = runner.launch("full")
            if report is not None:
                full.append((meter.at_reference_speed(
                    wall, start, time.perf_counter()), report))
                raw["wall_s"].append(wall)
            start = time.perf_counter()
            wall_setup, report_setup = runner.launch("setup")
            if report_setup is not None:
                setup.append(meter.at_reference_speed(
                    wall_setup, start, time.perf_counter()))
                raw["setup_s"].append(wall_setup)
            now = time.perf_counter()
            if now >= runner.hard_deadline:
                break
            enough = len(full) >= MIN_SAMPLES and len(setup) >= MIN_SAMPLES
            if enough and now + wall + wall_setup > deadline:
                break
            if runner.attempted > 4 * MIN_SAMPLES and not full:
                break
    if not full or not setup:
        return {}
    walls = [w for w, _ in full]
    wall_s = median(walls)
    setup_s = median(setup)
    ticks = full[0][1]["server_ticks"]
    raw["probe_s"] = [d for _, d in meter.probes]
    return {
        "metrics": {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "server_ticks_per_s": ticks / (wall_s - setup_s)
            if wall_s > setup_s else 0.0,
            "peak_rss_mb": median([r["peak_rss_mb"] for _, r in full]),
        },
        "samples": {"wall_s": walls, "setup_s": setup,
                    "peak_rss_mb": [r["peak_rss_mb"] for _, r in full],
                    "host": raw},
        "server_ticks": ticks,
        "result": full[0][1]["result"],
        "numpy": full[0][1]["numpy"],
    }


def measure_traced(runner: Runner, seconds: float) -> dict:
    """Alternating untraced / traced full runs; per-module medians."""
    deadline = time.perf_counter() + seconds
    runner.launch("setup")
    plain: List[float] = []
    traced: List[Tuple[float, dict]] = []
    spans = OUT / f"{runner.workload}-seed{runner.seed}-spans.npz"
    while True:
        wall, report = runner.launch("full")
        if report is not None:
            plain.append(wall)
        wall_t, report_t = runner.launch("full", trace=True, spans=spans)
        if report_t is not None:
            traced.append((wall_t - report_t["trace"]["span_write_s"],
                           report_t))
        now = time.perf_counter()
        if now >= runner.hard_deadline or (
                plain and traced and now + wall + wall_t > deadline):
            break
        if runner.attempted > 4 * MIN_SAMPLES and not traced:
            break
    if not plain or not traced:
        return {}
    layers = {}
    for name in traced[0][1]["trace"]["layers"]:
        layers[name] = median([r["trace"]["layers"][name]
                               for _, r in traced])
    traced_wall = median([w for w, _ in traced])
    plain_wall = median(plain)
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    layers["trace.unattributed_frac"] = median([
        (w - r["trace"]["root_span_s"]) / w for w, r in traced])
    layers["trace.spans"] = median([r["trace"]["spans"] for _, r in traced])
    result = traced[0][1]["result"]
    layers["result.error_rate"] = runner.failed / runner.attempted
    for name in ("slo_violation_frac", "emu_gap", "mean_emu",
                 "be_goodput_core_h"):
        layers[f"result.{name}"] = result[name]
    return {"metrics": layers,
            "samples": {"untraced_wall_s": plain,
                        "traced_wall_s": [w for w, _ in traced]},
            "result": result, "numpy": traced[0][1]["numpy"]}


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def render(metrics: Dict[str, float], units: Dict[str, str]) -> str:
    width = max(len(name) for name in metrics)
    return "\n".join(f"  {name:<{width}}  {value:>14.6g} {units[name]}"
                     for name, value in metrics.items())


def pin(names: List[str]) -> int:
    """Re-run every input variant once and rewrite ``reference.json``."""
    reference = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() \
        else {}
    for name in names:
        pins = {"full": {}, "setup": {}}
        for slot in range(workloads.SLOTS):
            runner = Runner(name, slot, time.perf_counter() + 600.0, None)
            for mode in ("full", "setup"):
                _, report = runner.launch(mode)
                if report is None:
                    print(f"{name} slot {slot}: {runner.errors[-1]}",
                          file=sys.stderr)
                    return 1
                pins[mode][str(slot)] = report["digest"]
            print(f"{name} slot {slot}: {pins['full'][str(slot)][:12]}",
                  flush=True)
        reference[name] = pins
        REFERENCE.write_text(json.dumps(reference, indent=1,
                                        sort_keys=True) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one benchmark workload (see module docstring).")
    parser.add_argument("--workload", choices=sorted(workloads.PARAMS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite reference.json (all workloads, or "
                             "just --workload)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"run.py: no program to measure under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.pin:
        return pin([args.workload] if args.workload
                   else sorted(workloads.PARAMS))
    if args.workload is None:
        parser.error("--workload is required")
    bench = load_benchmark()
    seconds = args.seconds if args.seconds is not None \
        else bench["run_seconds"]
    reference = json.loads(REFERENCE.read_text())
    start = time.perf_counter()
    runner = Runner(args.workload, args.seed, start + HARD_LIMIT_S,
                    reference)
    if args.trace:
        measured = measure_traced(runner, seconds)
        units = {m["name"]: m["unit"] for m in bench["per_layer"]}
    else:
        measured = measure(runner, seconds)
        units = dict(END_TO_END)
    for reason in runner.errors:
        print(f"FAILED {reason}", file=sys.stderr)
    if not measured:
        print("run.py: no successful run to report", file=sys.stderr)
        return 1
    metrics = measured["metrics"]
    missing = set(units) - set(metrics)
    if missing:
        print(f"run.py: metrics not produced: {sorted(missing)}",
              file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "params": workloads.PARAMS[args.workload],
        "trace": args.trace,
        "provenance": dict(provenance(args.seed), numpy=measured["numpy"]),
        "seconds": seconds,
        "elapsed_s": time.perf_counter() - start,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "errors": runner.errors,
        "digests": runner.digests,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
        "samples": measured["samples"],
        "result": measured["result"],
        "paper": workloads.PAPER[args.workload],
        "paper_note": workloads.PAPER["note"],
    }
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1) + "\n")

    result = measured["result"]
    print(f"{args.workload} seed {args.seed} "
          f"(scenario seed {args.seed % workloads.SLOTS}), "
          f"{runner.attempted} runs, {runner.failed} failed, "
          f"error_rate {runner.failed / runner.attempted:.3f}")
    print(render({name: metrics[name] for name in units}, units))
    paper = workloads.PAPER[args.workload]
    print(f"  result: slo_violation_frac {result['slo_violation_frac']:.4f}"
          f", mean EMU {result['mean_emu']:.4f} (emu_gap "
          f"{result['emu_gap']:.4f}), BE goodput "
          f"{result['be_goodput_core_h']:.1f} core-h"
          + (f"; paper {paper['figure']}: {paper['claim']}" if paper
             else "; no paper figure for this workload"))
    print(f"  record: {out_file.relative_to(ROOT)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
