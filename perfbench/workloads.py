"""The benchmark's workloads, each run once in a fresh process.

Usage (from the repository root; ``run.py`` does this for you)::

    PYTHONPATH=src REPRO_JOBS=1 python3 perfbench/workloads.py \\
        --workload fig8-cluster --seed 3 --mode full [--trace 1]

prints one JSON line: the output digest, the simulated result metrics,
the simulated server-ticks, the process's peak RSS and, with
``--trace 1``, the per-module span totals.

Every workload goes through the program's public entry points: a
``repro.scenarios.library`` factory, ``compile_scenario(spec)
.run(processes=1)``, and for ``backlog-1k`` the ``repro sched``
static-policy replay (``repro.sched.compare_policies``).

Why these four (each exercises layers the others bypass):

* ``fig4-sweep`` — the only workload on the scalar reference engine
  (``sim/engine.py``): hardware, perf, oslayer and the object
  controllers over real counters.  Paper Figure 4/5.
* ``fig8-cluster`` — the small-N batch engine with per-member object
  controllers behind ``BatchCounterView``; per-tick Python overhead
  dominates.  Paper Figure 8.
* ``fleet-1k`` — 1000 leaves on the in-process array engine: large-N
  vectorized physics, the vector controller, a 1000-member setup and
  the fleet roll-up.
* ``backlog-1k`` — the same engine under the best-effort scheduler
  (slack-greedy, then the static replay); the only ``sched/`` user.

The seed picks one of :data:`SLOTS` pinned input variants (the
scenario seed is ``seed % SLOTS``), so every run's output can be
checked against a digest pinned in ``reference.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import resource
import sys
import time
import weakref
from typing import Dict, List, Optional

import numpy as np

#: Distinct input variants per workload; ``reference.json`` pins one
#: output digest for each.
SLOTS = 16

#: The fleet engine both 1k workloads run on.  This is the only place
#: the benchmark names the ``engine`` option.
ARRAY_ENGINE = "mega"

#: Workload parameters (recorded with every result).
PARAMS: Dict[str, dict] = {
    "fig4-sweep": {"lc_tasks": ["websearch"],
                   "be_tasks": ["stream-LLC", "stream-DRAM", "cpu_pwr",
                                "brain", "streetview", "iperf"],
                   "loads": [0.25, 0.55, 0.85],
                   "duration_s": 360.0, "warmup_s": 240.0},
    "fig8-cluster": {"leaves": 20, "time_compression": 48.0},
    "fleet-1k": {"time_compression": 72.0, "engine": ARRAY_ENGINE},
    "backlog-1k": {"time_compression": 144.0, "engine": ARRAY_ENGINE,
                   "replay_policies": ["static"]},
}

#: Headline paper values the result metrics are compared with.  Only
#: Figure 1 is transcribed in the repository
#: (``src/repro/experiments/paper_data.py``); beyond that, the model is
#: checked only against these headline values.
PAPER = {
    "fig4-sweep": {
        "figure": "Fig 4/5",
        "claim": "no SLO violation across the load sweep; EMU ~0.90",
        "slo_violation_frac": 0.0, "mean_emu": 0.90},
    "fig8-cluster": {
        "figure": "Fig 8",
        "claim": "root latency within SLO; EMU ~0.90 mean, ~0.80 min",
        "slo_violation_frac": 0.0, "mean_emu": 0.90, "min_emu": 0.80},
    "fleet-1k": None,
    "backlog-1k": None,
    "note": "Only Fig 1 is transcribed in the repo "
            "(experiments/paper_data.py); beyond that, the model is "
            "checked only against these headline values.",
}

#: Target EMU the ``emu_gap`` result metric is measured from.
PAPER_EMU = 0.90


def build_spec(workload: str, seed: int):
    """The scenario spec of ``workload`` for input variant ``seed``."""
    from repro.scenarios import library
    p = PARAMS[workload]
    slot = seed % SLOTS
    if workload == "fig4-sweep":
        return library.fig4_scenario(
            lc_tasks=p["lc_tasks"], be_tasks=p["be_tasks"],
            loads=p["loads"], duration_s=p["duration_s"],
            warmup_s=p["warmup_s"], seed=slot)
    if workload == "fig8-cluster":
        return library.fig8_scenario(
            leaves=p["leaves"], time_compression=p["time_compression"],
            seed=slot)
    if workload == "fleet-1k":
        spec = library.mixed_fleet_1k_scenario(
            time_compression=p["time_compression"], seed=slot)
        return dataclasses.replace(spec, fleet=dataclasses.replace(
            spec.fleet, engine=p["engine"]))
    if workload == "backlog-1k":
        spec = library.batch_backlog_1k_scenario(
            time_compression=p["time_compression"], seed=slot)
        schedule = spec.schedule
        return dataclasses.replace(spec, schedule=dataclasses.replace(
            schedule, fleet=dataclasses.replace(schedule.fleet,
                                                engine=p["engine"])))
    raise KeyError(f"unknown workload {workload!r}")


def setup_only(spec):
    """``spec`` cut to one tick with no warm-up (the set-up probe)."""
    return dataclasses.replace(spec, duration_s=spec.dt_s, warmup_s=0.0)


def server_ticks(workload: str, spec) -> int:
    """Simulated server-ticks one run of ``spec`` advances."""
    ticks = int(round(spec.duration_s / spec.dt_s))
    if workload == "fig4-sweep":
        sweep = spec.sweep
        return (len(sweep.lc_tasks) * len(sweep.be_tasks)
                * len(sweep.loads) * ticks)
    if workload == "fig8-cluster":
        return len(spec.cluster.arms) * spec.cluster.leaves * ticks
    fleet = spec.fleet if spec.fleet is not None else spec.schedule.fleet
    return fleet.total_leaves() * ticks


def canonical(value):
    """``value`` with floats rounded to 10 significant digits.

    The digest ignores the last few bits of a float, which vector math
    libraries may compute differently on another CPU; any change to
    the simulated behaviour moves far larger digits.
    """
    if isinstance(value, float):
        return float(f"{value:.10g}")
    if isinstance(value, dict):
        return {str(k): canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    return value


def digest(document) -> str:
    """SHA-256 of the canonical JSON form of ``document``."""
    text = json.dumps(canonical(document), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def window_violations(t: np.ndarray, slo_fraction: np.ndarray,
                      skip_s: float, window_s: float = 60.0):
    """(violating, total) 60 s windows after ``skip_s``.

    A window violates when its mean SLO fraction exceeds 1.
    """
    keep = t >= skip_s
    if not keep.any():
        return 0, 0
    bucket = ((t[keep] - skip_s) // window_s).astype(np.int64)
    sums = np.bincount(bucket, weights=slo_fraction[keep])
    counts = np.bincount(bucket)
    used = counts > 0
    means = sums[used] / counts[used]
    return int((means > 1.0).sum()), int(used.sum())


def result_metrics(workload: str, result, outcomes) -> Dict[str, float]:
    """Simulated result metrics, compared with :data:`PAPER`."""
    skip = result.spec.warmup_s
    windows = []
    if workload == "fig4-sweep":
        cells = [cell for grid in result.sweeps.values()
                 for row in grid.results.values() for cell in row]
        for cell in cells:
            windows.append(window_violations(
                cell.history.times(), cell.history.column("slo_fraction"),
                skip))
        mean_emu = float(np.mean([cell.mean_emu for cell in cells]))
        min_emu = float(min(cell.mean_emu for cell in cells))
    elif workload == "fig8-cluster":
        managed = result.cluster_arms["managed"]
        windows.append(window_violations(
            managed.times(), managed.column("root_slo_fraction"), skip))
        mean_emu = managed.mean_emu(skip_s=skip)
        min_emu = managed.min_emu(skip_s=skip)
    else:
        for outcome in result.fleet.clusters:
            if outcome.managed:
                history = outcome.history
                windows.append(window_violations(
                    history.times(), history.column("root_slo_fraction"),
                    skip))
        summary = result.fleet.summary(skip_s=skip)
        mean_emu = summary["fleet_emu"]
        min_emu = summary["min_fleet_emu"]
    violating = sum(v for v, _ in windows)
    total = sum(n for _, n in windows)
    goodput = 0.0
    if result.schedule is not None:
        goodput = result.schedule.goodput_core_h
    return {
        "slo_violation_frac": violating / total if total else 0.0,
        "mean_emu": float(mean_emu),
        "min_emu": float(min_emu),
        "emu_gap": abs(float(mean_emu) - PAPER_EMU),
        "be_goodput_core_h": float(goodput),
        "static_goodput_core_h": float(
            outcomes["static"].goodput_core_h) if outcomes else 0.0,
    }


def run_workload(workload: str, seed: int, setup: bool = False):
    """Run one workload through the public entry points.

    Returns ``(spec, result, replay outcomes or None, output document)``;
    the output document is what the digest covers.
    """
    import repro.scenarios
    import repro.sched
    spec = build_spec(workload, seed)
    if setup:
        spec = setup_only(spec)
    # Attribute lookups at call time, so traced wrappers installed on
    # the package namespaces are the ones called.
    result = repro.scenarios.compile_scenario(spec).run(processes=1)
    outcomes = None
    document = result.to_dict()
    if workload == "backlog-1k":
        schedule = spec.schedule
        outcomes = repro.sched.compare_policies(
            result.fleet.slack, schedule.expand_jobs(),
            policies=tuple(PARAMS[workload]["replay_policies"]),
            queue_limit=schedule.queue_limit)
        document["policies"] = {name: outcome.summary()
                                for name, outcome in outcomes.items()}
    return spec, result, outcomes, document


def layer_metrics(spans: Dict[str, Dict[str, float]],
                  counters: Dict[str, float],
                  history_bytes: int) -> Dict[str, float]:
    """Per-module metrics from the traced run's span totals."""
    def calls(group):
        return spans[group]["calls"]

    def incl(group):
        return spans[group]["inclusive_s"]

    def own(group):
        return spans[group]["self_s"]

    credited = counters["sched.credited_core_s"]
    return {
        "scenarios.compile_s": incl("scenarios.compile"),
        "sim.runner.dram_profiles": calls("sim.runner.dram_profile"),
        "sim.runner.dram_profile_s": incl("sim.runner.dram_profile"),
        "sim.engine.ticks": calls("sim.engine.tick"),
        "sim.engine.tick_self_s": own("sim.engine.tick"),
        "hardware.resolve_calls": calls("hardware.resolve"),
        "hardware.resolve_s": incl("hardware.resolve"),
        "hardware.resolve_tick_calls": spans["hardware.resolve"][
            "calls_tick"],
        "hardware.resolve_tick_s": spans["hardware.resolve"][
            "inclusive_tick_s"],
        "workloads.tail_latency_s": incl("workloads.tail_latency"),
        "workloads.tail_latency_tick_s": spans["workloads.tail_latency"][
            "inclusive_tick_s"],
        "sim.batch.init_s": incl("sim.batch.init"),
        "sim.batch.ticks": calls("sim.batch.tick"),
        "sim.batch.tick_self_s": own("sim.batch.tick"),
        "core.controller_steps": calls("core.controller"),
        "core.controller_s": incl("core.controller"),
        "core.top_level_s": incl("core.top_level"),
        "core.core_memory_s": incl("core.core_memory"),
        "core.power_s": incl("core.power"),
        "core.network_s": incl("core.network"),
        "sim.actuators.actuations": calls("sim.actuators"),
        "sim.monitors.records": calls("sim.monitors.record"),
        "sim.monitors_s": (incl("sim.monitors.record")
                           + incl("sim.monitors.poll")),
        "metrics.append_s": incl("metrics.append"),
        "metrics.history_bytes": history_bytes,
        "metrics.summary_s": incl("metrics.summary"),
        "cluster.root_s": incl("cluster.root"),
        "fleet.setup_s": incl("fleet.setup"),
        "fleet.rollup_s": incl("fleet.rollup"),
        "fleet.slack_reduce_s": incl("fleet.slack_reduce"),
        "sched.run_schedule_s": incl("sched.run_schedule"),
        "sched.epochs": counters["sched.epochs"],
        "sched.place_s": incl("sched.place"),
        "sched.placements": counters["sched.placements"],
        "sched.evictions": counters["sched.evictions"],
        "sched.useful_ratio": (counters["sched.goodput_core_s"] / credited
                               if credited else 0.0),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(PARAMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("full", "setup"), default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans here (.npz)")
    parser.add_argument("--delay", metavar="GROUP=SECONDS",
                        help="slow one span group down by SECONDS per call "
                             "(the benchmark's sensitivity check)")
    args = parser.parse_args(argv)

    tracer = stores = None
    if args.trace or args.delay:
        import tracer as tracing
        tracer = tracing.Tracer()
        if args.delay:
            group, _, seconds = args.delay.partition("=")
            tracing.install(tracer, only=group, delay_s=float(seconds))
        else:
            tracing.install(tracer)
    if args.trace:
        from repro.metrics import columns
        stores = weakref.WeakSet()
        init = columns.ColumnStore.__init__

        def tracked_init(self, *a, **k):
            init(self, *a, **k)
            stores.add(self)
        columns.ColumnStore.__init__ = tracked_init

    spec, result, outcomes, document = run_workload(
        args.workload, args.seed, setup=args.mode == "setup")
    out = {
        "workload": args.workload,
        "seed": args.seed,
        "scenario_seed": int(spec.seed),
        "mode": args.mode,
        "server_ticks": server_ticks(args.workload, spec),
        "digest": digest(document),
        "result": (result_metrics(args.workload, result, outcomes)
                   if args.mode == "full" else None),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if args.trace:
        history_bytes = sum(store.nbytes() for store in stores)
        totals = tracer.summary(wall_s=0.0)
        out["trace"] = {
            "layers": layer_metrics(totals, tracer.counters, history_bytes),
            "root_span_s": -totals[""]["unattributed_s"],
            "spans": len(tracer.starts),
        }
        start = time.perf_counter()
        if args.spans:
            tracer.save(args.spans)
        out["trace"]["span_write_s"] = time.perf_counter() - start
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
