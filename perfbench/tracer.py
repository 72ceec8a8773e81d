"""Span tracer for the benchmark's traced run.

The program itself is not instrumented.  Instead, :func:`install`
replaces the public callables listed in :data:`SITES` with wrappers,
at the import site the program looks them up through (a module global
for functions, the class attribute for methods).  Each wrapper records
one span per call: group, parent span, start and end.  Spans live in
flat in-memory arrays and are written once, after the run
(:meth:`Tracer.save`).

Derived numbers (:meth:`Tracer.summary`):

* a group's *inclusive* time and call count cover its outermost spans
  only, so a method that re-enters its own group (``super().__init__``)
  is not counted twice;
* a span's *self* time is its duration minus the durations of its
  direct child spans;
* the *unattributed* time is the traced wall time not covered by any
  root span;
* a group's *in-tick* calls and time are the part of its outermost
  spans that ran inside a scalar engine tick (:data:`TICK`), e.g.
  ``Server.resolve`` in the physics step as against the same call in
  engine or fleet set-up.  Every call is recorded either way.
"""

from __future__ import annotations

import importlib
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: The vector controller and vector actuators of the array engine have
#: no public per-algorithm entry points, so their private methods are
#: wrapped; a rename fails loudly at install time.
MEGA = "repro.sim.megabatch"

#: The span group the ``*_tick`` numbers of :func:`summarize` are
#: measured under.
TICK = "sim.engine.tick"


def _count_placements(counters: Dict[str, float], placement) -> None:
    counters["sched.placements"] += sum(
        1 for slots in placement for cores in dict(slots).values()
        if cores > 0)


def _count_schedule(counters: Dict[str, float], outcome) -> None:
    counters["sched.epochs"] += 0 if outcome.store is None \
        else len(outcome.store)
    counters["sched.evictions"] += outcome.evictions
    counters["sched.goodput_core_s"] += outcome.goodput_core_s
    counters["sched.credited_core_s"] += outcome.credited_core_s


#: (span group, module of the import site, attribute path, options).
#: Option ``tally`` folds the call's return value into named counters.
SITES: List[Tuple[str, str, str, dict]] = [
    ("scenarios.compile", "repro.scenarios", "compile_scenario", {}),
    ("sim.runner.dram_profile", "repro.sim.runner",
     "profile_lc_dram_model", {}),
    ("sim.runner.dram_profile", "repro.cluster.cluster",
     "profile_lc_dram_model", {}),
    ("sim.runner.dram_profile", "repro.core.controller",
     "profile_lc_dram_model", {}),
    ("sim.engine.tick", "repro.sim.engine", "ColocationSim.tick", {}),
    ("hardware.resolve", "repro.hardware.server", "Server.resolve", {}),
    ("workloads.tail_latency", "repro.workloads.latency_critical",
     "LatencyCriticalWorkload.tail_latency_ms", {}),
    ("sim.batch.init", "repro.sim.batch", "BatchColocationSim.__init__", {}),
    ("sim.batch.init", MEGA, "MegaClusterSim.__init__", {}),
    ("sim.batch.tick", "repro.sim.batch", "BatchColocationSim.tick", {}),
    ("core.controller", "repro.core.controller",
     "HeraclesController.step", {}),
    ("core.controller", MEGA, "_VecHeracles.step", {}),
    ("core.top_level", "repro.core.top_level", "TopLevelController.step", {}),
    ("core.top_level", MEGA, "_VecHeracles._top_level", {}),
    ("core.core_memory", "repro.core.core_memory",
     "CoreMemoryController.step", {}),
    ("core.core_memory", MEGA, "_VecHeracles._core_memory", {}),
    ("core.power", "repro.core.power", "PowerController.step", {}),
    ("core.power", MEGA, "_VecHeracles._power", {}),
    ("core.network", "repro.core.network", "NetworkController.step", {}),
    ("core.network", MEGA, "_VecHeracles._network", {}),
] + [
    ("sim.actuators", "repro.sim.actuators", f"Actuators.{name}", {})
    for name in ("set_be_cores", "add_be_core", "remove_be_cores",
                 "set_llc_split", "grow_be_llc", "shrink_be_llc",
                 "lower_be_frequency", "raise_be_frequency",
                 "lower_be_dram_throttle", "raise_be_dram_throttle",
                 "set_be_dram_throttle", "set_be_net_ceil", "enable_be",
                 "disable_be")
] + [
    ("sim.actuators", MEGA, f"MegaClusterSim.{name}", {})
    for name in ("_v_set_split", "_v_enable", "_v_disable",
                 "_v_remove_cores")
] + [
    ("sim.monitors.record", "repro.sim.monitors", "LatencyMonitor.record",
     {}),
    ("sim.monitors.record", "repro.sim.monitors",
     "ThroughputMonitor.record", {}),
    ("sim.monitors.record", MEGA, "_VecLatencyMonitor.record", {}),
] + [
    ("sim.monitors.poll", "repro.sim.monitors", f"LatencyMonitor.{name}", {})
    for name in ("poll_latency_ms", "recent_latency_ms", "poll_load",
                 "worst_window_ms")
] + [
    ("sim.monitors.poll", MEGA, f"_VecLatencyMonitor.{name}", {})
    for name in ("poll", "recent_latency_ms")
] + [
    ("metrics.append", "repro.metrics.columns", "ColumnStore.append_row", {}),
    ("metrics.append", "repro.metrics.columns", "ColumnStore.append_rows",
     {}),
    ("metrics.append", "repro.metrics.columns",
     "BatchColumnStore.append_tick", {}),
] + [
    ("metrics.summary", "repro.metrics.windows", f"WindowedMetrics.{name}",
     {})
    for name in ("mean", "maximum", "minimum", "means", "worst_window")
] + [
    ("cluster.root", "repro.cluster.root", "RootAggregator.record", {}),
    ("cluster.root", "repro.cluster.root",
     "RootAggregator.windowed_latency_ms", {}),
    ("fleet.setup", "repro.fleet.simulator", "cluster_slo_targets", {}),
    ("fleet.setup", MEGA, "MegaFleetSim.__init__", {}),
    ("fleet.rollup", "repro.fleet.simulator", "assemble_cluster", {}),
    ("fleet.rollup", "repro.fleet.simulator", "rollup_cluster", {}),
    ("fleet.rollup", "repro.fleet.simulator", "build_fleet_telemetry", {}),
    ("fleet.slack_reduce", "repro.fleet.simulator", "reduce_leaf_epochs", {}),
    ("fleet.slack_reduce", "repro.fleet.simulator", "FleetSlackView", {}),
    ("sched.run_schedule", "repro.scenarios.compiler", "run_schedule",
     {"tally": _count_schedule}),
    ("sched.run_schedule", "repro.sched.report", "run_schedule",
     {"tally": _count_schedule}),
] + [
    ("sched.place", "repro.sched.policies", f"{cls}.place",
     {"tally": _count_placements})
    for cls in ("SlackGreedyPolicy", "RoundRobinPolicy", "StaticPolicy")
]

#: Counters the ``tally`` hooks fill (zero on workloads that never call
#: the wrapped callable).
COUNTERS = ("sched.placements", "sched.epochs", "sched.evictions",
            "sched.goodput_core_s", "sched.credited_core_s")


def groups() -> List[str]:
    """Every span group, in :data:`SITES` order."""
    return list(dict.fromkeys(group for group, _, _, _ in SITES))


class Tracer:
    """In-memory span recorder shared by every installed wrapper."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.groups = groups()
        self._gid = {name: i for i, name in enumerate(self.groups)}
        self.active = [0] * len(self.groups)
        self.stack: List[int] = []
        self.names = array("H")
        self.parents = array("l")
        self.nested = array("b")
        self.starts = array("d")
        self.ends = array("d")
        self.counters: Dict[str, float] = {name: 0.0 for name in COUNTERS}

    def wrap(self, group: str, fn: Callable,
             tally: Optional[Callable] = None,
             delay_s: float = 0.0) -> Callable:
        """A wrapper of ``fn`` that records one ``group`` span per call.

        ``delay_s`` sleeps inside the span on every call; the
        benchmark's sensitivity check uses it to slow one module down.
        """
        gid = self._gid[group]
        active, stack = self.active, self.stack
        names, parents, nested = self.names, self.parents, self.nested
        starts, ends, clock = self.starts, self.ends, self.clock
        counters = self.counters

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(gid)
            parents.append(stack[-1] if stack else -1)
            nested.append(1 if active[gid] else 0)
            active[gid] += 1
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                if delay_s:
                    time.sleep(delay_s)
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
                active[gid] -= 1
            if tally is not None:
                tally(counters, result)
            return result

        traced.__name__ = getattr(fn, "__name__", group)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def patch(self, owner, attr: str, group: str, **options) -> None:
        """Replace ``owner.attr`` by its traced wrapper."""
        if isinstance(owner, type):
            if attr not in owner.__dict__:
                raise AttributeError(
                    f"{owner.__qualname__}.{attr} is not defined on the "
                    f"class itself")
            original = owner.__dict__[attr]
        else:
            original = getattr(owner, attr)
        if not callable(original):
            raise TypeError(f"{attr} is not callable")
        setattr(owner, attr, self.wrap(group, original, **options))

    # -- derived numbers --------------------------------------------------

    def arrays(self) -> Dict[str, np.ndarray]:
        """The recorded spans as parallel numpy arrays."""
        return {
            "group": np.array(self.names, dtype=np.uint16),
            "parent": np.array(self.parents, dtype=np.int64),
            "nested": np.array(self.nested, dtype=bool),
            "start": np.array(self.starts, dtype=np.float64),
            "end": np.array(self.ends, dtype=np.float64),
        }

    def summary(self, wall_s: float) -> Dict[str, Dict[str, float]]:
        """Per-group totals (see :func:`summarize`), plus the
        unattributed share of ``wall_s`` under the key ``""``."""
        spans = self.arrays()
        return summarize(spans["group"], spans["parent"], spans["nested"],
                         spans["start"], spans["end"], self.groups,
                         wall_s)

    def save(self, path: str) -> None:
        """Write the spans (and the group names) as one ``.npz``."""
        np.savez(path, groups=np.array(self.groups), **self.arrays())


def summarize(group: np.ndarray, parent: np.ndarray, nested: np.ndarray,
              start: np.ndarray, end: np.ndarray, names: Sequence[str],
              wall_s: float) -> Dict[str, Dict[str, float]]:
    """Fold flat span arrays into per-group totals.

    ``calls`` and ``inclusive_s`` count outermost spans only;
    ``self_s`` sums every span's duration minus its direct children's;
    ``calls_tick`` and ``inclusive_tick_s`` are the outermost spans
    with an enclosing :data:`TICK` span.
    """
    duration = end - start
    child = np.zeros(len(duration))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], duration[has_parent])
    self_time = duration - child
    outer = ~nested
    in_tick = descends_from(group, parent, list(names).index(TICK))
    out: Dict[str, Dict[str, float]] = {}
    for gid, name in enumerate(names):
        mine = group == gid
        top = mine & outer
        tick = top & in_tick
        out[name] = {"calls": int(top.sum()),
                     "inclusive_s": float(duration[top].sum()),
                     "self_s": float(self_time[mine].sum()),
                     "calls_tick": int(tick.sum()),
                     "inclusive_tick_s": float(duration[tick].sum())}
    root = float(duration[~has_parent].sum())
    out[""] = {"unattributed_s": wall_s - root,
               "unattributed_frac": (wall_s - root) / wall_s
               if wall_s > 0 else 0.0}
    return out


def descends_from(group: np.ndarray, parent: np.ndarray,
                  gid: int) -> np.ndarray:
    """Which spans have an ancestor span of group ``gid``."""
    under = np.zeros(len(group), dtype=bool)
    ancestor = parent.copy()
    live = ancestor >= 0
    while live.any():
        under[live] |= group[ancestor[live]] == gid
        ancestor[live] = parent[ancestor[live]]
        live = ancestor >= 0
    return under


def install(tracer: Tracer, only: Optional[str] = None,
            delay_s: float = 0.0) -> None:
    """Install the wrappers of :data:`SITES` into the imported program.

    Args:
        only: install just this group's sites (the sensitivity check).
        delay_s: extra sleep inside every span of the installed sites.
    """
    if only is not None and only not in tracer.groups:
        raise KeyError(f"unknown span group {only!r}")
    for group, module_name, path, options in SITES:
        if only is not None and group != only:
            continue
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        tracer.patch(owner, attr, group, delay_s=delay_s, **options)
