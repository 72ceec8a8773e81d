"""The websearch minicluster experiment (§5.3, Figure 8).

Tens of leaf servers behind one fan-out root, driven by a 12-hour
diurnal trace (load 20%-90%).  Heracles runs on every leaf; brain runs
on half the leaves and streetview on the other half.  The experiment
reports, over the trace: root latency vs the cluster SLO, and
cluster-wide EMU (average ~90%, minimum ~80% in the paper).

Execution backends
------------------

:class:`WebsearchCluster` is the scalar reference: one
``ColocationSim`` per leaf (one :class:`Leaf` and one
``HeraclesController`` each), stepped in a Python loop.  The
``cluster`` scenario shape runs its arms as one fleet on the array
engine instead, one cluster per arm (:mod:`repro.fleet.simulator`);
every arm is bit-identical to this loop for the same seed (enforced by
``tests/test_scenario_fuzz.py`` and ``tests/test_fleet.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..metrics.history import ColumnarHistory
from ..core.dram_model import profile_lc_dram_model
from ..hardware.spec import MachineSpec, default_machine_spec
from ..workloads.latency_critical import make_lc_workload
from ..workloads.traces import LoadTrace, websearch_cluster_trace
from .leaf import Leaf, LeafConfig
from .root import RootAggregator

#: Cluster record cadence in simulated seconds (the paper's 30 s
#: reporting window).
RECORD_PERIOD_S = 30.0


@dataclass
class ClusterRecord:
    """Cluster-level observables at one instant."""

    t_s: float
    load: float
    root_latency_ms: float
    root_slo_fraction: float
    emu: float


class ClusterHistory(ColumnarHistory):
    """Columnar record of cluster-level observables over a run.

    Same storage and metric stack as the per-server histories (see
    :mod:`repro.metrics`): one NumPy column per :class:`ClusterRecord`
    field, record materialization on demand, and the cluster's
    reporting aggregates routed through the shared
    :class:`~repro.metrics.windows.WindowedMetrics` implementation —
    which derives cadence from the records' explicit timestamps, never
    from an assumed 1-second tick.
    """

    RECORD_TYPE = ClusterRecord

    def max_root_slo_fraction(self, skip_s: float = 0.0) -> float:
        """Worst recorded root SLO fraction after ``skip_s`` seconds."""
        return self.metrics.maximum("root_slo_fraction", skip_s=skip_s)

    def mean_emu(self, skip_s: float = 0.0) -> float:
        """Mean cluster EMU after ``skip_s`` seconds."""
        return self.metrics.mean("emu", skip_s=skip_s)

    def min_emu(self, skip_s: float = 0.0) -> float:
        """Minimum cluster EMU after ``skip_s`` seconds."""
        return self.metrics.minimum("emu", skip_s=skip_s)


def baseline_tail_ms(lc, load: float) -> float:
    """Tail latency of ``lc`` alone on its machine at ``load``.

    The no-colocation operating point the cluster SLO targets are
    calibrated from (§5.3): one server, the LC workload's full
    allocation, no BE anywhere.
    """
    from ..hardware.server import Server
    from ..workloads.base import Allocation, spread_cores
    server = Server(lc.spec)
    alloc = Allocation(cores_by_socket=spread_cores(
        lc.spec.total_cores, lc.spec))
    usages = server.resolve([lc.demand(load, alloc)])
    return lc.tail_latency_ms(
        load, usages[lc.name],
        link_utilization=server.telemetry.link_utilization)


def cluster_slo_targets(spec: MachineSpec, leaves: int,
                        lc_name: str = "websearch") -> tuple:
    """(leaf SLO, root SLO) in ms for a fan-out cluster of ``leaves``.

    The root SLO is the baseline's µ/30s at 90% load without
    colocation (§5.3) — which, through the fan-out, already includes
    the straggler amplification of the worst leaf and its measurement
    noise.  The uniform leaf target is the per-leaf tail at that
    operating point.  One definition shared by
    :class:`WebsearchCluster` and the fleet's shard workers, so a
    sharded cluster can never calibrate different targets than the
    monolithic run it partitions.
    """
    reference = make_lc_workload(lc_name, spec)
    leaf_slo_ms = baseline_tail_ms(reference, load=0.90)
    noise_sigma = reference.profile.noise_sigma
    # E[max of n lognormal noise draws] grows ~ sigma * sqrt(2 ln n).
    straggler_noise = float(np.exp(
        noise_sigma * np.sqrt(2.0 * np.log(max(2, leaves)))))
    return leaf_slo_ms, leaf_slo_ms * straggler_noise


class WebsearchCluster:
    """A managed (or baseline) websearch minicluster, one :class:`Leaf`
    per server in ``leaves`` (the scalar reference)."""

    def __init__(self,
                 leaves: int = 20,
                 spec: Optional[MachineSpec] = None,
                 trace: Optional[LoadTrace] = None,
                 managed: bool = True,
                 seed: int = 0):
        if leaves < 2:
            raise ValueError("a cluster needs at least two leaves")
        self.spec = spec or default_machine_spec()
        self.trace = trace or websearch_cluster_trace(seed=seed)
        self.managed = managed

        # SLO targets (see cluster_slo_targets for the calibration).
        self.leaf_slo_ms, self.root_slo_ms = cluster_slo_targets(
            self.spec, leaves)

        # "Heracles shares the same offline model ... across all leaves."
        shared_model = profile_lc_dram_model(
            make_lc_workload("websearch", self.spec)) if managed else None

        self.leaves: List[Leaf] = [
            Leaf(LeafConfig(index=i,
                            be_name="brain" if i % 2 == 0 else "streetview",
                            leaf_slo_ms=self.leaf_slo_ms,
                            seed=seed * 1000 + i),
                 trace=self.trace, spec=self.spec,
                 shared_dram_model=shared_model, managed=managed)
            for i in range(leaves)
        ]

        self.root = RootAggregator()
        self.history = ClusterHistory()
        self.time_s = 0.0
        self._tick_index = 0

    # ------------------------------------------------------------------

    def tick(self, dt_s: float = 1.0) -> None:
        """Advance the whole cluster by one interval.

        Cluster records are appended every :data:`RECORD_PERIOD_S` of
        simulated time, derived from the actual tick size (the cadence
        is tick-counted, so it stays correct for any ``dt_s``, not just
        the historical 1-second tick).
        """
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        tails = []
        emus = []
        for leaf in self.leaves:
            record = leaf.sim.tick(dt_s)
            tails.append(record.tail_latency_ms)
            emus.append(record.emu)
        self.root.record(self.time_s, tails)
        record_every = max(1, int(round(RECORD_PERIOD_S / dt_s)))
        if self._tick_index % record_every == 0:
            windowed = self.root.windowed_latency_ms()
            self.history.append(ClusterRecord(
                t_s=self.time_s,
                load=self.trace.clipped(self.time_s),
                root_latency_ms=windowed,
                root_slo_fraction=windowed / self.root_slo_ms,
                emu=float(np.mean(emus)),
            ))
        self.time_s += dt_s
        self._tick_index += 1

    def run(self, duration_s: float, dt_s: float = 1.0) -> ClusterHistory:
        steps = int(round(duration_s / dt_s))
        for _ in range(steps):
            self.tick(dt_s)
        return self.history

