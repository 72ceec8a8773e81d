"""Shared experiment machinery.

Two kinds of experiment run in the paper:

* **Characterization** (§3, Figure 1): the LC workload is pinned to
  enough cores to satisfy its SLO at a given load; a single-resource
  antagonist runs on the remaining cores (or sibling HyperThreads, or a
  shared-core CFS container), with *no* isolation mechanisms beyond the
  pinning.  The model is steady-state, so one contention resolution per
  cell suffices.

* **Controlled colocation** (§5, Figures 4-8): the LC workload and a BE
  task run under a controller (Heracles or a baseline) and the system is
  simulated through time.  A ``sweep`` scenario runs a Figure 4-7 grid
  as one batch of members and summarizes each cell with
  :func:`colocation_result`; :func:`run_colocation` runs one cell on
  the scalar reference engine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.config import HeraclesConfig
from ..core.controller import HeraclesController
from ..core.dram_model import LcDramBandwidthModel
from ..hardware.server import Server
from ..hardware.spec import MachineSpec, default_machine_spec
from ..oslayer.scheduler import CfsSharedCoreModel
from ..sim.engine import ColocationSim, SimHistory
from ..workloads.antagonists import AntagonistSpec, Placement, make_antagonist
from ..workloads.base import Allocation, spread_cores
from ..workloads.best_effort import make_be_workload
from ..workloads.latency_critical import (LatencyCriticalWorkload,
                                          make_lc_workload)
from ..workloads.traces import ConstantLoad, LoadTrace


@dataclass
class CharacterizationResult:
    """One Figure 1 cell."""

    lc_name: str
    antagonist: str
    load: float
    slo_fraction: float
    lc_cores: int
    antagonist_cores: int


def characterization_cell(lc: LatencyCriticalWorkload,
                          antagonist_spec: AntagonistSpec,
                          load: float,
                          spec: Optional[MachineSpec] = None
                          ) -> CharacterizationResult:
    """Run one (LC workload, antagonist, load) characterization point.

    Reproduces the §3.2 methodology: core pinning only, no CAT, no DVFS
    caps, no traffic control.
    """
    spec = spec or lc.spec
    server = Server(spec)
    total = spec.total_cores
    placement = antagonist_spec.placement
    antagonist = make_antagonist(antagonist_spec, spec)

    sched_delay_ms = 0.0
    lc_ht_share = 0.0

    if placement is Placement.REMAINING_CORES:
        lc_cores = min(lc.required_cores(load, target_fraction=0.85),
                       total - 1)
        ant_cores = total - lc_cores
    elif placement is Placement.SIBLING_THREADS:
        lc_cores = min(lc.required_cores(load, target_fraction=0.85),
                       total - 1)
        ant_cores = lc_cores  # spinloops on the siblings of the LC cores
        lc_ht_share = 1.0
    elif placement is Placement.ONE_CORE:
        lc_cores = total - 1
        ant_cores = 1
    elif placement is Placement.SHARED_CORES:
        # OS isolation baseline: both containers may run anywhere; CFS
        # grants the BE task roughly the cycles the LC task leaves idle.
        lc_cores = total
        lc_busy = lc.qps_at(load) * lc.base_service_ms / 1000.0
        ant_cores = max(1, total - math.ceil(lc_busy))
        lc_ht_share = 0.5
        cfs = CfsSharedCoreModel()
        sched_delay_ms = cfs.tail_delay_ms(
            lc_cpu_demand=lc_busy,
            be_cpu_demand=float(ant_cores),
            cores=total,
            lc_share=0.98)
    else:  # pragma: no cover - exhaustive over the enum
        raise ValueError(f"unhandled placement {placement}")

    lc_alloc = Allocation(cores_by_socket=spread_cores(lc_cores, spec),
                          ht_share_fraction=lc_ht_share)
    ant_alloc = Allocation(cores_by_socket=spread_cores(ant_cores, spec))

    demands = [lc.demand(load, lc_alloc), antagonist.demand(ant_alloc)]
    usages = server.resolve(demands)
    tail_ms = lc.tail_latency_ms(
        load, usages[lc.name],
        link_utilization=server.telemetry.link_utilization,
        sched_delay_ms=sched_delay_ms)
    return CharacterizationResult(
        lc_name=lc.name,
        antagonist=antagonist_spec.label,
        load=load,
        slo_fraction=lc.slo_fraction(tail_ms),
        lc_cores=lc_cores,
        antagonist_cores=ant_cores,
    )


def baseline_cell(lc: LatencyCriticalWorkload, load: float,
                  spec: Optional[MachineSpec] = None) -> float:
    """SLO fraction for the LC workload alone on the whole machine."""
    spec = spec or lc.spec
    server = Server(spec)
    alloc = Allocation(cores_by_socket=spread_cores(spec.total_cores, spec))
    usages = server.resolve([lc.demand(load, alloc)])
    tail_ms = lc.tail_latency_ms(
        load, usages[lc.name],
        link_utilization=server.telemetry.link_utilization)
    return lc.slo_fraction(tail_ms)


@dataclass
class ColocationResult:
    """Steady-state summary of one controlled colocation run."""

    lc_name: str
    be_name: str
    load: float
    max_slo_fraction: float
    mean_slo_fraction: float
    mean_be_throughput: float
    mean_emu: float
    mean_dram_gbps: float
    mean_cpu_utilization: float
    mean_power_fraction: float
    mean_lc_net_gbps: float
    mean_be_net_gbps: float
    history: SimHistory


@dataclass
class ColocationSweep:
    """All Figure 4-7 measurements for one LC workload: the (BE task x
    load) grid of a ``sweep`` scenario."""

    lc_name: str
    loads: List[float]
    baseline_slo: List[float] = field(default_factory=list)
    results: Dict[str, List[ColocationResult]] = field(default_factory=dict)

    def worst_slo_series(self, be_name: str) -> List[float]:
        """Worst 60 s windowed SLO fraction per load for one BE task."""
        return [r.history.worst_window_slo(skip_s=240.0)
                for r in self.results[be_name]]

    def emu_series(self, be_name: str) -> List[float]:
        """Mean EMU per load for one BE task."""
        return [r.mean_emu for r in self.results[be_name]]

    def metric_series(self, be_name: str, attr: str) -> List[float]:
        """Any :class:`ColocationResult` attribute per load."""
        return [getattr(r, attr) for r in self.results[be_name]]

    def no_violations(self, be_name: str, threshold: float = 1.0) -> bool:
        """True when no load point breaks the SLO for this BE task."""
        return all(v <= threshold for v in self.worst_slo_series(be_name))


def colocation_result(lc_name: str, be_name: str, load: float,
                      history: SimHistory,
                      warmup_s: float) -> ColocationResult:
    """Summarize one colocation run's history past the warm-up."""
    # One timestamp-filter pass over the columnar store covers every
    # steady-state mean the figures report.
    means = history.means(
        ("slo_fraction", "be_throughput_norm", "emu", "dram_bw_gbps",
         "cpu_utilization", "power_fraction_of_tdp", "lc_net_gbps",
         "be_net_gbps"), skip_s=warmup_s)
    return ColocationResult(
        lc_name=lc_name,
        be_name=be_name,
        load=load,
        max_slo_fraction=history.max_slo_fraction(skip_s=warmup_s),
        mean_slo_fraction=means["slo_fraction"],
        mean_be_throughput=means["be_throughput_norm"],
        mean_emu=means["emu"],
        mean_dram_gbps=means["dram_bw_gbps"],
        mean_cpu_utilization=means["cpu_utilization"],
        mean_power_fraction=means["power_fraction_of_tdp"],
        mean_lc_net_gbps=means["lc_net_gbps"],
        mean_be_net_gbps=means["be_net_gbps"],
        history=history,
    )


def run_colocation(lc_name: str, be_name: str, load: float,
                   duration_s: float = 900.0,
                   warmup_s: float = 240.0,
                   spec: Optional[MachineSpec] = None,
                   config: Optional[HeraclesConfig] = None,
                   dram_model: Optional[LcDramBandwidthModel] = None,
                   trace: Optional[LoadTrace] = None,
                   seed: int = 0) -> ColocationResult:
    """Run one LC x BE colocation under Heracles on the scalar engine.

    The reference a ``sweep`` scenario's batch cells are held to.
    """
    spec = spec or default_machine_spec()
    lc = make_lc_workload(lc_name, spec)
    be = make_be_workload(be_name, spec)
    sim = ColocationSim(lc=lc, trace=trace or ConstantLoad(load), be=be,
                        spec=spec, seed=seed)
    HeraclesController.for_sim(sim, config=config, dram_model=dram_model)
    history = sim.run(duration_s)
    return colocation_result(lc_name, be_name, load, history, warmup_s)
