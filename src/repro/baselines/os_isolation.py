"""OS-isolation-only colocation baseline.

The configuration Figure 1's ``brain`` rows measure: the LC service and
the BE task run in separate Linux containers, the BE task gets very few
CFS shares, and *no* other isolation mechanism is used — no cpuset
pinning, no CAT, no DVFS control, no traffic shaping.  Both workloads
may land on any core, or even the same HyperThread.

This module wraps that configuration as a reusable evaluation:
:func:`os_isolation_sweep` produces the tail-latency-vs-load row that
demonstrates why Heracles exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..experiments.common import characterization_cell
from ..hardware.spec import MachineSpec, default_machine_spec
from ..oslayer.scheduler import CfsSharedCoreModel
from ..workloads.antagonists import AntagonistSpec, Placement
from ..workloads.best_effort import BE_PROFILES
from ..workloads.latency_critical import make_lc_workload


@dataclass
class OsIsolationPoint:
    """One load point of the OS-isolation baseline."""

    load: float
    slo_fraction: float
    be_throughput: float


def os_isolation_sweep(lc_name: str,
                       be_name: str = "brain",
                       loads: Optional[List[float]] = None,
                       spec: Optional[MachineSpec] = None,
                       lc_share: float = 0.98
                       ) -> List[OsIsolationPoint]:
    """Tail latency and BE throughput under CFS-shares-only isolation."""
    spec = spec or default_machine_spec()
    lc = make_lc_workload(lc_name, spec)
    if be_name not in BE_PROFILES:
        raise KeyError(f"unknown BE workload {be_name!r}")
    antagonist = AntagonistSpec(label=be_name,
                                profile=BE_PROFILES[be_name],
                                placement=Placement.SHARED_CORES)
    loads = loads or [round(0.05 * i, 2) for i in range(1, 20)]
    cfs = CfsSharedCoreModel()
    points = []
    for load in loads:
        result = characterization_cell(lc, antagonist, load, spec)
        lc_busy = lc.qps_at(load) * lc.base_service_ms / 1000.0
        be_share = cfs.throughput_share(
            lc_cpu_demand=lc_busy,
            be_cpu_demand=float(spec.total_cores),
            cores=spec.total_cores,
            lc_share=lc_share)
        points.append(OsIsolationPoint(
            load=load,
            slo_fraction=result.slo_fraction,
            be_throughput=be_share,
        ))
    return points


def violates_everywhere(points: List[OsIsolationPoint],
                        threshold: float = 1.0) -> bool:
    """True when every load point breaks the SLO — the paper's verdict
    on OS-only isolation for all three LC workloads."""
    if not points:
        raise ValueError("need at least one point")
    return all(p.slo_fraction > threshold for p in points)
