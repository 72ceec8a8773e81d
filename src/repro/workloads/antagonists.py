"""Interference microbenchmarks for the Figure 1 characterization.

§3.2 runs each LC workload against a synthetic benchmark that stresses a
single shared resource in isolation:

* ``LLC (small|med|big)`` — streams through an array sized to a quarter,
  half, or almost all of the LLC, pinned to the cores the LC task is not
  using.
* ``DRAM`` — same placement, with an array far larger than the LLC so
  every access goes to memory, saturating the channels.
* ``HyperThread`` — a tight spinloop pinned on the *sibling* HyperThreads
  of the LC task's cores.  It touches registers only — no L1/L2/LLC
  footprint — making it a lower bound on HyperThread interference.
* ``CPU power`` — a power virus on the remaining cores.
* ``Network`` — iperf generating many low-bandwidth "mice" flows.
* ``brain`` — the production BE task under OS-only isolation (separate
  containers, low CFS shares), the configuration Figure 1 uses to show
  that OS isolation is inadequate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional

from ..hardware.spec import MachineSpec, default_machine_spec
from .best_effort import (BRAIN, CPU_PWR, IPERF, STREAM_DRAM,
                          BeWorkloadProfile, BestEffortWorkload)


class Placement(enum.Enum):
    """How an antagonist is pinned relative to the LC workload."""

    REMAINING_CORES = "remaining_cores"   # cores the LC task is not using
    SIBLING_THREADS = "sibling_threads"   # HT siblings of the LC cores
    ONE_CORE = "one_core"                 # a single core (network tests)
    SHARED_CORES = "shared_cores"         # same cores, CFS-arbitrated


@dataclass(frozen=True)
class AntagonistSpec:
    """One row of Figure 1: a stressor plus its placement."""

    label: str
    profile: BeWorkloadProfile
    placement: Placement


def _llc_stream_profile(label: str, llc_fraction: float,
                        spec: MachineSpec) -> BeWorkloadProfile:
    """A cache antagonist streaming an array covering ``llc_fraction`` of
    the total LLC."""
    if not 0.0 < llc_fraction <= 1.0:
        raise ValueError("llc_fraction must be in (0, 1]")
    return BeWorkloadProfile(
        name=label,
        activity=0.50,
        bulk_mb=llc_fraction * spec.total_llc_mb,
        bulk_reuse=1.0,
        access_gbps_per_core=9.0,
        uncached_dram_gbps_per_core=0.2,
        mem_bound_fraction=0.45,
        cache_benefit=0.55,
    )


def _spinloop_profile() -> BeWorkloadProfile:
    """Tight spinloop: registers only, minimal power, no memory."""
    return BeWorkloadProfile(
        name="HyperThread",
        activity=0.30,
        hot_mb=0.0,
        bulk_mb=0.0,
        access_gbps_per_core=0.0,
        mem_bound_fraction=0.0,
        cache_benefit=0.0,
    )


def figure1_antagonists(spec: Optional[MachineSpec] = None) -> List[AntagonistSpec]:
    """The eight rows of Figure 1, in paper order."""
    spec = spec or default_machine_spec()
    return [
        AntagonistSpec("LLC (small)",
                       _llc_stream_profile("LLC (small)", 0.25, spec),
                       Placement.REMAINING_CORES),
        AntagonistSpec("LLC (med)",
                       _llc_stream_profile("LLC (med)", 0.50, spec),
                       Placement.REMAINING_CORES),
        AntagonistSpec("LLC (big)",
                       _llc_stream_profile("LLC (big)", 0.90, spec),
                       Placement.REMAINING_CORES),
        AntagonistSpec("DRAM",
                       BeWorkloadProfile(
                           name="DRAM",
                           activity=STREAM_DRAM.activity,
                           bulk_mb=STREAM_DRAM.bulk_mb,
                           bulk_reuse=STREAM_DRAM.bulk_reuse,
                           access_gbps_per_core=STREAM_DRAM.access_gbps_per_core,
                           mem_bound_fraction=STREAM_DRAM.mem_bound_fraction,
                           cache_benefit=STREAM_DRAM.cache_benefit),
                       Placement.REMAINING_CORES),
        AntagonistSpec("HyperThread",
                       _spinloop_profile(),
                       Placement.SIBLING_THREADS),
        AntagonistSpec("CPU power",
                       BeWorkloadProfile(
                           name="CPU power",
                           activity=CPU_PWR.activity,
                           power_weight=CPU_PWR.power_weight,
                           hot_mb=CPU_PWR.hot_mb,
                           bulk_mb=CPU_PWR.bulk_mb,
                           bulk_reuse=CPU_PWR.bulk_reuse,
                           access_gbps_per_core=CPU_PWR.access_gbps_per_core,
                           mem_bound_fraction=CPU_PWR.mem_bound_fraction,
                           cache_benefit=CPU_PWR.cache_benefit),
                       Placement.REMAINING_CORES),
        AntagonistSpec("Network",
                       BeWorkloadProfile(
                           name="Network",
                           activity=IPERF.activity,
                           net_demand_gbps=IPERF.net_demand_gbps,
                           net_flows=IPERF.net_flows,
                           mem_bound_fraction=IPERF.mem_bound_fraction,
                           cache_benefit=IPERF.cache_benefit),
                       Placement.ONE_CORE),
        AntagonistSpec("brain",
                       BeWorkloadProfile(
                           name="brain",
                           activity=BRAIN.activity,
                           power_weight=BRAIN.power_weight,
                           hot_mb=BRAIN.hot_mb,
                           bulk_mb=BRAIN.bulk_mb,
                           bulk_reuse=BRAIN.bulk_reuse,
                           access_gbps_per_core=BRAIN.access_gbps_per_core,
                           hot_access_fraction=BRAIN.hot_access_fraction,
                           uncached_dram_gbps_per_core=BRAIN.uncached_dram_gbps_per_core,
                           mem_bound_fraction=BRAIN.mem_bound_fraction,
                           cache_benefit=BRAIN.cache_benefit),
                       Placement.SHARED_CORES),
    ]


def make_antagonist(spec_: AntagonistSpec,
                    machine: Optional[MachineSpec] = None) -> BestEffortWorkload:
    """Instantiate the BE workload behind an antagonist spec."""
    return BestEffortWorkload(spec_.profile, machine)
