"""Workload models: latency-critical services, BE tasks, antagonists, traces."""

from .antagonists import (AntagonistSpec, Placement, figure1_antagonists,
                          make_antagonist)
from .base import (Allocation, cache_demand_for, split_across_sockets,
                   spread_cores)
from .best_effort import (BE_PROFILES, BRAIN, CPU_PWR, IPERF, STREAM_DRAM,
                          STREAM_LLC, STREETVIEW, BestEffortWorkload,
                          BeWorkloadProfile, make_be_workload,
                          reference_throughput_units)
from .latency_critical import (LC_PROFILES, MEMKEYVAL, ML_CLUSTER, WEBSEARCH,
                               LatencyCriticalWorkload, LcWorkloadProfile,
                               make_lc_workload)
from .traces import (ConstantLoad, DiurnalTrace, LoadSpike, LoadTrace,
                     PhasedTrace, ReplayTrace, SpikeOverlay, StepLoad,
                     load_sweep, websearch_cluster_trace)

__all__ = [
    "AntagonistSpec", "Placement", "figure1_antagonists", "make_antagonist",
    "Allocation", "cache_demand_for", "split_across_sockets", "spread_cores",
    "BE_PROFILES", "BRAIN", "CPU_PWR", "IPERF", "STREAM_DRAM", "STREAM_LLC",
    "STREETVIEW", "BestEffortWorkload", "BeWorkloadProfile",
    "make_be_workload", "reference_throughput_units",
    "LC_PROFILES", "MEMKEYVAL", "ML_CLUSTER", "WEBSEARCH",
    "LatencyCriticalWorkload", "LcWorkloadProfile", "make_lc_workload",
    "ConstantLoad", "DiurnalTrace", "LoadSpike", "LoadTrace", "PhasedTrace",
    "ReplayTrace", "SpikeOverlay", "StepLoad", "load_sweep",
    "websearch_cluster_trace",
]
