"""The simulated server: composes CPU, LLC, DRAM, power, and NIC models.

A :class:`Server` is the physical substrate everything else runs on.  Each
simulation tick, the engine collects a :class:`TaskTickDemand` from every
running task (what the task *wants* given its load and current resource
allocation) and calls :meth:`Server.resolve`.  The server then settles the
contention physics in dependency order:

1. **Power/frequency** — per-socket equilibrium given activity and DVFS
   caps (Turbo headroom is a shared resource).
2. **LLC** — steady-state occupancy within each CAT partition.
3. **DRAM** — cache misses plus uncached traffic become channel demand;
   saturation produces an access-delay factor for everyone on the socket.
4. **Network** — egress link shared per-flow, bounded by HTB ceilings.

The result is a :class:`TaskUsage` per task: achieved frequency, cache
coverage, memory delay, and network satisfaction — the raw ingredients
the perf layer turns into tail latency and throughput.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from .cache import CacheDemand, CatController, resolve_occupancy
from .memory import MemoryController, MemoryDemand
from .network import EgressLink, FlowDemand
from .power import CorePowerRequest, RaplMeter, SocketPowerModel
from .spec import MachineSpec, default_machine_spec

#: Name of the implicit CAT class used by tasks with no explicit partition.
DEFAULT_COS = "default"


@dataclass
class TaskTickDemand:
    """Everything one task asks of the server for one tick."""

    task: str
    cores_by_socket: Dict[int, int] = field(default_factory=dict)
    activity: float = 0.0
    dvfs_cap_ghz: Optional[float] = None
    cache_by_socket: Dict[int, CacheDemand] = field(default_factory=dict)
    cache_cos: str = DEFAULT_COS
    # DRAM traffic that bypasses the LLC model (e.g. huge streaming) —
    # cache-miss traffic is added automatically from the LLC resolution.
    uncached_dram_gbps_by_socket: Dict[int, float] = field(default_factory=dict)
    net_demand_gbps: float = 0.0
    net_flows: int = 1
    net_ceil_gbps: Optional[float] = None
    # Fraction of this task's hardware threads whose sibling HyperThread
    # is running a different task (computed by the placement layer).
    ht_share_fraction: float = 0.0
    # MBA-style DRAM request-rate throttle: scales the task's channel
    # demand (1.0 = unthrottled).  See repro.core.mba.
    dram_throttle: float = 1.0

    def total_cores(self) -> int:
        return sum(self.cores_by_socket.values())

    def validate(self, spec: MachineSpec) -> None:
        for s, n in self.cores_by_socket.items():
            if not 0 <= s < spec.sockets:
                raise ValueError(f"socket {s} out of range")
            if n < 0 or n > spec.socket.cores:
                raise ValueError(f"core count {n} out of range on socket {s}")
        if not 0.0 <= self.activity <= 3.0:
            raise ValueError("activity must be in [0, 3] "
                             "(values above 1 model power viruses)")
        if not 0.0 <= self.ht_share_fraction <= 1.0:
            raise ValueError("ht_share_fraction must be in [0, 1]")
        if self.net_demand_gbps < 0:
            raise ValueError("net demand must be non-negative")
        if not 0.0 < self.dram_throttle <= 1.0:
            raise ValueError("dram_throttle must be in (0, 1]")


@dataclass
class TaskUsage:
    """Resolved per-task resource outcome for one tick."""

    task: str
    cores: int
    freq_ghz: float
    cache_hit_fraction: float
    hot_coverage: float
    bulk_coverage: float
    cache_occupancy_mb: float
    dram_demand_gbps: float
    dram_achieved_gbps: float
    mem_delay_factor: float
    net_demand_gbps: float
    net_achieved_gbps: float
    net_satisfaction: float
    ht_share_fraction: float


@dataclass
class SocketTelemetry:
    """Per-socket observable state after a tick."""

    power_watts: float
    tdp_watts: float
    dram_demand_gbps: float
    dram_achieved_gbps: float
    dram_utilization: float
    throttled: bool


@dataclass
class ServerTelemetry:
    """Server-wide observable state after a tick."""

    sockets: List[SocketTelemetry]
    link_tx_gbps: float
    link_utilization: float
    cores_in_use: int
    total_cores: int

    @property
    def cpu_utilization(self) -> float:
        return self.cores_in_use / self.total_cores

    @property
    def total_power_watts(self) -> float:
        return sum(s.power_watts for s in self.sockets)

    @property
    def power_fraction_of_tdp(self) -> float:
        tdp = sum(s.tdp_watts for s in self.sockets)
        return self.total_power_watts / tdp

    @property
    def total_dram_gbps(self) -> float:
        return sum(s.dram_achieved_gbps for s in self.sockets)

    @property
    def max_dram_utilization(self) -> float:
        return max((s.dram_utilization for s in self.sockets), default=0.0)


class Server:
    """One simulated machine."""

    def __init__(self, spec: Optional[MachineSpec] = None):
        self.spec = spec or default_machine_spec()
        self.spec.validate()
        self.cat: Dict[int, CatController] = {
            s: CatController(self.spec.socket.llc_mb, self.spec.socket.llc_ways)
            for s in range(self.spec.sockets)
        }
        self.memory: Dict[int, MemoryController] = {
            s: MemoryController(self.spec.socket.dram_bw_gbps)
            for s in range(self.spec.sockets)
        }
        self.power_model = SocketPowerModel(self.spec.socket)
        self.rapl: Dict[int, RaplMeter] = {
            s: RaplMeter(self.spec.socket.tdp_watts)
            for s in range(self.spec.sockets)
        }
        self.link = EgressLink(self.spec.nic.link_gbps)
        self._usages: Dict[str, TaskUsage] = {}
        self._telemetry = ServerTelemetry(
            sockets=[SocketTelemetry(0.0, self.spec.socket.tdp_watts,
                                     0.0, 0.0, 0.0, False)
                     for _ in range(self.spec.sockets)],
            link_tx_gbps=0.0, link_utilization=0.0,
            cores_in_use=0, total_cores=self.spec.total_cores)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------

    def resolve(self, demands: List[TaskTickDemand]) -> Dict[str, TaskUsage]:
        """Settle all shared-resource contention for one tick."""
        for d in demands:
            d.validate(self.spec)
        names = [d.task for d in demands]
        if len(set(names)) != len(names):
            raise ValueError("duplicate task names in demands")

        freqs = self._resolve_power(demands)
        cache_results = self._resolve_cache(demands)
        mem_results = self._resolve_memory(demands, cache_results)
        net_results = self._resolve_network(demands)

        self._usages = {}
        for d in demands:
            hit, hot_cov, bulk_cov, occ = cache_results["per_task"].get(
                d.task, (1.0, 1.0, 1.0, 0.0))
            dram_dem, dram_ach, delay = mem_results["per_task"].get(
                d.task, (0.0, 0.0, 1.0))
            net = net_results.grant_for(d.task)
            self._usages[d.task] = TaskUsage(
                task=d.task,
                cores=d.total_cores(),
                freq_ghz=freqs.get(d.task, self.spec.socket.turbo.nominal_ghz),
                cache_hit_fraction=hit,
                hot_coverage=hot_cov,
                bulk_coverage=bulk_cov,
                cache_occupancy_mb=occ,
                dram_demand_gbps=dram_dem,
                dram_achieved_gbps=dram_ach,
                mem_delay_factor=delay,
                net_demand_gbps=d.net_demand_gbps,
                net_achieved_gbps=net.achieved_gbps,
                net_satisfaction=net.satisfaction,
                ht_share_fraction=d.ht_share_fraction,
            )

        self._update_telemetry(demands, mem_results, net_results)
        return dict(self._usages)

    def _resolve_power(self, demands: List[TaskTickDemand]) -> Dict[str, float]:
        """Per-socket power equilibrium; returns core-weighted frequency."""
        freq_acc: Dict[str, float] = {}
        core_acc: Dict[str, int] = {}
        self._socket_power: List = []
        for s in range(self.spec.sockets):
            requests = []
            for d in demands:
                cores = d.cores_by_socket.get(s, 0)
                if cores > 0:
                    requests.append(CorePowerRequest(
                        task=d.task, cores=cores, activity=d.activity,
                        dvfs_cap_ghz=d.dvfs_cap_ghz))
            resolution = self.power_model.resolve(requests)
            self.rapl[s].record(resolution.socket_power_watts)
            self._socket_power.append(resolution)
            for g in resolution.grants:
                cores = next(r.cores for r in requests if r.task == g.task)
                freq_acc[g.task] = freq_acc.get(g.task, 0.0) + g.freq_ghz * cores
                core_acc[g.task] = core_acc.get(g.task, 0) + cores
        return {t: freq_acc[t] / core_acc[t] for t in freq_acc if core_acc[t]}

    def _resolve_cache(self, demands: List[TaskTickDemand]) -> Dict:
        """Per-socket, per-COS occupancy resolution.

        The default class gets all ways not claimed by named classes, so a
        machine with no CAT configuration behaves as a fully shared LLC.
        """
        per_task: Dict[str, tuple] = {}
        miss_by_task_socket: Dict[tuple, float] = {}
        for s in range(self.spec.sockets):
            cat = self.cat[s]
            groups: Dict[str, List[CacheDemand]] = {}
            owner: Dict[str, str] = {}
            for d in demands:
                cd = d.cache_by_socket.get(s)
                if cd is None:
                    continue
                groups.setdefault(d.cache_cos, []).append(cd)
                owner[cd.task] = d.task
            for cos, cds in groups.items():
                if cos == DEFAULT_COS:
                    partition_mb = cat.unallocated_ways() * cat.mb_per_way
                    if not cat.classes():
                        partition_mb = cat.llc_mb
                else:
                    partition_mb = cat.partition_mb(cos)
                for share in resolve_occupancy(partition_mb, cds):
                    task = owner[share.task]
                    miss_by_task_socket[(task, s)] = share.miss_gbps
                    prev = per_task.get(task)
                    if prev is None:
                        per_task[task] = (share.hit_fraction,
                                          share.hot_coverage,
                                          share.bulk_coverage,
                                          share.occupancy_mb)
                    else:
                        # Task spans sockets: average coverage, sum occupancy.
                        per_task[task] = (
                            (prev[0] + share.hit_fraction) / 2,
                            (prev[1] + share.hot_coverage) / 2,
                            (prev[2] + share.bulk_coverage) / 2,
                            prev[3] + share.occupancy_mb)
        return {"per_task": per_task, "miss": miss_by_task_socket}

    def _resolve_memory(self, demands: List[TaskTickDemand],
                        cache_results: Dict) -> Dict:
        miss = cache_results["miss"]
        per_task: Dict[str, tuple] = {}
        self._mem_resolutions = []
        socket_demands: Dict[int, List[MemoryDemand]] = {
            s: [] for s in range(self.spec.sockets)}
        # Channel demand is throttled (MBA limits the request rate), but
        # the *offered* demand recorded per task stays unthrottled so a
        # throttled task reads as memory-starved, not as satisfied.
        offered: Dict[tuple, float] = {}
        for d in demands:
            for s in range(self.spec.sockets):
                bw = d.uncached_dram_gbps_by_socket.get(s, 0.0)
                bw += miss.get((d.task, s), 0.0)
                if bw > 0 or d.cores_by_socket.get(s, 0) > 0:
                    offered[(d.task, s)] = bw
                    socket_demands[s].append(
                        MemoryDemand(d.task, bw * d.dram_throttle))
        for s in range(self.spec.sockets):
            resolution = self.memory[s].resolve(socket_demands[s])
            self._mem_resolutions.append(resolution)
            for g in resolution.grants:
                prev = per_task.get(g.task, (0.0, 0.0, 1.0))
                per_task[g.task] = (prev[0] + offered[(g.task, s)],
                                    prev[1] + g.achieved_gbps,
                                    max(prev[2], g.access_delay_factor))
        return {"per_task": per_task}

    def _resolve_network(self, demands: List[TaskTickDemand]):
        flow_demands = [FlowDemand(task=d.task,
                                   demand_gbps=d.net_demand_gbps,
                                   flows=d.net_flows,
                                   ceil_gbps=d.net_ceil_gbps)
                        for d in demands]
        return self.link.resolve(flow_demands)

    def _update_telemetry(self, demands, mem_results, net_results) -> None:
        sockets = []
        for s in range(self.spec.sockets):
            p = self._socket_power[s]
            m = self._mem_resolutions[s]
            sockets.append(SocketTelemetry(
                power_watts=p.socket_power_watts,
                tdp_watts=p.tdp_watts,
                dram_demand_gbps=m.total_demand_gbps,
                dram_achieved_gbps=m.total_achieved_gbps,
                dram_utilization=m.utilization,
                throttled=p.throttled,
            ))
        cores_in_use = sum(d.total_cores() for d in demands)
        self._telemetry = ServerTelemetry(
            sockets=sockets,
            link_tx_gbps=net_results.total_achieved_gbps,
            link_utilization=net_results.utilization,
            cores_in_use=min(cores_in_use, self.spec.total_cores),
            total_cores=self.spec.total_cores,
        )

    # ------------------------------------------------------------------
    # Observation
    # ------------------------------------------------------------------

    @property
    def telemetry(self) -> ServerTelemetry:
        return self._telemetry

    def usage_of(self, task: str) -> TaskUsage:
        return self._usages[task]

    def usages(self) -> Dict[str, TaskUsage]:
        return dict(self._usages)
