"""The colocation simulation engine.

:class:`ColocationSim` runs one server hosting one LC workload and
(optionally) one BE task group under the control of a pluggable policy.
Each 1-second tick:

0. Due events fire (:mod:`repro.sim.chaos`: faults, injections, a
   static baseline's start-up grant).
1. The load trace produces the LC offered load.
2. Workloads translate (load, allocation) into hardware demands.
3. The server resolves all shared-resource contention.
4. The LC model reports tail latency; the BE model reports throughput.
5. Monitors record; the controller (if any) observes counters/monitors
   and actuates placement changes that take effect next tick.

Controllers implement a single method::

    def step(self, now_s: float) -> None

and receive their observation/actuation surfaces at construction time,
mirroring how the real Heracles runs as a separate per-server process
polling counters and poking cgroups/MSRs/tc.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from time import perf_counter
from typing import Dict, Optional, Protocol

import numpy as np

from ..hardware.counters import CounterBank
from ..hardware.power import SocketPowerModel
from ..metrics.history import ColumnarHistory
from ..hardware.server import Server, TaskUsage
from ..hardware.spec import MachineSpec
from ..obs.profile import make_profiler
from ..obs.trace import make_sink
from ..workloads.best_effort import (BestEffortWorkload,
                                     reference_throughput_units)
from ..workloads.latency_critical import LatencyCriticalWorkload
from ..workloads.traces import LoadTrace
from .actuators import Actuators
from .chaos import PARTITION_TAIL_SLO_MULT, sort_events, trace_chaos_event
from .monitors import LatencyMonitor, ThroughputMonitor


class Controller(Protocol):
    """Anything that can manage the colocation (Heracles and its variants)."""

    def step(self, now_s: float) -> None:
        """Observe and (maybe) actuate; called once per simulation tick."""


@dataclass
class TickRecord:
    """Everything observable about one simulation tick."""

    t_s: float
    load: float
    tail_latency_ms: float
    slo_fraction: float
    be_throughput_norm: float
    be_cores: int
    be_llc_ways: int
    be_dvfs_cap_ghz: Optional[float]
    be_net_ceil_gbps: Optional[float]
    be_enabled: bool
    # Effective Machine Utilization (§5.1): "EMU = LC Throughput + BE
    # Throughput", the LC load as a fraction of peak plus the BE rate
    # normalized to the BE task alone on one server.  It "can be above
    # 100% due to better binpacking of shared resources".
    emu: float
    dram_bw_gbps: float
    dram_utilization: float
    cpu_utilization: float
    power_fraction_of_tdp: float
    lc_net_gbps: float
    be_net_gbps: float
    link_utilization: float


class TickSeriesMixin:
    """The aggregate-metric surface shared by every tick history.

    Mixed into :class:`SimHistory` (columnar storage) and the batched
    engine's per-member views; every method delegates to the one
    :class:`~repro.metrics.windows.WindowedMetrics` implementation, so
    no history can grow its own divergent (or fixed-tick) metric code
    again.
    """

    def max_slo_fraction(self, skip_s: float = 0.0) -> float:
        """Worst single-tick SLO fraction after ``skip_s`` seconds."""
        return self.metrics.maximum("slo_fraction", skip_s=skip_s)

    def dt_s(self) -> float:
        """Tick interval of the recorded run, derived from timestamps.

        Records are appended once per engine tick, so the spacing of
        consecutive timestamps *is* the tick size; falls back to 1 s
        when the history is too short to tell.
        """
        return self.metrics.dt_s()

    def worst_window_slo(self, window_s: float = 60.0,
                         skip_s: float = 0.0,
                         dt_s: Optional[float] = None) -> float:
        """Worst windowed SLO fraction — the paper's reporting metric.

        "Since the SLO is defined over 60-second windows, we report the
        worst-case latency that was seen during experiments" (§5.1): the
        tail over a window is estimated from all of that window's
        samples, so the per-window value is the mean of the per-tick
        tail estimates, and the figure reports the max across windows.

        The window width in samples is derived from the actual tick
        size (``window_s / dt_s``), so the metric stays a true
        ``window_s``-second window for any tick size; ``dt_s`` may be
        passed explicitly to override the derived spacing.
        """
        return self.metrics.worst_window("slo_fraction", window_s=window_s,
                                         skip_s=skip_s, dt_s=dt_s)

    def mean_emu(self, skip_s: float = 0.0) -> float:
        """Mean effective machine utilization after ``skip_s`` seconds."""
        return self.metrics.mean("emu", skip_s=skip_s)

    def mean(self, name: str, skip_s: float = 0.0) -> float:
        """Mean of any record field after ``skip_s`` seconds."""
        return self.metrics.mean(name, skip_s=skip_s)

    def means(self, names, skip_s: float = 0.0) -> Dict[str, float]:
        """Means of several record fields in one timestamp-filter pass."""
        return self.metrics.means(names, skip_s=skip_s)


class SimHistory(TickSeriesMixin, ColumnarHistory):
    """Column-oriented record of a whole run.

    Storage is one :class:`~repro.metrics.columns.ColumnStore` column
    per :class:`TickRecord` field (geometrically grown, O(1) amortized
    appends); ``history.records`` materializes the dataclass list on
    demand for inspection, and :meth:`~repro.metrics.history.
    RecordSeries.column` is a zero-copy view for vectorized consumers.
    """

    RECORD_TYPE = TickRecord
    INT_FIELDS = frozenset({"be_cores", "be_llc_ways"})
    BOOL_FIELDS = frozenset({"be_enabled"})
    OPTIONAL_FIELDS = frozenset({"be_dvfs_cap_ghz", "be_net_ceil_gbps"})


class ColocationSim:
    """One server, one LC workload, one (optional) BE task group."""

    def __init__(self,
                 lc: LatencyCriticalWorkload,
                 trace: LoadTrace,
                 be: Optional[BestEffortWorkload] = None,
                 spec: Optional[MachineSpec] = None,
                 seed: int = 0,
                 spill_dir: Optional[str] = None):
        self.lc = lc
        self.be = be
        self.trace = trace
        self.server = Server(spec or lc.spec)
        self.counters = CounterBank(self.server)
        self.actuators = Actuators(self.server)
        self.latency_monitor = LatencyMonitor()
        self.rng = np.random.default_rng(seed)
        self.time_s = 0.0
        # spill_dir bounds resident history memory by chunked
        # spill-to-disk (see repro.metrics.columns); each sim needs its
        # own directory.
        self.history = SimHistory(spill_dir=spill_dir)
        self.controller: Optional[Controller] = None
        # Observability (off by default: both stay None unless the
        # REPRO_TRACE / REPRO_PROFILE env toggles are set, and the
        # whole disabled path is these attributes' None checks).
        self._obs_trace = make_sink()
        self._obs_prof = make_profiler()
        if be is not None:
            reference = reference_throughput_units(be)
            self.be_monitor: Optional[ThroughputMonitor] = ThroughputMonitor(
                reference)
        else:
            self.be_monitor = None

    def attach_controller(self, controller: Controller) -> None:
        """Install the per-tick controller (Heracles or a variant of it)."""
        self.controller = controller

    # ------------------------------------------------------------------
    # Chaos events
    # ------------------------------------------------------------------

    def set_chaos_events(self, events) -> None:
        """Install a chaos event schedule (see :mod:`repro.sim.chaos`).

        Events fire at the start of the first tick whose time reaches
        their ``at_s``, with the exact semantics the batched engines
        replay bit-for-bit (the module docstring of
        :mod:`repro.sim.chaos` is the contract).  A single-member sim
        accepts only events targeting member 0 (or untargeted ones).
        """
        events = sort_events(events)
        for event in events:
            if event.members is not None and tuple(event.members) not in (
                    (), (0,)):
                raise ValueError(
                    f"chaos event targets members {event.members}; a "
                    f"scalar sim has only member 0")
        self._chaos = events
        self._chaos_pos = 0
        self._chaos_alive = True
        self._chaos_derate = 1.0
        self._chaos_part_until = -np.inf
        self._chaos_stock_socket = self.server.spec.socket

    #: Chaos schedule; None (the default) keeps every chaos branch cold.
    _chaos = None
    #: Observability defaults (class-level, so engines restored from
    #: pre-observability pickles keep working with everything off).
    _obs_trace = None
    _obs_prof = None

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------

    def _obs_actuator_state(self):
        """The traced actuator tuple (pure reads, never perturbing)."""
        act = self.actuators
        return (bool(act.be_enabled), int(act.be_cores),
                int(act.be_llc_ways), act.be_dvfs_cap_ghz,
                act.be_net_ceil_gbps)

    def _obs_emit_decisions(self, pre, record) -> None:
        """Emit one event per actuator the controller changed this tick.

        ``pre`` is the actuator tuple gathered before the controller
        stepped (but after chaos resolution — chaos mutations carry
        their own events); the triggering signals attached are the
        tick's observed SLO fraction and offered load.  A scalar sim
        has one member, traced as member 0.
        """
        post = self._obs_actuator_state()
        if post == pre:
            return
        sink = self._obs_trace
        t_s, slo, load = record.t_s, record.slo_fraction, record.load
        for kind, old, new in zip(("be_gate", "cores", "llc", "dvfs",
                                   "net_ceil"), pre, post):
            if old is new or old == new:
                continue
            sink.emit(t_s, 0, "controller", kind,
                      a=(None if old is None else float(old)),
                      b=(None if new is None else float(new)),
                      slo=slo, load=load)

    def _chaos_apply(self) -> None:
        """Fire due events, then pin a crashed member's BE off."""
        events = self._chaos
        while (self._chaos_pos < len(events)
               and events[self._chaos_pos].at_s <= self.time_s):
            event = events[self._chaos_pos]
            self._chaos_pos += 1
            if event.members is not None and not event.members:
                continue
            if self._obs_trace is not None:
                trace_chaos_event(self._obs_trace, self.time_s, event,
                                  (0,))
            action = event.action
            if action == "leaf_crash":
                self._chaos_alive = False
            elif action == "leaf_restart":
                self._chaos_alive = True
                self.actuators.disable_be()  # rejoin cold
            elif action == "straggler":
                self._chaos_derate = float(event.value)
                # DRAM capacity derates with the member (stuck DIMM
                # training, thermal throttling of the memory bus).
                stock_bw = self._chaos_stock_socket.dram_bw_gbps
                for controller in self.server.memory.values():
                    controller.capacity_gbps = stock_bw * self._chaos_derate
            elif action == "power_cap":
                capped = dataclasses.replace(
                    self._chaos_stock_socket,
                    tdp_watts=(self._chaos_stock_socket.tdp_watts
                               * float(event.value)))
                self.server.power_model = SocketPowerModel(capped)
            elif action == "partition":
                self._chaos_part_until = max(
                    self._chaos_part_until, event.at_s + float(event.value))
            elif action == "enable_be":
                self.actuators.enable_be()
            elif action == "disable_be":
                self.actuators.disable_be()
            elif action == "set_be_cores":
                self.actuators.set_be_cores(int(event.value))
            elif action == "set_llc_split":
                self.actuators.set_llc_split(int(event.value))
            elif action == "lower_be_frequency":
                self.actuators.lower_be_frequency(int(event.value))
            elif action == "set_be_net_ceil":
                self.actuators.set_be_net_ceil(event.value)
        if not self._chaos_alive:
            # Re-pinned every tick: a controller that re-enabled BE at
            # the end of the last tick is overruled while the leaf is
            # down, so a restart always rejoins cold.
            self.actuators.disable_be()

    # ------------------------------------------------------------------

    def tick(self, dt_s: float = 1.0) -> TickRecord:
        """Advance the simulation by one interval."""
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        prof = self._obs_prof
        mark = perf_counter() if prof is not None else 0.0
        if self._chaos is not None:
            self._chaos_apply()
        if prof is not None:
            mark = prof.lap("chaos", mark)
        pre_actuators = (self._obs_actuator_state()
                         if self._obs_trace is not None else None)
        load = self.trace.clipped(self.time_s)
        chaos_parted = False
        if self._chaos is not None:
            chaos_parted = (self._chaos_alive
                            and self.time_s < self._chaos_part_until)
            if not self._chaos_alive or chaos_parted:
                # Crashed: the leaf serves nothing.  Partitioned: load
                # is held at the fan-out root, none of it arrives.
                load = 0.0

        lc_alloc = self.actuators.lc_allocation()
        demands = [self.lc.demand(load, lc_alloc)]
        be_alloc = self.actuators.be_allocation()
        be_running = (self.be is not None and self.actuators.be_enabled
                      and be_alloc.total_cores > 0)
        if be_running:
            demands.append(self.be.demand(be_alloc))

        usages = self.server.resolve(demands)
        lc_usage = usages[self.lc.name]
        link_util = self.server.telemetry.link_utilization
        if self._chaos is not None:
            # Straggler derate: x1.0 is a bitwise identity, so healthy
            # runs are untouched.  Mutating the resolved TaskUsage is
            # what CounterBank.freq_of reads, matching the batched
            # engines' derated frequency columns.
            lc_usage.freq_ghz = lc_usage.freq_ghz * self._chaos_derate
            if be_running:
                be = usages[self.be.name]
                be.freq_ghz = be.freq_ghz * self._chaos_derate

        tail_ms = self.lc.tail_latency_ms(load, lc_usage,
                                          link_utilization=link_util,
                                          rng=self.rng)
        if self._chaos is not None:
            # Overrides come after the noise draw so the member's RNG
            # stream advances identically whether or not it is down.
            if chaos_parted:
                tail_ms = (self.lc.profile.slo_latency_ms
                           * PARTITION_TAIL_SLO_MULT)
            if not self._chaos_alive:
                tail_ms = 0.0
        self.latency_monitor.record(self.time_s, tail_ms, load)

        be_norm = 0.0
        be_usage: Optional[TaskUsage] = None
        if be_running:
            be_usage = usages[self.be.name]
            units = self.be.throughput_units(be_usage)
            self.be_monitor.record(units * dt_s, dt_s)
            be_norm = self.be_monitor.last_normalized

        if prof is not None:
            mark = prof.lap("physics", mark)
        telemetry = self.server.telemetry
        if self._chaos is None:
            power_fraction = telemetry.power_fraction_of_tdp
        else:
            # Under a power_cap the telemetry denominator is the capped
            # TDP; histories (like the batched engines) keep reporting
            # against the *stock* design power.
            power_fraction = telemetry.total_power_watts / (
                self._chaos_stock_socket.tdp_watts * self.server.spec.sockets)
        record = TickRecord(
            t_s=self.time_s,
            load=load,
            tail_latency_ms=tail_ms,
            slo_fraction=self.lc.slo_fraction(tail_ms),
            be_throughput_norm=be_norm,
            be_cores=self.actuators.be_cores,
            be_llc_ways=self.actuators.be_llc_ways,
            be_dvfs_cap_ghz=self.actuators.be_dvfs_cap_ghz,
            be_net_ceil_gbps=self.actuators.be_net_ceil_gbps,
            be_enabled=self.actuators.be_enabled,
            emu=load + be_norm,
            dram_bw_gbps=telemetry.total_dram_gbps,
            dram_utilization=telemetry.max_dram_utilization,
            cpu_utilization=telemetry.cpu_utilization,
            power_fraction_of_tdp=power_fraction,
            lc_net_gbps=lc_usage.net_achieved_gbps,
            be_net_gbps=(be_usage.net_achieved_gbps if be_usage else 0.0),
            link_utilization=link_util,
        )
        self.history.append(record)
        if prof is not None:
            mark = prof.lap("telemetry", mark)

        if self.controller is not None:
            self.controller.step(self.time_s)
        if pre_actuators is not None:
            self._obs_emit_decisions(pre_actuators, record)
        if prof is not None:
            prof.lap("controllers", mark)

        self.time_s += dt_s
        return record

    def run(self, duration_s: float, dt_s: float = 1.0) -> SimHistory:
        """Run for ``duration_s`` simulated seconds."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        steps = int(round(duration_s / dt_s))
        for _ in range(steps):
            self.tick(dt_s)
        return self.history
