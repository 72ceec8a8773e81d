"""Typed scenario specifications.

A *scenario* is a declarative description of a colocation experiment —
which hardware, which workloads, which load traces, which controller,
what to sweep, and what to inject mid-run.  Specs are plain frozen
dataclasses built from dicts (hand-written, loaded from JSON/YAML
files, or constructed in code); :mod:`repro.scenarios.compiler` lowers
a validated spec onto the engine/batch/runner stack.

Every ``from_dict`` constructor rejects unknown fields and validates
values eagerly, so a typo'd spec fails at load time with a message
naming the offending field — never as a silent default deep inside a
multi-hour run.

The schema is documented field-by-field in ``docs/scenarios.md``.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple

from ..hardware.spec import MachineSpec, default_machine_spec
from ..workloads.best_effort import BE_PROFILES
from ..workloads.latency_critical import LC_PROFILES
from ..workloads.traces import (ConstantLoad, DiurnalTrace, LoadSpike,
                                LoadTrace, PhasedTrace, ReplayTrace,
                                SpikeOverlay, StepLoad)

#: Controllers a scenario (or a member) may select.
CONTROLLERS = ("heracles", "none", "static-conservative",
               "static-optimistic")

#: Execution backends.  ``auto`` picks scalar for a single member and
#: batch for multi-member scenarios.
ENGINES = ("auto", "scalar", "batch")

#: Mid-run injection actions (see :class:`InjectionSpec`).  The first
#: five are per-member actuator pokes; the last five are *chaos* events
#: resolved inside the engines (see :mod:`repro.sim.chaos`).
INJECTION_ACTIONS = ("enable_be", "disable_be", "set_be_cores",
                     "set_llc_split", "set_be_net_ceil",
                     "leaf_crash", "leaf_restart", "straggler",
                     "power_cap", "partition")

#: The subset of :data:`INJECTION_ACTIONS` lowered to engine-level
#: chaos events (masked column updates) rather than actuator calls.
CHAOS_ACTIONS = ("leaf_crash", "leaf_restart", "straggler", "power_cap",
                 "partition")


class ScenarioError(ValueError):
    """A scenario spec failed to load or validate."""


def _require_mapping(data: Any, ctx: str) -> Mapping[str, Any]:
    """Validate that ``data`` is a string-keyed mapping."""
    if not isinstance(data, Mapping) or not all(
            isinstance(k, str) for k in data):
        raise ScenarioError(f"{ctx}: expected a mapping of field names, "
                            f"got {type(data).__name__}")
    return data


def _reject_unknown(data: Mapping[str, Any], allowed: Tuple[str, ...],
                    ctx: str) -> None:
    """Raise :class:`ScenarioError` naming any field not in ``allowed``."""
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise ScenarioError(
            f"{ctx}: unknown field(s) {', '.join(map(repr, unknown))}; "
            f"allowed fields: {', '.join(sorted(allowed))}")


def _number(value: Any, ctx: str) -> float:
    """Coerce an int/float (but not bool) to float, or fail."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{ctx}: expected a number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ServerSpec:
    """Hardware overrides applied to the paper's default server.

    Every field is optional; ``None`` keeps the corresponding value of
    :func:`repro.hardware.spec.default_machine_spec` (the dual-socket
    Haswell-class machine).  The composed :class:`MachineSpec` is
    validated, so inconsistent overrides (e.g. one LLC way) fail at
    spec-build time.
    """

    sockets: Optional[int] = None
    cores: Optional[int] = None
    threads_per_core: Optional[int] = None
    llc_mb: Optional[float] = None
    llc_ways: Optional[int] = None
    dram_bw_gbps: Optional[float] = None
    tdp_watts: Optional[float] = None
    idle_watts: Optional[float] = None
    link_gbps: Optional[float] = None
    nominal_ghz: Optional[float] = None
    max_turbo_ghz: Optional[float] = None
    all_core_turbo_ghz: Optional[float] = None
    min_ghz: Optional[float] = None

    _FIELDS = ("sockets", "cores", "threads_per_core", "llc_mb", "llc_ways",
               "dram_bw_gbps", "tdp_watts", "idle_watts", "link_gbps",
               "nominal_ghz", "max_turbo_ghz", "all_core_turbo_ghz",
               "min_ghz")
    _INT_FIELDS = ("sockets", "cores", "threads_per_core", "llc_ways")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "server") -> "ServerSpec":
        """Build from a mapping, rejecting unknown fields."""
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        kwargs: Dict[str, Any] = {}
        for name, value in data.items():
            if value is None:
                continue
            if name in cls._INT_FIELDS:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ScenarioError(f"{ctx}.{name}: expected an "
                                        f"integer, got {value!r}")
                kwargs[name] = value
            else:
                kwargs[name] = _number(value, f"{ctx}.{name}")
        return cls(**kwargs)

    def is_default(self) -> bool:
        """True when no override is set (the paper's stock server)."""
        return all(getattr(self, name) is None for name in self._FIELDS)

    def to_machine_spec(self) -> MachineSpec:
        """Compose the overrides onto the default machine and validate."""
        base = default_machine_spec()
        turbo_over = {k: v for k, v in (
            ("nominal_ghz", self.nominal_ghz),
            ("max_turbo_ghz", self.max_turbo_ghz),
            ("all_core_turbo_ghz", self.all_core_turbo_ghz),
            ("min_ghz", self.min_ghz)) if v is not None}
        socket_over = {k: v for k, v in (
            ("cores", self.cores),
            ("threads_per_core", self.threads_per_core),
            ("llc_mb", self.llc_mb),
            ("llc_ways", self.llc_ways),
            ("dram_bw_gbps", self.dram_bw_gbps),
            ("tdp_watts", self.tdp_watts),
            ("idle_watts", self.idle_watts)) if v is not None}
        socket = base.socket
        if turbo_over:
            socket = dataclasses.replace(
                socket, turbo=dataclasses.replace(socket.turbo, **turbo_over))
        if socket_over:
            socket = dataclasses.replace(socket, **socket_over)
        machine_over: Dict[str, Any] = {"socket": socket}
        if self.sockets is not None:
            machine_over["sockets"] = self.sockets
        if self.link_gbps is not None:
            machine_over["nic"] = dataclasses.replace(
                base.nic, link_gbps=self.link_gbps)
        spec = dataclasses.replace(base, **machine_over)
        try:
            spec.validate()
        except ValueError as exc:
            raise ScenarioError(f"server: invalid hardware override "
                                f"({exc})") from exc
        return spec


@dataclass(frozen=True)
class SpikeSpec:
    """One injected load spike (see :class:`~repro.workloads.traces.
    LoadSpike`): hold ``load`` from ``at_s`` for ``duration_s``."""

    at_s: float
    duration_s: float
    load: float

    _FIELDS = ("at_s", "duration_s", "load")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "spike") -> "SpikeSpec":
        """Build from a mapping, rejecting unknown fields."""
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        for name in cls._FIELDS:
            if name not in data:
                raise ScenarioError(f"{ctx}: missing required field "
                                    f"{name!r}")
        spike = cls(at_s=_number(data["at_s"], f"{ctx}.at_s"),
                    duration_s=_number(data["duration_s"],
                                       f"{ctx}.duration_s"),
                    load=_number(data["load"], f"{ctx}.load"))
        spike.validate(ctx)
        return spike

    def validate(self, ctx: str = "spike") -> None:
        """Check value ranges (delegates to :class:`LoadSpike`)."""
        try:
            LoadSpike(self.at_s, self.duration_s, self.load)
        except ValueError as exc:
            raise ScenarioError(f"{ctx}: {exc}") from exc

    def to_load_spike(self) -> LoadSpike:
        """Convert to the workload layer's :class:`LoadSpike`."""
        return LoadSpike(at_s=self.at_s, duration_s=self.duration_s,
                         load=self.load)


#: Allowed fields per trace kind (beyond ``kind`` and ``spikes``).
_TRACE_KIND_FIELDS = {
    "constant": ("load",),
    "diurnal": ("low", "high", "period_s", "noise_sigma", "seed"),
    "step": ("times_s", "loads"),
    "replay": ("samples", "interval_s"),
}


@dataclass(frozen=True)
class TraceSpec:
    """Declarative load trace: a kind plus its parameters.

    Kinds mirror :mod:`repro.workloads.traces`: ``constant`` (fields
    ``load``), ``diurnal`` (``low``, ``high``, ``period_s``,
    ``noise_sigma``, ``seed``), ``step`` (``times_s``, ``loads``) and
    ``replay`` (``samples``, ``interval_s``).  Any kind accepts a
    ``spikes`` list (spikes overlay the base trace via
    :class:`~repro.workloads.traces.SpikeOverlay`) and a ``phase_s``
    offset, which evaluates the base trace ``phase_s`` seconds ahead
    — the follow-the-sun primitive for fleet scenarios.  Spikes fire
    at simulation time, unaffected by the phase shift.
    """

    kind: str = "constant"
    load: float = 0.5
    low: float = 0.20
    high: float = 0.90
    period_s: float = 12 * 3600.0
    noise_sigma: float = 0.0
    seed: Optional[int] = None
    times_s: Tuple[float, ...] = ()
    loads: Tuple[float, ...] = ()
    samples: Tuple[float, ...] = ()
    interval_s: float = 1.0
    spikes: Tuple[SpikeSpec, ...] = ()
    phase_s: float = 0.0

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "trace") -> "TraceSpec":
        """Build from a mapping; fields must match the trace ``kind``."""
        data = _require_mapping(data, ctx)
        kind = data.get("kind", "constant")
        if kind not in _TRACE_KIND_FIELDS:
            raise ScenarioError(
                f"{ctx}.kind: unknown trace kind {kind!r}; choose from "
                f"{', '.join(sorted(_TRACE_KIND_FIELDS))}")
        allowed = ("kind", "spikes", "phase_s") + _TRACE_KIND_FIELDS[kind]
        _reject_unknown(data, allowed, ctx)
        kwargs: Dict[str, Any] = {"kind": kind}
        if "phase_s" in data:
            kwargs["phase_s"] = _number(data["phase_s"], f"{ctx}.phase_s")
        for name in _TRACE_KIND_FIELDS[kind]:
            if name not in data:
                continue
            value = data[name]
            if name == "seed":
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ScenarioError(f"{ctx}.seed: expected an integer, "
                                        f"got {value!r}")
                kwargs[name] = value
            elif name in ("times_s", "loads", "samples"):
                if not isinstance(value, (list, tuple)):
                    raise ScenarioError(f"{ctx}.{name}: expected a list, "
                                        f"got {value!r}")
                kwargs[name] = tuple(
                    _number(v, f"{ctx}.{name}[{i}]")
                    for i, v in enumerate(value))
            else:
                kwargs[name] = _number(value, f"{ctx}.{name}")
        raw_spikes = data.get("spikes", ())
        if not isinstance(raw_spikes, (list, tuple)):
            raise ScenarioError(f"{ctx}.spikes: expected a list, got "
                                f"{raw_spikes!r}")
        kwargs["spikes"] = tuple(
            SpikeSpec.from_dict(s, f"{ctx}.spikes[{i}]")
            for i, s in enumerate(raw_spikes))
        spec = cls(**kwargs)
        spec.validate(ctx)
        return spec

    def validate(self, ctx: str = "trace") -> None:
        """Validate by building the trace (traces self-validate)."""
        try:
            self.build(default_seed=0)
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{ctx}: {exc}") from exc

    def build(self, default_seed: int = 0) -> LoadTrace:
        """Construct the concrete :class:`LoadTrace`.

        Args:
            default_seed: seed for stochastic kinds when the spec does
                not pin one.

        Returns:
            The base trace, wrapped in :class:`SpikeOverlay` when the
            spec lists spikes.
        """
        if self.kind == "constant":
            base: LoadTrace = ConstantLoad(self.load)
        elif self.kind == "diurnal":
            seed = self.seed if self.seed is not None else default_seed
            base = DiurnalTrace(low=self.low, high=self.high,
                                period_s=self.period_s,
                                noise_sigma=self.noise_sigma, seed=seed)
        elif self.kind == "step":
            base = StepLoad(times_s=list(self.times_s),
                            loads=list(self.loads))
        elif self.kind == "replay":
            base = ReplayTrace(samples=list(self.samples),
                               interval_s=self.interval_s)
        else:  # pragma: no cover - from_dict rejects unknown kinds
            raise ScenarioError(f"unknown trace kind {self.kind!r}")
        if self.phase_s:
            base = PhasedTrace(base, self.phase_s)
        if self.spikes:
            return SpikeOverlay(base,
                                [s.to_load_spike() for s in self.spikes])
        return base


@dataclass(frozen=True)
class WorkloadSpec:
    """One colocation member: an LC service plus an optional BE task.

    Args:
        lc: LC workload name (``websearch``, ``ml_cluster``,
            ``memkeyval``).
        be: BE task name (``brain``, ``streetview``, ``stream-LLC``,
            ``stream-DRAM``, ``cpu_pwr``, ``iperf``) or ``None`` for an
            LC-only member.
        trace: the member's offered-load trace.
        seed: tail-noise RNG seed; ``None`` derives ``scenario.seed +
            member index`` so fleet members decorrelate by default.
        controller: per-member override of the scenario controller.
    """

    lc: str
    be: Optional[str] = None
    trace: TraceSpec = field(default_factory=TraceSpec)
    seed: Optional[int] = None
    controller: Optional[str] = None

    _FIELDS = ("lc", "be", "trace", "seed", "controller")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "member") -> "WorkloadSpec":
        """Build from a mapping, rejecting unknown fields."""
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        if "lc" not in data:
            raise ScenarioError(f"{ctx}: missing required field 'lc'")
        kwargs: Dict[str, Any] = {"lc": data["lc"], "be": data.get("be")}
        if "trace" in data:
            kwargs["trace"] = TraceSpec.from_dict(data["trace"],
                                                  f"{ctx}.trace")
        if data.get("seed") is not None:
            seed = data["seed"]
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ScenarioError(f"{ctx}.seed: expected an integer, "
                                    f"got {seed!r}")
            kwargs["seed"] = seed
        if data.get("controller") is not None:
            kwargs["controller"] = data["controller"]
        spec = cls(**kwargs)
        spec.validate(ctx)
        return spec

    def validate(self, ctx: str = "member") -> None:
        """Check workload names and the controller override."""
        if self.lc not in LC_PROFILES:
            raise ScenarioError(
                f"{ctx}.lc: unknown LC workload {self.lc!r}; choose from "
                f"{', '.join(sorted(LC_PROFILES))}")
        if self.be is not None and self.be not in BE_PROFILES:
            raise ScenarioError(
                f"{ctx}.be: unknown BE workload {self.be!r}; choose from "
                f"{', '.join(sorted(BE_PROFILES))}")
        if self.controller is not None and self.controller not in CONTROLLERS:
            raise ScenarioError(
                f"{ctx}.controller: unknown controller "
                f"{self.controller!r}; choose from {', '.join(CONTROLLERS)}")
        self.trace.validate(f"{ctx}.trace")


@dataclass(frozen=True)
class SweepSpec:
    """A (LC task x BE task x load) grid, fanned across the runner.

    Each cell is one independent constant-load colocation run (the
    Figure 4-7 methodology); cells are dispatched through
    :func:`repro.sim.runner.run_sweep`.
    """

    lc_tasks: Tuple[str, ...] = ("websearch",)
    be_tasks: Tuple[str, ...] = ("brain",)
    loads: Tuple[float, ...] = (0.25, 0.50, 0.75)
    include_baseline: bool = True

    _FIELDS = ("lc_tasks", "be_tasks", "loads", "include_baseline")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "sweep") -> "SweepSpec":
        """Build from a mapping, rejecting unknown fields."""
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        kwargs: Dict[str, Any] = {}
        for name in ("lc_tasks", "be_tasks"):
            if name in data:
                value = data[name]
                if (not isinstance(value, (list, tuple))
                        or not all(isinstance(v, str) for v in value)):
                    raise ScenarioError(f"{ctx}.{name}: expected a list of "
                                        f"names, got {value!r}")
                kwargs[name] = tuple(value)
        if "loads" in data:
            value = data["loads"]
            if not isinstance(value, (list, tuple)):
                raise ScenarioError(f"{ctx}.loads: expected a list, got "
                                    f"{value!r}")
            kwargs["loads"] = tuple(_number(v, f"{ctx}.loads[{i}]")
                                    for i, v in enumerate(value))
        if "include_baseline" in data:
            if not isinstance(data["include_baseline"], bool):
                raise ScenarioError(f"{ctx}.include_baseline: expected a "
                                    f"bool, got {data['include_baseline']!r}")
            kwargs["include_baseline"] = data["include_baseline"]
        spec = cls(**kwargs)
        spec.validate(ctx)
        return spec

    def validate(self, ctx: str = "sweep") -> None:
        """Check axis names and load ranges."""
        if not self.lc_tasks or not self.be_tasks or not self.loads:
            raise ScenarioError(f"{ctx}: lc_tasks, be_tasks and loads must "
                                f"all be non-empty")
        for name in self.lc_tasks:
            if name not in LC_PROFILES:
                raise ScenarioError(
                    f"{ctx}.lc_tasks: unknown LC workload {name!r}; choose "
                    f"from {', '.join(sorted(LC_PROFILES))}")
        for name in self.be_tasks:
            if name not in BE_PROFILES:
                raise ScenarioError(
                    f"{ctx}.be_tasks: unknown BE workload {name!r}; choose "
                    f"from {', '.join(sorted(BE_PROFILES))}")
        for load in self.loads:
            if not 0.0 < load <= 1.0:
                raise ScenarioError(f"{ctx}.loads: load {load!r} outside "
                                    f"(0, 1]")


@dataclass(frozen=True)
class ClusterSpec:
    """A websearch minicluster run (the §5.3 / Figure 8 shape).

    Arms (``managed`` = Heracles on every leaf, ``baseline`` = no
    colocation) are independent simulations fanned across the runner.
    """

    leaves: int = 8
    arms: Tuple[str, ...] = ("managed", "baseline")
    trace: TraceSpec = field(default_factory=lambda: TraceSpec(
        kind="diurnal", low=0.20, high=0.90, period_s=12 * 3600.0,
        noise_sigma=0.02))
    engine: str = "batch"

    _FIELDS = ("leaves", "arms", "trace", "engine")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "cluster") -> "ClusterSpec":
        """Build from a mapping, rejecting unknown fields."""
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        kwargs: Dict[str, Any] = {}
        if "leaves" in data:
            leaves = data["leaves"]
            if isinstance(leaves, bool) or not isinstance(leaves, int):
                raise ScenarioError(f"{ctx}.leaves: expected an integer, "
                                    f"got {leaves!r}")
            kwargs["leaves"] = leaves
        if "arms" in data:
            arms = data["arms"]
            if (not isinstance(arms, (list, tuple))
                    or not all(isinstance(a, str) for a in arms)):
                raise ScenarioError(f"{ctx}.arms: expected a list of arm "
                                    f"names, got {arms!r}")
            kwargs["arms"] = tuple(arms)
        if "trace" in data:
            kwargs["trace"] = TraceSpec.from_dict(data["trace"],
                                                  f"{ctx}.trace")
        if "engine" in data:
            kwargs["engine"] = data["engine"]
        spec = cls(**kwargs)
        spec.validate(ctx)
        return spec

    def validate(self, ctx: str = "cluster") -> None:
        """Check leaf count, arm names and the engine choice."""
        if self.leaves < 2:
            raise ScenarioError(f"{ctx}.leaves: a cluster needs at least "
                                f"two leaves")
        if not self.arms:
            raise ScenarioError(f"{ctx}.arms: need at least one arm")
        for arm in self.arms:
            if arm not in ("managed", "baseline"):
                raise ScenarioError(f"{ctx}.arms: unknown arm {arm!r}; "
                                    f"choose from managed, baseline")
        if self.engine not in ("batch", "scalar"):
            raise ScenarioError(f"{ctx}.engine: unknown engine "
                                f"{self.engine!r}; choose batch or scalar")
        self.trace.validate(f"{ctx}.trace")


@dataclass(frozen=True)
class ShardSpec:
    """One homogeneous cluster of a fleet scenario.

    A fleet is a set of these: each declares one homogeneous leaf
    population — its own hardware, LC service, BE mix, and
    (phase-shifted) trace — which the fleet simulator partitions into
    execution shards of at most ``fleet.shard_leaves`` leaves.

    Args:
        name: unique cluster name within the fleet.
        leaves: leaf population (at least 2; zero or negative counts
            are rejected at load time).
        lc: LC workload every leaf runs.
        be_mix: BE task names, cycled across leaves by global index
            (the default matches §5.3's brain/streetview alternation).
        server: hardware overrides for this cluster's machines.
        trace: the cluster's shared offered-load trace.
        managed: run Heracles on every leaf (``false`` = baseline).
        seed: cluster base seed; ``None`` derives
            ``scenario.seed + cluster index``.
    """

    name: str
    leaves: int
    lc: str = "websearch"
    be_mix: Tuple[str, ...] = ("brain", "streetview")
    server: ServerSpec = field(default_factory=ServerSpec)
    trace: TraceSpec = field(default_factory=lambda: TraceSpec(
        kind="diurnal", low=0.20, high=0.90, period_s=12 * 3600.0,
        noise_sigma=0.02))
    managed: bool = True
    seed: Optional[int] = None

    _FIELDS = ("name", "leaves", "lc", "be_mix", "server", "trace",
               "managed", "seed")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "cluster") -> "ShardSpec":
        """Build from a mapping, rejecting unknown fields."""
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        for required in ("name", "leaves"):
            if required not in data:
                raise ScenarioError(f"{ctx}: missing required field "
                                    f"{required!r}")
        if not isinstance(data["name"], str) or not data["name"]:
            raise ScenarioError(f"{ctx}.name: expected a non-empty string")
        leaves = data["leaves"]
        if isinstance(leaves, bool) or not isinstance(leaves, int):
            raise ScenarioError(f"{ctx}.leaves: expected an integer, got "
                                f"{leaves!r}")
        kwargs: Dict[str, Any] = {"name": data["name"], "leaves": leaves}
        if "lc" in data:
            kwargs["lc"] = data["lc"]
        if "be_mix" in data:
            mix = data["be_mix"]
            if (not isinstance(mix, (list, tuple))
                    or not all(isinstance(b, str) for b in mix)):
                raise ScenarioError(f"{ctx}.be_mix: expected a list of BE "
                                    f"task names, got {mix!r}")
            kwargs["be_mix"] = tuple(mix)
        if "server" in data:
            kwargs["server"] = ServerSpec.from_dict(data["server"],
                                                    f"{ctx}.server")
        if "trace" in data:
            kwargs["trace"] = TraceSpec.from_dict(data["trace"],
                                                  f"{ctx}.trace")
        if "managed" in data:
            if not isinstance(data["managed"], bool):
                raise ScenarioError(f"{ctx}.managed: expected a bool, got "
                                    f"{data['managed']!r}")
            kwargs["managed"] = data["managed"]
        if data.get("seed") is not None:
            seed = data["seed"]
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ScenarioError(f"{ctx}.seed: expected an integer, got "
                                    f"{seed!r}")
            kwargs["seed"] = seed
        spec = cls(**kwargs)
        spec.validate(ctx)
        return spec

    def validate(self, ctx: str = "cluster") -> None:
        """Check leaf count, workload names, hardware, and the trace."""
        if self.leaves < 2:
            raise ScenarioError(
                f"{ctx}.leaves: got {self.leaves} — a fleet cluster needs "
                f"at least two leaves (zero or negative counts are "
                f"invalid)")
        if self.lc not in LC_PROFILES:
            raise ScenarioError(
                f"{ctx}.lc: unknown LC workload {self.lc!r}; choose from "
                f"{', '.join(sorted(LC_PROFILES))}")
        if not self.be_mix:
            raise ScenarioError(f"{ctx}.be_mix: must name at least one BE "
                                f"task")
        for be in self.be_mix:
            if be not in BE_PROFILES:
                raise ScenarioError(
                    f"{ctx}.be_mix: unknown BE workload {be!r}; choose "
                    f"from {', '.join(sorted(BE_PROFILES))}")
        self.server.to_machine_spec()
        self.trace.validate(f"{ctx}.trace")


@dataclass(frozen=True)
class FleetSpec:
    """A sharded multi-cluster fleet (the scenario's fourth shape).

    Args:
        clusters: the fleet's clusters, one :class:`ShardSpec` each
            (unique names).
        shard_leaves: maximum leaves per execution shard; every
            cluster is partitioned into ``ceil(leaves / shard_leaves)``
            near-equal shards fanned across the process pool.  Must be
            positive — zero or negative shard sizes are rejected at
            load time.
        record_period_s: cluster record cadence in simulated seconds.
        engine: how the fleet's leaves are packed onto the one fleet
            engine — ``"sharded"`` (default) packs the shards into one
            unit per process-pool worker, ``"mega"`` runs whole
            clusters as one in-process unit.  Bit-identical telemetry
            either way.
    """

    clusters: Tuple[ShardSpec, ...]
    shard_leaves: int = 64
    record_period_s: float = 30.0
    engine: str = "sharded"

    _FIELDS = ("clusters", "shard_leaves", "record_period_s", "engine")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "fleet") -> "FleetSpec":
        """Build from a mapping, rejecting unknown fields."""
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        if "clusters" not in data:
            raise ScenarioError(f"{ctx}: missing required field 'clusters'")
        clusters = data["clusters"]
        if not isinstance(clusters, (list, tuple)):
            raise ScenarioError(f"{ctx}.clusters: expected a list of "
                                f"cluster mappings, got {clusters!r}")
        kwargs: Dict[str, Any] = {"clusters": tuple(
            ShardSpec.from_dict(c, f"{ctx}.clusters[{i}]")
            for i, c in enumerate(clusters))}
        if "shard_leaves" in data:
            shard_leaves = data["shard_leaves"]
            if isinstance(shard_leaves, bool) or not isinstance(
                    shard_leaves, int):
                raise ScenarioError(f"{ctx}.shard_leaves: expected an "
                                    f"integer, got {shard_leaves!r}")
            kwargs["shard_leaves"] = shard_leaves
        if "record_period_s" in data:
            kwargs["record_period_s"] = _number(data["record_period_s"],
                                                f"{ctx}.record_period_s")
        if "engine" in data:
            kwargs["engine"] = data["engine"]
        spec = cls(**kwargs)
        spec.validate(ctx)
        return spec

    def validate(self, ctx: str = "fleet") -> None:
        """Check the cluster list, shard size, and record cadence."""
        if self.engine not in ("sharded", "mega"):
            raise ScenarioError(
                f"{ctx}.engine: unknown fleet engine {self.engine!r}; "
                f"choose 'sharded' or 'mega'")
        if not self.clusters:
            raise ScenarioError(f"{ctx}.clusters: a fleet needs at least "
                                f"one cluster")
        names = [c.name for c in self.clusters]
        if len(set(names)) != len(names):
            raise ScenarioError(f"{ctx}.clusters: cluster names must be "
                                f"unique, got {names}")
        if self.shard_leaves < 1:
            raise ScenarioError(
                f"{ctx}.shard_leaves: got {self.shard_leaves} — shard size "
                f"must be a positive leaf count (zero or negative values "
                f"are invalid)")
        if self.record_period_s <= 0:
            raise ScenarioError(f"{ctx}.record_period_s: must be positive")
        for i, cluster in enumerate(self.clusters):
            cluster.validate(f"{ctx}.clusters[{i}]")

    def total_leaves(self) -> int:
        """The fleet's whole leaf population."""
        return sum(c.leaves for c in self.clusters)

    def cluster_seed(self, index: int, base_seed: int) -> int:
        """Effective base seed of cluster ``index``."""
        cluster = self.clusters[index]
        return cluster.seed if cluster.seed is not None \
            else base_seed + index

    def validate_seeds(self, base_seed: int, ctx: str = "fleet") -> None:
        """Reject cross-cluster tail-noise seed collisions at load time.

        Delegates to :func:`repro.fleet.shard.overlapping_seed_ranges`
        — the single definition of the collision — with each cluster's
        *effective* seed.  Needs the scenario's base seed (default
        cluster seeds derive from it), hence a separate hook called
        from :meth:`ScenarioSpec.validate`.
        """
        from ..fleet.shard import overlapping_seed_ranges
        collision = overlapping_seed_ranges(
            (self.cluster_seed(i, base_seed), cluster.leaves, cluster.name)
            for i, cluster in enumerate(self.clusters))
        if collision is not None:
            raise ScenarioError(
                f"{ctx}.clusters: {collision[0]!r} and {collision[1]!r} "
                f"have overlapping tail-noise seed ranges (leaf seeds are "
                f"seed * 1000 + leaf_index; give clusters of 1000+ leaves "
                f"more widely spaced seeds)")


@dataclass(frozen=True)
class JobSpec:
    """One typed best-effort job (or a batch of identical ones).

    Lowered onto :class:`~repro.sched.jobs.BeJob`: demand is measured
    in core-seconds of normalized BE throughput (the EMU currency),
    ``max_cores`` bounds fleet-wide parallelism, higher ``priority``
    runs first, and ``count`` expands the spec into that many identical
    jobs named ``name-000``, ``name-001``, ... — the declarative way to
    write a backlog.

    Args:
        name: unique job (or batch) name.
        demand_core_s: total work per job, in normalized core-seconds
            (must be positive).
        max_cores: per-job parallelism limit (>= 1).
        priority: higher is more urgent; ties break by arrival, then
            name.
        arrival_s: simulated time the job(s) join the queue.
        count: how many identical jobs this spec expands into (>= 1).
    """

    name: str
    demand_core_s: float
    max_cores: int = 8
    priority: int = 0
    arrival_s: float = 0.0
    count: int = 1

    _FIELDS = ("name", "demand_core_s", "max_cores", "priority",
               "arrival_s", "count")
    _INT_FIELDS = ("max_cores", "priority", "count")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "job") -> "JobSpec":
        """Build from a mapping, rejecting unknown fields."""
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        for required in ("name", "demand_core_s"):
            if required not in data:
                raise ScenarioError(f"{ctx}: missing required field "
                                    f"{required!r}")
        if not isinstance(data["name"], str) or not data["name"]:
            raise ScenarioError(f"{ctx}.name: expected a non-empty string")
        kwargs: Dict[str, Any] = {
            "name": data["name"],
            "demand_core_s": _number(data["demand_core_s"],
                                     f"{ctx}.demand_core_s"),
        }
        for name in cls._INT_FIELDS:
            if name in data:
                value = data[name]
                if isinstance(value, bool) or not isinstance(value, int):
                    raise ScenarioError(f"{ctx}.{name}: expected an "
                                        f"integer, got {value!r}")
                kwargs[name] = value
        if "arrival_s" in data:
            kwargs["arrival_s"] = _number(data["arrival_s"],
                                          f"{ctx}.arrival_s")
        spec = cls(**kwargs)
        spec.validate(ctx)
        return spec

    def validate(self, ctx: str = "job") -> None:
        """Check demand, limits, arrival, and the batch count."""
        if not self.name:
            raise ScenarioError(f"{ctx}.name: expected a non-empty string")
        if not self.demand_core_s > 0:
            raise ScenarioError(f"{ctx}.demand_core_s: must be positive, "
                                f"got {self.demand_core_s!r}")
        if self.max_cores < 1:
            raise ScenarioError(f"{ctx}.max_cores: must be >= 1, got "
                                f"{self.max_cores!r}")
        if self.arrival_s < 0:
            raise ScenarioError(f"{ctx}.arrival_s: must be >= 0, got "
                                f"{self.arrival_s!r}")
        if self.count < 1:
            raise ScenarioError(f"{ctx}.count: must be >= 1, got "
                                f"{self.count!r}")

    def expand(self):
        """Materialize the runtime :class:`~repro.sched.jobs.BeJob` list.

        A ``count`` of 1 keeps the bare name; larger batches suffix
        ``-000``, ``-001``, ... so every job keeps a unique accounting
        key.
        """
        from ..sched.jobs import BeJob
        if self.count == 1:
            return [BeJob(name=self.name,
                          demand_core_s=self.demand_core_s,
                          max_cores=self.max_cores,
                          priority=self.priority,
                          arrival_s=self.arrival_s)]
        return [BeJob(name=f"{self.name}-{i:03d}",
                      demand_core_s=self.demand_core_s,
                      max_cores=self.max_cores,
                      priority=self.priority,
                      arrival_s=self.arrival_s)
                for i in range(self.count)]


@dataclass(frozen=True)
class ScheduleSpec:
    """A scheduled fleet (the scenario's fifth shape).

    Wraps a :class:`FleetSpec` — the machines the scheduler places
    onto, simulated exactly as a plain ``fleet:`` scenario would be —
    plus the best-effort job queue and the scheduling knobs.  With an
    empty ``jobs`` list the run is *bit-identical* to the plain fleet
    run (the scheduler meters jobs over Heracles' slack; it never
    changes leaf physics).

    Args:
        fleet: the fleet to schedule over.
        jobs: the typed BE job queue (expanded via ``count``; names
            must stay unique after expansion).
        policy: placement policy — one of
            :data:`repro.sched.policies.POLICIES`.
        epoch_s: decision-epoch length in simulated seconds.
        queue_limit: admission control — arrivals past this many
            waiting-or-running jobs are rejected (0 = unlimited).
    """

    fleet: FleetSpec
    jobs: Tuple[JobSpec, ...] = ()
    policy: str = "slack-greedy"
    epoch_s: float = 60.0
    queue_limit: int = 0

    _FIELDS = ("fleet", "jobs", "policy", "epoch_s", "queue_limit")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "schedule") -> "ScheduleSpec":
        """Build from a mapping, rejecting unknown fields."""
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        if "fleet" not in data:
            raise ScenarioError(f"{ctx}: missing required field 'fleet'")
        kwargs: Dict[str, Any] = {
            "fleet": FleetSpec.from_dict(data["fleet"], f"{ctx}.fleet")}
        if "jobs" in data:
            jobs = data["jobs"]
            if not isinstance(jobs, (list, tuple)):
                raise ScenarioError(f"{ctx}.jobs: expected a list of job "
                                    f"mappings, got {jobs!r}")
            kwargs["jobs"] = tuple(
                JobSpec.from_dict(j, f"{ctx}.jobs[{i}]")
                for i, j in enumerate(jobs))
        if "policy" in data:
            kwargs["policy"] = data["policy"]
        if "epoch_s" in data:
            kwargs["epoch_s"] = _number(data["epoch_s"], f"{ctx}.epoch_s")
        if "queue_limit" in data:
            limit = data["queue_limit"]
            if isinstance(limit, bool) or not isinstance(limit, int):
                raise ScenarioError(f"{ctx}.queue_limit: expected an "
                                    f"integer, got {limit!r}")
            kwargs["queue_limit"] = limit
        spec = cls(**kwargs)
        spec.validate(ctx)
        return spec

    def validate(self, ctx: str = "schedule") -> None:
        """Check the fleet, the job queue, and the scheduling knobs."""
        from ..sched.policies import POLICIES
        self.fleet.validate(f"{ctx}.fleet")
        if self.policy not in POLICIES:
            raise ScenarioError(
                f"{ctx}.policy: unknown scheduling policy "
                f"{self.policy!r}; choose from {', '.join(POLICIES)}")
        if self.epoch_s <= 0:
            raise ScenarioError(f"{ctx}.epoch_s: must be positive")
        if self.queue_limit < 0:
            raise ScenarioError(f"{ctx}.queue_limit: must be >= 0 "
                                f"(0 = unlimited)")
        names = set()
        for i, job in enumerate(self.jobs):
            job.validate(f"{ctx}.jobs[{i}]")
            for expanded in job.expand():
                if expanded.name in names:
                    raise ScenarioError(
                        f"{ctx}.jobs[{i}]: job name {expanded.name!r} "
                        f"collides after expansion; names are the "
                        f"accounting key and must stay unique")
                names.add(expanded.name)

    def expand_jobs(self):
        """The full runtime job list (every spec's ``count`` expanded)."""
        jobs = []
        for job in self.jobs:
            jobs.extend(job.expand())
        return jobs


@dataclass(frozen=True)
class CheckpointSpec:
    """Checkpoint/resume and telemetry-spill controls for a run.

    One stanza drives three independent long-horizon knobs (give at
    least one — an empty stanza is rejected rather than silently
    ignored):

    Args:
        save: checkpoint destination — snapshot the full engine state
            mid-run so a later scenario run can warm-start from it.
            A directory for fleet/schedule scenarios (one archive per
            fleet unit and group plus a manifest), a single ``.npz``
            archive path for member scenarios (all members ride in one
            engine).
            Requires ``at_s``.
        at_s: simulated time of the snapshot; must land on a tick
            strictly inside the run.
        resume: a checkpoint written by a previous run of this same
            scenario shape; the run restores every engine and ticks
            only the remaining steps.  Bit-identical to running from
            ``t = 0``.
        spill_dir: bound telemetry memory by streaming full history
            chunks to ``.npy`` files under this directory instead of
            growing RAM with the horizon.  Member scenarios only:
            fleet and schedule scenarios keep no per-tick column store
            and reject it.
    """

    save: Optional[str] = None
    at_s: Optional[float] = None
    resume: Optional[str] = None
    spill_dir: Optional[str] = None

    _FIELDS = ("save", "at_s", "resume", "spill_dir")
    _PATH_FIELDS = ("save", "resume", "spill_dir")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "checkpoint") -> "CheckpointSpec":
        """Build from a mapping, rejecting unknown fields."""
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        kwargs: Dict[str, Any] = {}
        for name in cls._PATH_FIELDS:
            value = data.get(name)
            if value is None:
                continue
            if not isinstance(value, str) or not value:
                raise ScenarioError(f"{ctx}.{name}: expected a non-empty "
                                    f"path string, got {value!r}")
            kwargs[name] = value
        if data.get("at_s") is not None:
            kwargs["at_s"] = _number(data["at_s"], f"{ctx}.at_s")
        spec = cls(**kwargs)
        spec.validate(ctx)
        return spec

    def validate(self, ctx: str = "checkpoint") -> None:
        """Check the save/at_s pairing and value ranges."""
        if all(getattr(self, name) is None for name in self._FIELDS):
            raise ScenarioError(
                f"{ctx}: an empty checkpoint stanza does nothing; give "
                f"'save' + 'at_s', 'resume', and/or 'spill_dir'")
        if (self.save is None) != (self.at_s is None):
            raise ScenarioError(
                f"{ctx}: 'save' and 'at_s' go together — give both to "
                f"take a snapshot, neither to skip it")
        if self.at_s is not None:
            if not math.isfinite(self.at_s) or self.at_s <= 0:
                raise ScenarioError(f"{ctx}.at_s: must be a positive time "
                                    f"inside the run, got {self.at_s!r}")


@dataclass(frozen=True)
class InjectionSpec:
    """A timed event applied mid-run to members or fleet leaves.

    Injections model events the controller must *react* to — a BE
    antagonist arriving at ``t=600``, an operator forcing cores away,
    a leaf crashing — as opposed to load spikes, which live on the
    trace.  The first five actions map directly onto
    :class:`~repro.sim.actuators.Actuators` calls: ``enable_be``,
    ``disable_be``, ``set_be_cores``, ``set_llc_split``,
    ``set_be_net_ceil`` (the last three take ``value``).  The five
    *chaos* actions are resolved inside the simulation engines as
    masked column updates (bit-identical across scalar/batch/mega):

    * ``leaf_crash`` — the leaf drops out of physics and telemetry
      (zero load, zero tail, BE force-disabled); no value.
    * ``leaf_restart`` — a crashed leaf rejoins cold (BE disabled,
      actuators reset); no value.
    * ``straggler`` — per-leaf frequency/DRAM derate; ``value`` is the
      derate factor in (0, 1] (1.0 restores full speed).
    * ``power_cap`` — TDP override; ``value`` is the fraction of the
      stock TDP in (0, 1] (1.0 restores the stock limit).
    * ``partition`` — root↔leaf link blackout; ``value`` is the
      blackout duration in seconds (load held at the root, tail
      pinned at 10x SLO while partitioned).

    ``cluster`` / ``leaf`` target the event: in a fleet scenario
    ``cluster`` names one cluster (default: every cluster) and
    ``leaf`` one leaf index within it (default: every leaf); in a
    members scenario ``leaf`` is the member index (default: every
    member) and ``cluster`` is not accepted.
    """

    at_s: float
    action: str
    value: Optional[float] = None
    cluster: Optional[str] = None
    leaf: Optional[int] = None

    _FIELDS = ("at_s", "action", "value", "cluster", "leaf")
    _VALUE_ACTIONS = ("set_be_cores", "set_llc_split", "set_be_net_ceil",
                      "straggler", "power_cap", "partition")
    #: value must lie in (0, 1] for these actions (derate fractions).
    _FRACTION_ACTIONS = ("straggler", "power_cap")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "injection") -> "InjectionSpec":
        """Build from a mapping, rejecting unknown fields."""
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        for name in ("at_s", "action"):
            if name not in data:
                raise ScenarioError(f"{ctx}: missing required field "
                                    f"{name!r}")
        value = data.get("value")
        leaf = data.get("leaf")
        if leaf is not None and (isinstance(leaf, bool)
                                 or not isinstance(leaf, int)):
            raise ScenarioError(f"{ctx}.leaf: expected an integer leaf "
                                f"index, got {leaf!r}")
        cluster = data.get("cluster")
        if cluster is not None and not isinstance(cluster, str):
            raise ScenarioError(f"{ctx}.cluster: expected a cluster name "
                                f"string, got {cluster!r}")
        spec = cls(at_s=_number(data["at_s"], f"{ctx}.at_s"),
                   action=data["action"],
                   value=None if value is None
                   else _number(value, f"{ctx}.value"),
                   cluster=cluster, leaf=leaf)
        spec.validate(ctx)
        return spec

    def validate(self, ctx: str = "injection") -> None:
        """Check the action name, value requirements, and targeting."""
        if not math.isfinite(self.at_s):
            raise ScenarioError(f"{ctx}.at_s: must be finite, got "
                                f"{self.at_s!r}")
        if self.at_s < 0:
            raise ScenarioError(f"{ctx}.at_s: must be >= 0")
        if self.action not in INJECTION_ACTIONS:
            raise ScenarioError(
                f"{ctx}.action: unknown action {self.action!r}; choose "
                f"from {', '.join(INJECTION_ACTIONS)}")
        if self.action in self._VALUE_ACTIONS and self.value is None:
            raise ScenarioError(f"{ctx}: action {self.action!r} requires "
                                f"a 'value'")
        if self.action not in self._VALUE_ACTIONS and self.value is not None:
            raise ScenarioError(f"{ctx}: action {self.action!r} takes no "
                                f"'value'")
        if self.value is not None and not math.isfinite(self.value):
            raise ScenarioError(f"{ctx}.value: must be finite, got "
                                f"{self.value!r}")
        if self.action in self._FRACTION_ACTIONS and not (
                0.0 < self.value <= 1.0):
            raise ScenarioError(f"{ctx}.value: {self.action!r} takes a "
                                f"fraction in (0, 1], got {self.value!r}")
        if self.action == "partition" and self.value <= 0:
            raise ScenarioError(f"{ctx}.value: 'partition' takes a "
                                f"positive blackout duration in seconds")
        if self.leaf is not None and self.leaf < 0:
            raise ScenarioError(f"{ctx}.leaf: must be >= 0")
        if self.cluster is not None and not self.cluster:
            raise ScenarioError(f"{ctx}.cluster: must be a non-empty "
                                f"cluster name")

    @property
    def is_chaos(self) -> bool:
        """True for engine-level chaos actions (vs actuator pokes)."""
        return self.action in CHAOS_ACTIONS


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, self-contained experiment description.

    Exactly one of ``members`` (explicit servers), ``sweep`` (a grid of
    constant-load runs), ``cluster`` (the §5.3 minicluster), ``fleet``
    (a sharded multi-cluster fleet) or ``schedule`` (a fleet with a
    best-effort job queue scheduled over it) selects the scenario
    shape; the compiler lowers each shape onto a different part of the
    engine stack (see :mod:`repro.scenarios.compiler`).

    Args:
        name: registry/display name.
        description: one-line human summary.
        server: hardware overrides (defaults to the paper's machine).
        controller: policy for every member unless overridden per
            member — one of ``heracles``, ``none``,
            ``static-conservative``, ``static-optimistic``.
        duration_s / dt_s / warmup_s: run length, tick size, and the
            warm-up prefix excluded from reported metrics.
        seed: base RNG seed (members without an explicit seed get
            ``seed + index``).
        engine: ``auto`` | ``scalar`` | ``batch`` for member scenarios.
        members / sweep / cluster / fleet / schedule: the scenario
            shape (exactly one).
        injections: timed actuator pokes and chaos events, applied to
            members (member scenarios) or fleet leaves (fleet/schedule
            scenarios), optionally targeted via ``cluster``/``leaf``.
        checkpoint: checkpoint/resume and telemetry-spill controls
            (member, fleet, and schedule scenarios; sweeps and
            miniclusters reject the stanza rather than ignore it).
    """

    name: str
    description: str = ""
    server: ServerSpec = field(default_factory=ServerSpec)
    controller: str = "heracles"
    duration_s: float = 900.0
    dt_s: float = 1.0
    warmup_s: float = 240.0
    seed: int = 0
    engine: str = "auto"
    members: Tuple[WorkloadSpec, ...] = ()
    sweep: Optional[SweepSpec] = None
    cluster: Optional[ClusterSpec] = None
    fleet: Optional[FleetSpec] = None
    schedule: Optional[ScheduleSpec] = None
    injections: Tuple[InjectionSpec, ...] = ()
    checkpoint: Optional[CheckpointSpec] = None

    _FIELDS = ("name", "description", "server", "controller", "duration_s",
               "dt_s", "warmup_s", "seed", "engine", "members", "sweep",
               "cluster", "fleet", "schedule", "injections", "checkpoint")

    @classmethod
    def from_dict(cls, data: Any, ctx: str = "scenario") -> "ScenarioSpec":
        """Build a full scenario from a (possibly nested) mapping.

        Rejects unknown fields at every level and validates the result;
        this is the single entry point the loader and the registry use.
        """
        data = _require_mapping(data, ctx)
        _reject_unknown(data, cls._FIELDS, ctx)
        if "name" not in data or not isinstance(data["name"], str):
            raise ScenarioError(f"{ctx}: a scenario needs a string 'name'")
        kwargs: Dict[str, Any] = {"name": data["name"]}
        if "description" in data:
            if not isinstance(data["description"], str):
                raise ScenarioError(f"{ctx}.description: expected a string")
            kwargs["description"] = data["description"]
        if "server" in data:
            kwargs["server"] = ServerSpec.from_dict(data["server"],
                                                    f"{ctx}.server")
        if "controller" in data:
            kwargs["controller"] = data["controller"]
        for name in ("duration_s", "dt_s", "warmup_s"):
            if name in data:
                kwargs[name] = _number(data[name], f"{ctx}.{name}")
        if "seed" in data:
            seed = data["seed"]
            if isinstance(seed, bool) or not isinstance(seed, int):
                raise ScenarioError(f"{ctx}.seed: expected an integer, "
                                    f"got {seed!r}")
            kwargs["seed"] = seed
        if "engine" in data:
            kwargs["engine"] = data["engine"]
        if "members" in data:
            members = data["members"]
            if not isinstance(members, (list, tuple)):
                raise ScenarioError(f"{ctx}.members: expected a list")
            kwargs["members"] = tuple(
                WorkloadSpec.from_dict(m, f"{ctx}.members[{i}]")
                for i, m in enumerate(members))
        if "sweep" in data and data["sweep"] is not None:
            kwargs["sweep"] = SweepSpec.from_dict(data["sweep"],
                                                  f"{ctx}.sweep")
        if "cluster" in data and data["cluster"] is not None:
            kwargs["cluster"] = ClusterSpec.from_dict(data["cluster"],
                                                      f"{ctx}.cluster")
        if "fleet" in data and data["fleet"] is not None:
            kwargs["fleet"] = FleetSpec.from_dict(data["fleet"],
                                                  f"{ctx}.fleet")
        if "schedule" in data and data["schedule"] is not None:
            kwargs["schedule"] = ScheduleSpec.from_dict(data["schedule"],
                                                        f"{ctx}.schedule")
        if "injections" in data:
            injections = data["injections"]
            if not isinstance(injections, (list, tuple)):
                raise ScenarioError(f"{ctx}.injections: expected a list")
            kwargs["injections"] = tuple(
                InjectionSpec.from_dict(inj, f"{ctx}.injections[{i}]")
                for i, inj in enumerate(injections))
        if "checkpoint" in data and data["checkpoint"] is not None:
            kwargs["checkpoint"] = CheckpointSpec.from_dict(
                data["checkpoint"], f"{ctx}.checkpoint")
        spec = cls(**kwargs)
        spec.validate(ctx)
        return spec

    def validate(self, ctx: str = "scenario") -> None:
        """Validate the whole spec tree (shape, ranges, nested specs)."""
        shapes = [s for s in ("members", "sweep", "cluster", "fleet",
                              "schedule")
                  if (getattr(self, s) or None) is not None]
        if len(shapes) != 1:
            raise ScenarioError(
                f"{ctx}: exactly one of 'members', 'sweep', 'cluster', "
                f"'fleet' or 'schedule' must be given "
                f"(got {shapes or 'none'})")
        if self.controller not in CONTROLLERS:
            raise ScenarioError(
                f"{ctx}.controller: unknown controller "
                f"{self.controller!r}; choose from {', '.join(CONTROLLERS)}")
        if self.engine not in ENGINES:
            raise ScenarioError(f"{ctx}.engine: unknown engine "
                                f"{self.engine!r}; choose from "
                                f"{', '.join(ENGINES)}")
        if self.duration_s <= 0:
            raise ScenarioError(f"{ctx}.duration_s: must be positive")
        if self.dt_s <= 0:
            raise ScenarioError(f"{ctx}.dt_s: must be positive")
        if not 0 <= self.warmup_s < self.duration_s:
            raise ScenarioError(f"{ctx}.warmup_s: must be in "
                                f"[0, duration_s)")
        if self.engine == "scalar" and len(self.members) > 1:
            raise ScenarioError(f"{ctx}: the scalar engine runs exactly one "
                                f"member; use engine 'batch' (or 'auto') "
                                f"for {len(self.members)} members")
        # Fields the other shapes would silently ignore are rejected
        # instead — the subsystem's no-silent-defaults contract.
        if self.sweep is not None and self.dt_s != 1.0:
            raise ScenarioError(f"{ctx}.dt_s: sweep cells always run at "
                                f"the engine's 1 s tick; drop dt_s")
        if (self.sweep is not None or self.cluster is not None
                or self.fleet is not None
                or self.schedule is not None) and self.engine != "auto":
            raise ScenarioError(
                f"{ctx}.engine: only member scenarios take a top-level "
                f"engine (cluster scenarios set cluster.engine; fleets "
                f"set fleet.engine)")
        fleet_like = self.fleet if self.fleet is not None else (
            self.schedule.fleet if self.schedule is not None else None)
        if self.checkpoint is not None:
            if not self.members and fleet_like is None:
                raise ScenarioError(
                    f"{ctx}.checkpoint: checkpointing applies to "
                    f"'members', 'fleet' and 'schedule' scenarios; sweep "
                    f"cells and minicluster arms are short independent "
                    f"runs with nothing to resume")
            self.checkpoint.validate(f"{ctx}.checkpoint")
            if fleet_like is not None and self.checkpoint.spill_dir:
                raise ScenarioError(
                    f"{ctx}.checkpoint.spill_dir: fleet and schedule runs "
                    f"collect leaf telemetry as dense arrays, not column "
                    f"stores, so there is nothing to spill; spill_dir "
                    f"applies to 'members' scenarios only")
            if (self.checkpoint.at_s is not None
                    and self.checkpoint.at_s > self.duration_s):
                raise ScenarioError(
                    f"{ctx}.checkpoint.at_s: snapshot at "
                    f"{self.checkpoint.at_s} s lands after the scenario "
                    f"ends (duration_s={self.duration_s}); it must land "
                    f"inside the run")
        if self.injections and not self.members and fleet_like is None:
            raise ScenarioError(f"{ctx}.injections: injections require a "
                                f"'members', 'fleet' or 'schedule' "
                                f"scenario")
        if fleet_like is not None and not self.server.is_default():
            raise ScenarioError(
                f"{ctx}.server: fleet scenarios declare hardware per "
                f"cluster (fleet.clusters[*].server), not at the top "
                f"level")
        if fleet_like is not None and self.controller != "heracles":
            raise ScenarioError(
                f"{ctx}.controller: fleet scenarios run Heracles on "
                f"managed clusters and nothing on baseline ones; set "
                f"'managed: false' per cluster instead of a controller")
        self.server.to_machine_spec()
        for i, member in enumerate(self.members):
            member.validate(f"{ctx}.members[{i}]")
        if self.sweep is not None:
            self.sweep.validate(f"{ctx}.sweep")
        if self.cluster is not None:
            self.cluster.validate(f"{ctx}.cluster")
        if self.fleet is not None:
            self.fleet.validate(f"{ctx}.fleet")
            self.fleet.validate_seeds(self.seed, f"{ctx}.fleet")
        if self.schedule is not None:
            self.schedule.validate(f"{ctx}.schedule")
            self.schedule.fleet.validate_seeds(self.seed,
                                               f"{ctx}.schedule.fleet")
        cluster_leaves = ({c.name: c.leaves for c in fleet_like.clusters}
                          if fleet_like is not None else None)
        for i, injection in enumerate(self.injections):
            ictx = f"{ctx}.injections[{i}]"
            injection.validate(ictx)
            if injection.at_s >= self.duration_s:
                raise ScenarioError(
                    f"{ictx}.at_s: fires at {injection.at_s} s, at or "
                    f"after the scenario ends (duration_s="
                    f"{self.duration_s}); injections must fire inside "
                    f"the run")
            if self.members:
                if injection.cluster is not None:
                    raise ScenarioError(
                        f"{ictx}.cluster: member scenarios have no "
                        f"clusters; use 'leaf' to target one member")
                if (injection.leaf is not None
                        and injection.leaf >= len(self.members)):
                    raise ScenarioError(
                        f"{ictx}.leaf: member index {injection.leaf} out "
                        f"of range for {len(self.members)} member(s)")
            elif cluster_leaves is not None:
                if (injection.cluster is not None
                        and injection.cluster not in cluster_leaves):
                    raise ScenarioError(
                        f"{ictx}.cluster: unknown cluster "
                        f"{injection.cluster!r}; fleet clusters: "
                        f"{', '.join(sorted(cluster_leaves))}")
                if injection.leaf is not None:
                    if injection.cluster is None:
                        raise ScenarioError(
                            f"{ictx}.leaf: a fleet-wide injection cannot "
                            f"name a leaf index; add 'cluster' to pick "
                            f"the cluster the index refers to")
                    if injection.leaf >= cluster_leaves[injection.cluster]:
                        raise ScenarioError(
                            f"{ictx}.leaf: leaf index {injection.leaf} "
                            f"out of range for cluster "
                            f"{injection.cluster!r} "
                            f"({cluster_leaves[injection.cluster]} "
                            f"leaves)")

    def member_seed(self, index: int) -> int:
        """Effective tail-noise seed of member ``index``."""
        member = self.members[index]
        return member.seed if member.seed is not None else self.seed + index

    def member_controller(self, index: int) -> str:
        """Effective controller name of member ``index``."""
        member = self.members[index]
        return member.controller or self.controller

    def to_data(self) -> Dict[str, Any]:
        """The spec as a plain JSON-ready mapping.

        The inverse of :meth:`from_dict`:
        ``ScenarioSpec.from_dict(spec.to_data()) == spec`` for every
        valid spec, so a programmatically built scenario (say, one a
        fuzzer generated) can be written to a ``.json`` file that
        ``load_scenario`` replays exactly.
        """
        return _spec_to_data(self)


def _spec_to_data(obj: Any) -> Any:
    """Recursive worker behind :meth:`ScenarioSpec.to_data`.

    Walks each spec dataclass's ``_FIELDS``, dropping ``None`` and
    empty-sequence values (the loader's defaults recreate them) so the
    emitted mapping passes every ``_reject_unknown`` check on the way
    back in.  :class:`TraceSpec` additionally emits only the fields its
    ``kind`` accepts.
    """
    if isinstance(obj, TraceSpec):
        allowed = (("kind",) + _TRACE_KIND_FIELDS[obj.kind]
                   + ("phase_s", "spikes"))
        return {name: _spec_to_data(getattr(obj, name))
                for name in allowed
                if getattr(obj, name) is not None
                and (getattr(obj, name) or name not in ("phase_s",
                                                        "spikes"))}
    if dataclasses.is_dataclass(obj):
        data = {}
        for name in obj._FIELDS:
            value = getattr(obj, name)
            if value is None or (isinstance(value, tuple) and not value):
                continue
            data[name] = _spec_to_data(value)
        return data
    if isinstance(obj, (list, tuple)):
        return [_spec_to_data(item) for item in obj]
    return obj
