"""Typed scenario specifications.

A *scenario* is a declarative description of a colocation experiment —
which hardware, which workloads, which load traces, which controller,
what to sweep, and what to inject mid-run.  Specs are plain frozen
dataclasses built from dicts (hand-written, loaded from JSON/YAML
files, or constructed in code); :mod:`repro.scenarios.compiler` lowers
a validated spec onto the engine/batch/runner stack.

One decoder reads every spec: ``from_dict`` walks the dataclass's own
fields and type annotations (``float``, ``int``, ``bool``, ``str``,
``Tuple[X, ...]``, ``Optional[X]`` and nested specs), rejects unknown
and missing fields, and then validates the whole tree once, at the
level it was called on.  A typo'd spec fails at load time with a
message naming the offending field by its dotted path — never as a
silent default deep inside a multi-hour run.

The schema is documented field-by-field in ``docs/scenarios.md``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import math
import typing
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

from ..hardware.spec import (MachineSpec, NicSpec, SocketSpec, TurboSpec,
                             default_machine_spec)
from ..sim.chaos import CHAOS_EVENT_ACTIONS, CHAOS_VALUELESS_ACTIONS
from ..workloads.best_effort import BE_PROFILES
from ..workloads.latency_critical import LC_PROFILES
from ..workloads.traces import (ConstantLoad, DiurnalTrace, LoadSpike,
                                LoadTrace, PhasedTrace, ReplayTrace,
                                SpikeOverlay, StepLoad)

#: Controllers a scenario (or a member) may select.
CONTROLLERS = ("heracles", "none", "static-conservative",
               "static-optimistic")

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


def _choose(value: Any, allowed, ctx: str, what: str) -> None:
    """Raise :class:`ScenarioError` unless ``value`` is one of ``allowed``."""
    if value not in allowed:
        raise ScenarioError(f"{ctx}: unknown {what} {value!r}; choose from "
                            f"{', '.join(allowed)}")


@functools.lru_cache(maxsize=None)
def _field_types(cls: type) -> Dict[str, Any]:
    """The resolved type annotation of every field of a spec class."""
    return typing.get_type_hints(cls)


def _decode(tp: Any, value: Any, ctx: str) -> Any:
    """Decode plain data ``value`` into the annotated type ``tp``.

    Handles the annotation kinds the spec classes use: ``float``,
    ``int``, ``bool``, ``str``, ``Tuple[X, ...]``, ``Optional[X]`` and
    nested :class:`_Spec` dataclasses.  Decoding only checks types;
    value ranges are each spec's ``validate``.
    """
    origin = typing.get_origin(tp)
    if origin is Union:
        if value is None:
            return None
        (inner,) = [arg for arg in typing.get_args(tp)
                    if arg is not type(None)]
        return _decode(inner, value, ctx)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ScenarioError(f"{ctx}: expected a list, got {value!r}")
        item = typing.get_args(tp)[0]
        return tuple(_decode(item, v, f"{ctx}[{i}]")
                     for i, v in enumerate(value))
    if tp is float:
        return _number(value, ctx)
    if tp is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ScenarioError(f"{ctx}: expected an integer, got "
                                f"{value!r}")
        return value
    if tp is bool or tp is str:
        if not isinstance(value, tp):
            kind = "a bool" if tp is bool else "a string"
            raise ScenarioError(f"{ctx}: expected {kind}, got {value!r}")
        return value
    assert issubclass(tp, _Spec), f"unsupported spec annotation {tp!r}"
    data = _require_mapping(value, ctx)
    _reject_unknown(data, tp._allowed_fields(data, ctx), ctx)
    fields = dataclasses.fields(tp)
    for f in fields:
        if (f.name not in data and f.default is dataclasses.MISSING
                and f.default_factory is dataclasses.MISSING):
            raise ScenarioError(f"{ctx}: missing required field {f.name!r}")
    types = _field_types(tp)
    return tp(**{f.name: _decode(types[f.name], data[f.name],
                                 f"{ctx}.{f.name}")
                 for f in fields if f.name in data})


class _Spec:
    """Base of the spec dataclasses: the one ``from_dict``."""

    @classmethod
    def from_dict(cls, data: Any, ctx: Optional[str] = None):
        """Build the spec from a (possibly nested) mapping.

        Decodes every level by its field annotations — rejecting
        unknown fields, missing required fields and mistyped values —
        then validates the result once.  ``ctx`` (default: the
        ``validate`` default, e.g. ``"scenario"``) prefixes every error
        path.
        """
        if ctx is None:
            ctx = inspect.signature(cls.validate).parameters["ctx"].default
        spec = _decode(cls, data, ctx)
        spec.validate(ctx)
        return spec

    @classmethod
    def _allowed_fields(cls, data: Mapping[str, Any],
                        ctx: str) -> Tuple[str, ...]:
        """The keys a mapping for this spec may hold."""
        return tuple(f.name for f in dataclasses.fields(cls))


@dataclass(frozen=True)
class ServerSpec(_Spec):
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

    def validate(self, ctx: str = "server") -> None:
        """Check that the overrides compose into a valid machine."""
        self.to_machine_spec(ctx)

    def is_default(self) -> bool:
        """True when no override is set (the paper's stock server)."""
        return all(getattr(self, f.name) is None
                   for f in dataclasses.fields(self))

    def _overrides(self, target: type) -> Dict[str, Any]:
        """The set overrides that are fields of hardware class ``target``."""
        names = {f.name for f in dataclasses.fields(target)}
        return {f.name: getattr(self, f.name)
                for f in dataclasses.fields(self)
                if f.name in names and getattr(self, f.name) is not None}

    def to_machine_spec(self, ctx: str = "server") -> MachineSpec:
        """Compose the overrides onto the default machine and validate.

        Each override lands on the hardware class that has a field of
        the same name: :class:`TurboSpec`, :class:`SocketSpec`,
        :class:`NicSpec` or :class:`MachineSpec`.
        """
        base = default_machine_spec()
        socket = dataclasses.replace(
            base.socket, turbo=dataclasses.replace(
                base.socket.turbo, **self._overrides(TurboSpec)),
            **self._overrides(SocketSpec))
        spec = dataclasses.replace(
            base, socket=socket,
            nic=dataclasses.replace(base.nic, **self._overrides(NicSpec)),
            **self._overrides(MachineSpec))
        try:
            spec.validate()
        except ValueError as exc:
            raise ScenarioError(f"{ctx}: invalid hardware override "
                                f"({exc})") from exc
        return spec


@dataclass(frozen=True)
class SpikeSpec(_Spec):
    """One injected load spike (see :class:`~repro.workloads.traces.
    LoadSpike`): hold ``load`` from ``at_s`` for ``duration_s``."""

    at_s: float
    duration_s: float
    load: float

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


#: Allowed fields per trace kind (beyond ``kind``, ``spikes`` and
#: ``phase_s``).
_TRACE_KIND_FIELDS = {
    "constant": ("load",),
    "diurnal": ("low", "high", "period_s", "noise_sigma", "seed"),
    "step": ("times_s", "loads"),
    "replay": ("samples", "interval_s"),
}


@dataclass(frozen=True)
class TraceSpec(_Spec):
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
    def _allowed_fields(cls, data: Mapping[str, Any],
                        ctx: str) -> Tuple[str, ...]:
        """Only the fields of the mapping's trace ``kind`` are allowed."""
        kind = data.get("kind", "constant")
        _choose(kind, sorted(_TRACE_KIND_FIELDS), f"{ctx}.kind",
                "trace kind")
        return ("kind", "spikes", "phase_s") + _TRACE_KIND_FIELDS[kind]

    def validate(self, ctx: str = "trace") -> None:
        """Validate the spikes, then build the trace (traces
        self-validate)."""
        for i, spike in enumerate(self.spikes):
            spike.validate(f"{ctx}.spikes[{i}]")
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
class WorkloadSpec(_Spec):
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

    def validate(self, ctx: str = "member") -> None:
        """Check workload names and the controller override."""
        _choose(self.lc, sorted(LC_PROFILES), f"{ctx}.lc", "LC workload")
        if self.be is not None:
            _choose(self.be, sorted(BE_PROFILES), f"{ctx}.be", "BE workload")
        if self.controller is not None:
            _choose(self.controller, CONTROLLERS, f"{ctx}.controller",
                    "controller")
        self.trace.validate(f"{ctx}.trace")


@dataclass(frozen=True)
class SweepSpec(_Spec):
    """A (LC task x BE task x load) grid of constant-load servers.

    Each cell is one independent constant-load colocation under
    Heracles (the Figure 4-7 methodology), run as the members of one
    scenario (see :meth:`ScenarioSpec.lowered`).
    """

    lc_tasks: Tuple[str, ...] = ("websearch",)
    be_tasks: Tuple[str, ...] = ("brain",)
    loads: Tuple[float, ...] = (0.25, 0.50, 0.75)
    include_baseline: bool = True

    def validate(self, ctx: str = "sweep") -> None:
        """Check axis names and load ranges."""
        if not self.lc_tasks or not self.be_tasks or not self.loads:
            raise ScenarioError(f"{ctx}: lc_tasks, be_tasks and loads must "
                                f"all be non-empty")
        for name in self.lc_tasks:
            _choose(name, sorted(LC_PROFILES), f"{ctx}.lc_tasks",
                    "LC workload")
        for name in self.be_tasks:
            _choose(name, sorted(BE_PROFILES), f"{ctx}.be_tasks",
                    "BE workload")
        for load in self.loads:
            if not 0.0 < load <= 1.0:
                raise ScenarioError(f"{ctx}.loads: load {load!r} outside "
                                    f"(0, 1]")
        # The grid is keyed by LC, BE and load; a repeat has no cell.
        for axis in ("lc_tasks", "be_tasks", "loads"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):
                raise ScenarioError(f"{ctx}.{axis}: each entry runs once; "
                                    f"got {list(values)}")


@dataclass(frozen=True)
class ClusterSpec(_Spec):
    """A websearch minicluster run (the §5.3 / Figure 8 shape).

    Arms (``managed`` = Heracles on every leaf, ``baseline`` = no
    colocation) run the same leaves, seed and trace, as one fleet with
    one cluster per arm (see :meth:`ScenarioSpec.lowered`).
    """

    leaves: int = 8
    arms: Tuple[str, ...] = ("managed", "baseline")
    trace: TraceSpec = field(default_factory=lambda: TraceSpec(
        kind="diurnal", low=0.20, high=0.90, period_s=12 * 3600.0,
        noise_sigma=0.02))

    def validate(self, ctx: str = "cluster") -> None:
        """Check leaf count and arm names."""
        if self.leaves < 2:
            raise ScenarioError(f"{ctx}.leaves: a cluster needs at least "
                                f"two leaves")
        if not self.arms:
            raise ScenarioError(f"{ctx}.arms: need at least one arm")
        for arm in self.arms:
            _choose(arm, ("managed", "baseline"), f"{ctx}.arms", "arm")
        if len(set(self.arms)) != len(self.arms):
            raise ScenarioError(f"{ctx}.arms: each arm runs once; got "
                                f"{list(self.arms)}")
        self.trace.validate(f"{ctx}.trace")


@dataclass(frozen=True)
class ShardSpec(_Spec):
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

    def validate(self, ctx: str = "cluster") -> None:
        """Check name, leaf count, workload names, hardware, and the
        trace."""
        if not self.name:
            raise ScenarioError(f"{ctx}.name: expected a non-empty string")
        if self.leaves < 2:
            raise ScenarioError(
                f"{ctx}.leaves: got {self.leaves} — a fleet cluster needs "
                f"at least two leaves (zero or negative counts are "
                f"invalid)")
        _choose(self.lc, sorted(LC_PROFILES), f"{ctx}.lc", "LC workload")
        if not self.be_mix:
            raise ScenarioError(f"{ctx}.be_mix: must name at least one BE "
                                f"task")
        for be in self.be_mix:
            _choose(be, sorted(BE_PROFILES), f"{ctx}.be_mix", "BE workload")
        self.server.validate(f"{ctx}.server")
        self.trace.validate(f"{ctx}.trace")


@dataclass(frozen=True)
class FleetSpec(_Spec):
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

    def validate(self, ctx: str = "fleet") -> None:
        """Check the cluster list, shard size, and record cadence."""
        _choose(self.engine, ("sharded", "mega"), f"{ctx}.engine",
                "fleet engine")
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
class JobSpec(_Spec):
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
class ScheduleSpec(_Spec):
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

    def validate(self, ctx: str = "schedule") -> None:
        """Check the fleet, the job queue, and the scheduling knobs."""
        from ..sched.policies import POLICIES
        self.fleet.validate(f"{ctx}.fleet")
        _choose(self.policy, POLICIES, f"{ctx}.policy", "scheduling policy")
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
class CheckpointSpec(_Spec):
    """Checkpoint/resume and telemetry-spill controls for a run.

    One stanza drives three independent long-horizon knobs (give at
    least one — an empty stanza is rejected rather than silently
    ignored):

    Args:
        save: checkpoint destination — snapshot the full engine state
            mid-run so a later scenario run can warm-start from it.
            A directory for scenarios that run as a fleet (one archive
            per fleet unit plus a manifest), a single ``.npz`` archive
            path for scenarios that run as members (all members ride
            in one engine).
            Requires ``at_s``.
        at_s: simulated time of the snapshot; must land on a tick
            strictly inside the run.
        resume: a checkpoint written by a previous run of this same
            scenario shape; the run restores every engine and ticks
            only the remaining steps.  Bit-identical to running from
            ``t = 0``.
        spill_dir: bound telemetry memory by streaming full history
            chunks to ``.npy`` files under this directory instead of
            growing RAM with the horizon.  Member and sweep scenarios
            only: a fleet keeps no per-tick column store, so fleet,
            schedule and cluster scenarios reject it.
    """

    save: Optional[str] = None
    at_s: Optional[float] = None
    resume: Optional[str] = None
    spill_dir: Optional[str] = None

    def validate(self, ctx: str = "checkpoint") -> None:
        """Check the save/at_s pairing, the paths, and value ranges."""
        values = {f.name: getattr(self, f.name)
                  for f in dataclasses.fields(self)}
        if all(value is None for value in values.values()):
            raise ScenarioError(
                f"{ctx}: an empty checkpoint stanza does nothing; give "
                f"'save' + 'at_s', 'resume', and/or 'spill_dir'")
        for name, value in values.items():
            if value == "":
                raise ScenarioError(f"{ctx}.{name}: expected a non-empty "
                                    f"path string, got ''")
        if (self.save is None) != (self.at_s is None):
            raise ScenarioError(
                f"{ctx}: 'save' and 'at_s' go together — give both to "
                f"take a snapshot, neither to skip it")
        if self.at_s is not None:
            if not math.isfinite(self.at_s) or self.at_s <= 0:
                raise ScenarioError(f"{ctx}.at_s: must be a positive time "
                                    f"inside the run, got {self.at_s!r}")


@dataclass(frozen=True)
class InjectionSpec(_Spec):
    """A timed event applied mid-run to members or fleet leaves.

    Injections model events the controller must *react* to — a BE
    antagonist arriving at ``t=600``, an operator forcing cores away,
    a leaf crashing — as opposed to load spikes, which live on the
    trace.  Every injection lowers to one
    :class:`~repro.sim.chaos.ChaosEvent` and fires at the start of the
    first tick at or after ``at_s``, before that tick's physics and
    controller step, in every scenario shape and on every engine.
    ``action`` is one of :data:`~repro.sim.chaos.CHAOS_EVENT_ACTIONS`.
    The six actuator actions call the
    :class:`~repro.sim.actuators.Actuators` method of the same name:
    ``enable_be``, ``disable_be``, ``set_be_cores``, ``set_llc_split``,
    ``lower_be_frequency`` (``value`` DVFS steps down from the current
    cap, a whole number >= 1) and ``set_be_net_ceil`` (all but the
    first two take ``value``).  The five fault actions are resolved
    inside the simulation engines as masked column updates
    (bit-identical across scalar/batch/mega):

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

    ``cluster`` / ``leaf`` target the event: in a scenario that runs
    as a fleet ``cluster`` names one cluster (a cluster scenario's
    arm; default: every cluster) and ``leaf`` one leaf index within it
    (default: every leaf); in one that runs as members ``leaf`` is the
    member index (a sweep cell's index in grid order; default: every
    member) and ``cluster`` is not accepted.
    """

    at_s: float
    action: str
    value: Optional[float] = None
    cluster: Optional[str] = None
    leaf: Optional[int] = None

    #: value must lie in (0, 1] for these actions (derate fractions).
    _FRACTION_ACTIONS = ("straggler", "power_cap")

    def validate(self, ctx: str = "injection") -> None:
        """Check the action name, value requirements, and targeting."""
        if not math.isfinite(self.at_s):
            raise ScenarioError(f"{ctx}.at_s: must be finite, got "
                                f"{self.at_s!r}")
        if self.at_s < 0:
            raise ScenarioError(f"{ctx}.at_s: must be >= 0")
        _choose(self.action, CHAOS_EVENT_ACTIONS, f"{ctx}.action",
                "action")
        needs_value = self.action not in CHAOS_VALUELESS_ACTIONS
        if needs_value and self.value is None:
            raise ScenarioError(f"{ctx}: action {self.action!r} requires "
                                f"a 'value'")
        if not needs_value and self.value is not None:
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
        if self.action == "lower_be_frequency" and not (
                self.value >= 1 and self.value == int(self.value)):
            raise ScenarioError(f"{ctx}.value: 'lower_be_frequency' takes "
                                f"a whole number of DVFS steps >= 1, got "
                                f"{self.value!r}")
        if self.leaf is not None and self.leaf < 0:
            raise ScenarioError(f"{ctx}.leaf: must be >= 0")
        if self.cluster is not None and not self.cluster:
            raise ScenarioError(f"{ctx}.cluster: must be a non-empty "
                                f"cluster name")


@dataclass(frozen=True)
class ScenarioSpec(_Spec):
    """A complete, self-contained experiment description.

    Exactly one of ``members`` (explicit servers), ``sweep`` (a grid of
    constant-load runs), ``cluster`` (the §5.3 minicluster), ``fleet``
    (a sharded multi-cluster fleet) or ``schedule`` (a fleet with a
    best-effort job queue scheduled over it) selects the scenario
    shape.  Every shape runs as members or as one fleet
    (:meth:`lowered`), which :mod:`repro.scenarios.compiler` puts on
    the engine stack.

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
        members / sweep / cluster / fleet / schedule: the scenario
            shape (exactly one).  The member count picks the engine:
            one member runs on the scalar reference engine, several on
            the batch engine.
        injections: timed actuator and fault events, fired at the start
            of a tick on the lowered scenario's members or fleet
            leaves, optionally targeted via ``cluster``/``leaf``.
        checkpoint: checkpoint/resume and telemetry-spill controls,
            for every shape.
    """

    name: str
    description: str = ""
    server: ServerSpec = field(default_factory=ServerSpec)
    controller: str = "heracles"
    duration_s: float = 900.0
    dt_s: float = 1.0
    warmup_s: float = 240.0
    seed: int = 0
    members: Tuple[WorkloadSpec, ...] = ()
    sweep: Optional[SweepSpec] = None
    cluster: Optional[ClusterSpec] = None
    fleet: Optional[FleetSpec] = None
    schedule: Optional[ScheduleSpec] = None
    injections: Tuple[InjectionSpec, ...] = ()
    checkpoint: Optional[CheckpointSpec] = None

    def validate(self, ctx: str = "scenario") -> None:
        """Validate the whole spec tree (shape, ranges, nested specs).

        Each shape's own stanza is checked once, as written;
        ``checkpoint`` and ``injections`` are then checked against the
        members or fleet the scenario runs as (:meth:`lowered`).
        """
        shapes = [s for s in ("members", "sweep", "cluster", "fleet",
                              "schedule")
                  if (getattr(self, s) or None) is not None]
        if len(shapes) != 1:
            raise ScenarioError(
                f"{ctx}: exactly one of 'members', 'sweep', 'cluster', "
                f"'fleet' or 'schedule' must be given "
                f"(got {shapes or 'none'})")
        _choose(self.controller, CONTROLLERS, f"{ctx}.controller",
                "controller")
        if self.duration_s <= 0:
            raise ScenarioError(f"{ctx}.duration_s: must be positive")
        if self.dt_s <= 0:
            raise ScenarioError(f"{ctx}.dt_s: must be positive")
        if not 0 <= self.warmup_s < self.duration_s:
            raise ScenarioError(f"{ctx}.warmup_s: must be in "
                                f"[0, duration_s)")
        # Fields the other shapes would silently ignore are rejected
        # instead — the subsystem's no-silent-defaults contract.  A
        # lowered cluster carries its server per arm, so only a fleet
        # or schedule written with a top-level server trips this.
        lowered = self.lowered()
        fleet = lowered.fleet if lowered.schedule is None \
            else lowered.schedule.fleet
        if fleet is not None and not lowered.server.is_default():
            raise ScenarioError(
                f"{ctx}.server: fleet scenarios declare hardware per "
                f"cluster (fleet.clusters[*].server), not at the top "
                f"level")
        if self.controller != "heracles":
            if self.sweep is not None:
                raise ScenarioError(
                    f"{ctx}.controller: sweep scenarios run Heracles in "
                    f"every cell; use a 'members' scenario for "
                    f"baseline-controller studies")
            if self.cluster is not None:
                raise ScenarioError(
                    f"{ctx}.controller: cluster scenarios run Heracles on "
                    f"the managed arm and nothing on the baseline arm; "
                    f"pick arms with cluster.arms instead of a controller")
            if fleet is not None:
                raise ScenarioError(
                    f"{ctx}.controller: fleet scenarios run Heracles on "
                    f"managed clusters and nothing on baseline ones; set "
                    f"'managed: false' per cluster instead of a "
                    f"controller")
        self.server.validate(f"{ctx}.server")
        for i, member in enumerate(self.members):
            member.validate(f"{ctx}.members[{i}]")
            controller = self.member_controller(i)
            if controller.startswith("static-") and member.be is None:
                raise ScenarioError(
                    f"{ctx}.members[{i}]: controller {controller!r} grants "
                    f"resources to a BE task, and the member has no 'be'")
        if self.sweep is not None:
            self.sweep.validate(f"{ctx}.sweep")
        if self.cluster is not None:
            self.cluster.validate(f"{ctx}.cluster")
        # A lowered cluster's arms share the scenario seed on purpose
        # (each equals the scalar cluster of that seed), so only a
        # written fleet has its seed ranges checked.
        if self.fleet is not None:
            self.fleet.validate(f"{ctx}.fleet")
            self.fleet.validate_seeds(self.seed, f"{ctx}.fleet")
        if self.schedule is not None:
            self.schedule.validate(f"{ctx}.schedule")
            self.schedule.fleet.validate_seeds(self.seed,
                                               f"{ctx}.schedule.fleet")
        if self.checkpoint is not None:
            self.checkpoint.validate(f"{ctx}.checkpoint")
            if fleet is not None and self.checkpoint.spill_dir:
                raise ScenarioError(
                    f"{ctx}.checkpoint.spill_dir: fleet runs collect leaf "
                    f"telemetry as dense arrays, not column stores, so "
                    f"there is nothing to spill; spill_dir applies to "
                    f"'members' and 'sweep' scenarios only")
            if (self.checkpoint.at_s is not None
                    and self.checkpoint.at_s > self.duration_s):
                raise ScenarioError(
                    f"{ctx}.checkpoint.at_s: snapshot at "
                    f"{self.checkpoint.at_s} s lands after the scenario "
                    f"ends (duration_s={self.duration_s}); it must land "
                    f"inside the run")
        leaves = None if fleet is None else {
            c.name: c.leaves for c in fleet.clusters}
        for i, injection in enumerate(self.injections):
            ictx = f"{ctx}.injections[{i}]"
            injection.validate(ictx)
            if injection.at_s >= self.duration_s:
                raise ScenarioError(
                    f"{ictx}.at_s: fires at {injection.at_s} s, at or "
                    f"after the scenario ends (duration_s="
                    f"{self.duration_s}); injections must fire inside "
                    f"the run")
            if leaves is None:
                if injection.cluster is not None:
                    raise ScenarioError(
                        f"{ictx}.cluster: member and sweep scenarios have "
                        f"no clusters; use 'leaf' to target one member "
                        f"(a sweep cell by its grid index)")
                if (injection.leaf is not None
                        and injection.leaf >= len(lowered.members)):
                    raise ScenarioError(
                        f"{ictx}.leaf: member index {injection.leaf} out "
                        f"of range for {len(lowered.members)} member(s)")
                continue
            if injection.cluster is not None \
                    and injection.cluster not in leaves:
                raise ScenarioError(
                    f"{ictx}.cluster: unknown cluster {injection.cluster!r}"
                    f"; clusters: {', '.join(sorted(leaves))}")
            if injection.leaf is not None:
                if injection.cluster is None:
                    raise ScenarioError(
                        f"{ictx}.leaf: a fleet-wide injection cannot name "
                        f"a leaf index; add 'cluster' to pick the cluster "
                        f"the index refers to")
                if injection.leaf >= leaves[injection.cluster]:
                    raise ScenarioError(
                        f"{ictx}.leaf: leaf index {injection.leaf} out of "
                        f"range for cluster {injection.cluster!r} "
                        f"({leaves[injection.cluster]} leaves)")

    def lowered(self) -> "ScenarioSpec":
        """This scenario as the members or the one fleet it runs as.

        A sweep becomes one member per (LC, BE, load) cell, in
        ``lc_tasks x be_tasks x loads`` order, each at a constant load
        and the scenario seed, as
        :func:`~repro.experiments.common.run_colocation` runs a cell.
        A cluster becomes a fleet of one cluster per arm, in
        ``cluster.arms`` order and named by the arm, each one shard;
        the arms share the scenario's seed, trace and server, so each
        is bit-identical to the scalar
        :class:`~repro.cluster.cluster.WebsearchCluster` of that seed.
        Members, fleet and schedule scenarios are already lowered.
        """
        if self.sweep is not None:
            sweep = self.sweep
            cells = tuple(
                WorkloadSpec(lc=lc, be=be,
                             trace=TraceSpec(kind="constant", load=load),
                             seed=self.seed)
                for lc in sweep.lc_tasks for be in sweep.be_tasks
                for load in sweep.loads)
            return dataclasses.replace(self, sweep=None, members=cells)
        if self.cluster is not None:
            cluster = self.cluster
            fleet = FleetSpec(
                clusters=tuple(
                    ShardSpec(name=arm, leaves=cluster.leaves,
                              server=self.server, trace=cluster.trace,
                              managed=(arm == "managed"), seed=self.seed)
                    for arm in cluster.arms),
                shard_leaves=cluster.leaves)
            return dataclasses.replace(self, cluster=None, fleet=fleet,
                                       server=ServerSpec())
        return self

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

    Walks each spec dataclass's fields, dropping ``None`` and
    empty-sequence values (the decoder's defaults recreate them) and
    emitting only the fields the spec accepts back
    (:class:`TraceSpec`: those of its ``kind``).
    """
    if dataclasses.is_dataclass(obj):
        allowed = obj._allowed_fields(vars(obj), "")
        data = {}
        for f in dataclasses.fields(obj):
            value = getattr(obj, f.name)
            if f.name not in allowed or value is None or (
                    isinstance(value, tuple) and not value):
                continue
            data[f.name] = _spec_to_data(value)
        return data
    if isinstance(obj, (list, tuple)):
        return [_spec_to_data(item) for item in obj]
    return obj
