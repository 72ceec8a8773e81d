"""Batched multi-server simulation backend.

:class:`BatchColocationSim` advances N servers — each hosting one LC
workload and (optionally) one BE task group — in a single vectorized
step per tick.  The contention physics that
:class:`~repro.sim.engine.ColocationSim` resolves object-by-object
(power/frequency equilibrium, CAT cache occupancy, DRAM channel
sharing, egress max-min fairness, M/M/k tail latency) is expressed here
as NumPy array math over all servers at once, following the
resource-model philosophy of summing costs analytically instead of
event-stepping them.

Equivalence contract
--------------------

The batch backend is a numerical replica of the scalar engine, not an
approximation: every formula follows the scalar code's operation
ordering (the same left-associated products, the same 40-iteration
power bisection, the same Erlang-B recurrence), and tail-latency noise
is drawn from one independently seeded
:class:`numpy.random.Generator` per server.  A batch member and its
scalar ``ColocationSim`` twin agree to a relative 1e-9 on every
:class:`~repro.sim.engine.TickRecord` field, not bit for bit: array
math and libm round a few expressions differently in the last bits
(``power_fraction_of_tdp`` by ~3e-16 relative; an ml_cluster member
beside stream-DRAM in its tail, SLO and DRAM columns by ~1e-15).  That
tolerance is what ``tests/test_batch_equivalence.py`` and the cluster
benchmark (``benchmarks/test_bench_batch.py``) enforce.  Between batch
runs the contract is bitwise: any packing of the same members into
batches, and any change to this module that claims to keep the
numbers, must reproduce every column exactly.

Array layout
------------

The physics is socket-major: a per-socket quantity is an ``(S, N)``
array and a per-class one (cores, masks, cache and DRAM demands, DVFS
targets, frequencies) one ``(2, S, N)`` array, row 0 LC and row 1 BE,
so each NumPy inner loop runs over the N members and each formula is
one call for both classes.

One member model
----------------

Members are array state and nothing else.  Actuator placement (BE
cores, CAT split, DVFS cap, DRAM throttle, HTB ceiling) is one column
per field, mutated by masked transcriptions of the
:class:`~repro.sim.actuators.Actuators` methods; the latency monitor is
one window of ``(t, tails, loads)`` rows shared by every member; BE
throughput is a column.  Heracles on a batch is :class:`_VecHeracles`:
Algorithms 1-4 as one masked array program over the managed members,
attached with :meth:`BatchColocationSim.attach_vec_heracles`.  Each
server's Heracles instance is independent (§5.3: no coordination
between leaves), so the masked program is an exact replica of N
:class:`~repro.core.controller.HeraclesController` instances.

Every other actuation — a scenario injection, a static baseline's
start-up grant — is a :class:`~repro.sim.chaos.ChaosEvent` on the
batch's schedule (:meth:`BatchColocationSim.set_chaos_events`), fired
at the start of the tick through the same masked transcriptions.
:attr:`BatchColocationSim.members` reads each member's workloads and
history back; it is not a control surface.

Typical use::

    from repro.sim.batch import BatchColocationSim

    batch = BatchColocationSim(lc=lc, trace=trace, bes=[be] * 16,
                               spec=spec, seeds=range(16))
    batch.attach_vec_heracles(dram_model=shared_model)
    batch.run(3600.0)
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Union

import numpy as np

from ..core import core_memory as alg2
from ..core.network import be_net_budget_gbps
from ..hardware.spec import MachineSpec
from ..metrics.columns import BatchColumnStore
from ..metrics.history import BatchMemberSeries
from ..obs.profile import make_profiler
from ..obs.trace import make_sink
from ..workloads.best_effort import (BestEffortWorkload,
                                     reference_throughput_units)
from ..workloads.latency_critical import LatencyCriticalWorkload
from ..workloads.traces import LoadTrace
from .actuators import INITIAL_BE_LLC_FRACTION, MIN_LC_CORES
from .chaos import PARTITION_TAIL_SLO_MULT, sort_events, trace_chaos_event
from .engine import SimHistory, TickRecord, TickSeriesMixin
from .monitors import LatencyMonitor


def _seq_mean(rows: Sequence[np.ndarray]) -> np.ndarray:
    """Left-to-right mean of sample rows, as ``sample_mean`` computes it.

    ``sum(values) / len(values)`` adds left to right starting from 0
    (an exact additive identity), so sequential vector adds over the
    same rows produce bitwise-identical means per member.
    """
    acc = rows[0]
    for row in rows[1:]:
        acc = acc + row
    return acc / len(rows)


class _VecLatencyMonitor(LatencyMonitor):
    """Every member's :class:`LatencyMonitor` as one deque of row records.

    Members share the tick clock, so every per-member window holds the
    same timestamps; one deque of ``(t, tails, loads)`` rows replicates
    N scalar monitors, and each poll answers for all members at once
    through the inherited window logic.
    """

    _mean = staticmethod(_seq_mean)

    def record(self, t_s: float, tails: np.ndarray,
               loads: np.ndarray) -> None:
        self._samples.append((t_s, tails, loads))
        horizon = max(self.window_s, self.slo_window_s) + 1.0
        while self._samples and self._samples[0][0] < t_s - horizon:
            self._samples.popleft()

    def poll(self, now_s: float):
        """(latency, load) vectors over the control window, or (None,)*2."""
        window = self._window(now_s, self.window_s)
        if not window:
            return None, None
        return (_seq_mean([s[1] for s in window]),
                _seq_mean([s[2] for s in window]))

    # Defined on the class itself: the benchmark's tracer wraps it here.
    recent_latency_ms = LatencyMonitor.recent_latency_ms


def _dvfs_ladder(turbo):
    """The reachable BE DVFS caps plus their lower/raise transitions.

    Returns ``(ladder, down, up)``: ``ladder`` is the ascending array
    of cap frequencies reachable through
    :meth:`~repro.sim.actuators.Actuators.lower_be_frequency` /
    ``raise_be_frequency`` one step at a time, with ``inf`` ("no cap")
    appended last.  ``down[i]`` / ``up[i]`` map a cap index to its
    successor under one lower/raise step.  Both tables are computed
    with the scalar :meth:`TurboSpec.clamp_ghz`, so the vector cascade
    inherits its exact float semantics by lookup instead of
    re-deriving them.
    """
    chain = []
    cur = turbo.clamp_ghz(turbo.max_turbo_ghz - turbo.step_ghz)
    while True:
        chain.append(cur)
        nxt = turbo.clamp_ghz(cur - turbo.step_ghz)
        if nxt == cur:
            break
        cur = nxt
    ladder = sorted(set(chain))
    index = {v: i for i, v in enumerate(ladder)}
    none_idx = len(ladder)
    down = np.empty(none_idx + 1, dtype=np.int64)
    up = np.empty(none_idx + 1, dtype=np.int64)
    for i in range(none_idx + 1):
        cap = None if i == none_idx else ladder[i]
        current = turbo.max_turbo_ghz if cap is None else cap
        down[i] = index[turbo.clamp_ghz(current - turbo.step_ghz)]
        if cap is None:
            up[i] = none_idx
        else:
            raised = cap + turbo.step_ghz
            if raised >= turbo.max_turbo_ghz - 1e-9:
                up[i] = none_idx
            else:
                up[i] = index[turbo.clamp_ghz(raised)]
    return np.append(ladder, np.inf), down, up


class BatchMember:
    """One member of a batch, as a scenario reads it back.

    ``lc`` and ``be`` are the member's workloads and ``history`` its
    zero-copy :class:`BatchMemberHistory` slice of the batch's columns
    (an empty :class:`~repro.sim.engine.SimHistory` when the batch keeps
    no per-member history).  A member owns no state and no control
    surface: Heracles is the batch's vector controller, and every other
    actuation is an event on the batch's schedule.
    """

    def __init__(self, batch: "BatchColocationSim", index: int):
        self.lc = batch._lcs[index]
        self.be = batch._bes[index]
        if batch.record_history:
            self.history = BatchMemberHistory(batch._store, index)
        else:
            self.history = SimHistory()


@dataclass
class BatchTickResult:
    """Per-tick observables for every member, as arrays of shape (N,)."""

    t_s: float
    load: np.ndarray
    tail_latency_ms: np.ndarray
    slo_fraction: np.ndarray
    be_throughput_norm: np.ndarray
    emu: np.ndarray
    be_running: np.ndarray


class BatchMemberHistory(TickSeriesMixin, BatchMemberSeries):
    """One member's scalar-history view of the shared batch store.

    Presents the exact :class:`~repro.sim.engine.SimHistory` surface —
    ``records``, ``last()``, ``column()``, the windowed metrics — as a
    zero-copy slice of the batch's (T, N) columns, so the equivalence
    contract ("a batch member's history matches its scalar twin
    tick-for-tick") is checkable without materializing N dataclasses
    per tick.
    """

    RECORD_TYPE = TickRecord
    INT_FIELDS = SimHistory.INT_FIELDS
    BOOL_FIELDS = SimHistory.BOOL_FIELDS
    OPTIONAL_FIELDS = SimHistory.OPTIONAL_FIELDS


class BatchHistory:
    """Column-oriented record of a whole batched run.

    Rows are ticks, columns are members: every ``TickRecord`` field is
    a (T, N) member-major array inside the engine's one
    :class:`~repro.metrics.columns.BatchColumnStore` (timestamps are
    stored once — all members share the batch clock), shared zero-copy
    with the per-member :class:`BatchMemberHistory` views.  A batch
    built with ``record_history=False`` has no store and records
    nothing.
    """

    def __init__(self, store: Optional[BatchColumnStore]):
        self._store = store

    @property
    def store(self) -> Optional[BatchColumnStore]:
        """The backing store (None when the batch keeps no history)."""
        return self._store

    def column(self, name: str) -> np.ndarray:
        """(T, N) zero-copy view of one observable across the run."""
        if self._store is None or not len(self._store):
            return np.zeros((0, 0))
        return self._store.column(name)

    def times(self) -> np.ndarray:
        """Tick timestamps of the recorded run, shape (T,)."""
        if self._store is None:
            return np.zeros(0)
        return self._store.column("t_s")

    def __len__(self) -> int:
        """Number of recorded ticks."""
        return len(self._store) if self._store is not None else 0


def _distinct(objs: Sequence) -> tuple:
    """``(rows, index)``: the distinct objects by identity, in order of
    first appearance, and each entry's position among them."""
    first: Dict[int, int] = {}
    index = [first.setdefault(id(o), len(first)) for o in objs]
    return (list({id(o): o for o in objs}.values()),
            np.array(index, dtype=np.int64))


def _as_list(value, n: int, what: str) -> list:
    """Broadcast a scalar-or-sequence argument to a list of length n."""
    if isinstance(value, (list, tuple)):
        if len(value) != n:
            raise ValueError(f"{what}: expected {n} entries, got {len(value)}")
        return list(value)
    return [value] * n


class BatchColocationSim:
    """N servers, each one LC workload + one optional BE task group.

    Args:
        lc: one shared LC workload instance, or a sequence of N (all
            built against the same :class:`MachineSpec` — the batch is
            homogeneous in hardware, not necessarily in workload).
        trace: one shared load trace or a sequence of N.
        bes: None (no BE anywhere), one shared BE workload, or a
            sequence of N entries each ``BestEffortWorkload`` or None.
        spec: machine spec (defaults to the LC workload's).
        seeds: per-server tail-noise seeds (defaults to 0..N-1).
        n: batch size; inferred from the longest sequence argument
            when omitted.
        record_history: keep the full :class:`TickRecord` field set per
            member (the scalar engine's format, read through
            ``members[i].history``).  Disabled, the batch records no
            history (the fleet engine collects its own telemetry).
        specs: one machine spec per member, differing from ``spec``
            only in DRAM bandwidth and NIC link rate (a merged fleet).
        spill_dir: bound resident history memory by chunked
            spill-to-disk (see :mod:`repro.metrics.columns`).
    """

    def __init__(self,
                 lc: Union[LatencyCriticalWorkload,
                           Sequence[LatencyCriticalWorkload]],
                 trace: Union[LoadTrace, Sequence[LoadTrace]],
                 bes: Union[None, BestEffortWorkload,
                            Sequence[Optional[BestEffortWorkload]]] = None,
                 spec: Optional[MachineSpec] = None,
                 seeds: Optional[Sequence[int]] = None,
                 n: Optional[int] = None,
                 record_history: bool = True,
                 specs: Optional[Sequence[MachineSpec]] = None,
                 spill_dir: Optional[str] = None):
        if seeds is not None:
            seeds = list(seeds)
        if n is None:
            n = 1
            for value in (lc, trace, bes, seeds):
                if isinstance(value, (list, tuple)):
                    n = max(n, len(value))
        self.n = n
        lcs = _as_list(lc, n, "lc")
        traces = _as_list(trace, n, "trace")
        be_list = _as_list(bes, n, "bes") if bes is not None else [None] * n
        seed_list = list(seeds) if seeds is not None else list(range(n))
        if len(seed_list) != n:
            raise ValueError(f"seeds: expected {n} entries")

        self.spec = spec or lcs[0].spec
        self.spec.validate()
        for w in lcs:
            if w.spec.total_cores != self.spec.total_cores:
                raise ValueError("batch members must share one hardware spec")
        self._dram_cap, self._nic_link = self._hardware_columns(specs)
        if spill_dir is not None and not record_history:
            raise ValueError("spill_dir needs record_history: a batch "
                             "without history has nothing to spill")
        self.record_history = record_history
        self.time_s = 0.0
        # One columnar store for the whole batch, holding the
        # TickRecord fields; members' history views read the same
        # arrays.  spill_dir bounds resident history memory by chunked
        # spill-to-disk (see repro.metrics.columns); each batch needs
        # its own directory.
        self._store = BatchColumnStore(
            SimHistory.field_dtypes(), n=n, shared=("t_s",),
            spill_dir=spill_dir) if record_history else None
        self.history = BatchHistory(self._store)

        self._lcs = lcs
        self._traces = traces
        self._bes = be_list
        # Contiguous runs sharing one trace object (the whole batch for
        # a cluster, one run per cluster in a merged fleet) answer the
        # offered-load query with a single scalar evaluation per run.
        self._trace_groups = []
        start = 0
        for i in range(1, n + 1):
            if i == n or traces[i] is not traces[start]:
                self._trace_groups.append((slice(start, i), traces[start]))
                start = i
        self._build_static_arrays(lcs, be_list)
        self._build_member_state(be_list, seed_list)

        # Control: at most one vector Heracles over the batch (every
        # other actuation is an event on the chaos schedule).
        self._members: Optional[List[BatchMember]] = None
        self.vec_heracles: Optional[_VecHeracles] = None

        # Mutable telemetry state (RAPL-style smoothed power, (S, N)).
        self._rapl_watts = np.zeros((self.spec.sockets, n))
        self._rapl_started = False
        self._rapl_smoothing = 0.5
        self._gathered_be_cores = np.zeros(n, dtype=np.int64)
        # This tick's measurements the vector controller reads.
        self._tick: Dict[str, np.ndarray] = {}
        # Observability (off by default: both stay None unless the
        # REPRO_TRACE / REPRO_PROFILE env toggles are set; the whole
        # disabled path is these attributes' None checks).
        self._obs_trace = make_sink()
        self._obs_prof = make_profiler()
        self._obs_map: Optional[np.ndarray] = None

    def _build_member_state(self, be_list, seed_list) -> None:
        """The per-member control plane, as columns."""
        n, spec = self.n, self.spec
        total_ways = spec.socket.llc_ways
        # Actuator columns: the Actuators field set, one row per member
        # (an uncapped DVFS cap or HTB ceiling reads inf).
        self._act_enabled = np.zeros(n, dtype=bool)
        self._act_cores = np.zeros(n, dtype=np.int64)   # raw _be_cores
        self._act_lc_ways = np.full(n, total_ways, dtype=np.int64)
        self._act_be_ways = np.zeros(n, dtype=np.int64)
        self._act_throttle = np.ones(n)
        self._act_cap = np.full(n, np.inf)
        self._act_ceil = np.full(n, np.inf)
        self._min_lc_llc_ways = np.ones(n, dtype=np.int64)
        self._max_be_cores = spec.total_cores - MIN_LC_CORES
        self._initial_be_ways = max(1, round(INITIAL_BE_LLC_FRACTION
                                             * total_ways))
        self._cap_ladder, self._cap_down, self._cap_up = _dvfs_ladder(
            spec.socket.turbo)

        # Monitors: the latency window rows, and BE throughput as the
        # last normalized value per member.
        self._vmon = _VecLatencyMonitor()
        refs = np.zeros(n)
        memo: Dict[int, float] = {}
        for i, be in enumerate(be_list):
            if be is not None:
                if id(be) not in memo:
                    memo[id(be)] = reference_throughput_units(be)
                refs[i] = memo[id(be)]
        self._be_ref_safe = np.where(refs > 0, refs, 1.0)
        self._be_last_norm = np.zeros(n)

        # Tail-noise streams (a no-draw member, sigma <= 0, keeps
        # factor 1.0 and never consumes its stream), prefetched in
        # chunks.
        self._noise_sigmas = [float(x) for x in self._lc["noise_sigma"]]
        self._any_noise = any(s > 0 for s in self._noise_sigmas)
        self._noise_draws = np.ones(n)
        self._noise_idx = np.nonzero(np.asarray(self._noise_sigmas) > 0)[0]
        self._noise_all = len(self._noise_idx) == n
        self._noise_rngs = [np.random.default_rng(seed_list[i])
                            for i in self._noise_idx]
        self._noise_chunk: Optional[np.ndarray] = None
        self._noise_pos = 0

    # ------------------------------------------------------------------
    # Controllers
    # ------------------------------------------------------------------

    @property
    def members(self) -> List[BatchMember]:
        """Every member's workloads and history (see :class:`BatchMember`).

        Built on first access; the vectorized tick never reads them.
        """
        if self._members is None:
            self._members = [BatchMember(self, i) for i in range(self.n)]
        return self._members

    def attach_vec_heracles(self, dram_model=None, config=None,
                            model_segments=None,
                            managed=None) -> "_VecHeracles":
        """Attach Heracles: one masked array program over the members.

        Mirrors :meth:`HeraclesController.for_sim` per managed member:
        same config defaults, same offline guaranteed-frequency
        measurement, same hot-working-set floor on the LC cache
        partition, and — given neither ``dram_model`` nor
        ``model_segments`` — the same offline DRAM profiling of the
        member's LC workload.  ``model_segments`` are ``(slice,
        model)`` pairs covering the managed members (one per cluster in
        a merged fleet, one per member in a mixed scenario); adjacent
        segments on one model merge.  ``managed`` is a boolean mask of
        the members Heracles acts on (default: all); an unmanaged
        member is never touched, exactly as a member with no
        controller.

        Raises:
            ValueError: a controller is already attached to the batch,
                or a managed member has no BE task.
        """
        from ..core.config import HeraclesConfig
        from ..core.controller import lc_way_floor
        from ..core.dram_model import profile_lc_dram_model
        n = self.n
        man = (np.ones(n, dtype=bool) if managed is None
               else np.asarray(managed, dtype=bool))
        if self.vec_heracles is not None:
            raise ValueError("the batch already has a Heracles controller")
        no_be = np.nonzero(man & ~self._has_be)[0]
        if len(no_be):
            raise ValueError(f"Heracles manages a colocation; member "
                             f"{int(no_be[0])} has no BE task")
        managed_idx = np.nonzero(man)[0]
        if model_segments is None and dram_model is not None:
            model_segments = [(slice(0, n), dram_model)]
        elif model_segments is None:
            profiled: Dict[int, object] = {}
            model_segments = []
            for i in managed_idx:
                lc = self._lcs[i]
                if id(lc) not in profiled:
                    profiled[id(lc)] = profile_lc_dram_model(lc)
                model_segments.append((slice(i, i + 1), profiled[id(lc)]))
        segments = []
        for sl, model in model_segments:
            if (segments and segments[-1][1] is model
                    and segments[-1][0].stop == sl.start):
                segments[-1] = (slice(segments[-1][0].start, sl.stop), model)
            else:
                segments.append((sl, model))

        floors: Dict[int, int] = {}
        for i in managed_idx:
            w = self._lcs[i]
            if id(w) not in floors:
                floors[id(w)] = lc_way_floor(w)
            self._min_lc_llc_ways[i] = floors[id(w)]
        self.vec_heracles = _VecHeracles(self, segments,
                                         config or HeraclesConfig(), man)
        return self.vec_heracles

    # ------------------------------------------------------------------
    # Member state: load, noise, monitors, actuator operations
    # ------------------------------------------------------------------

    def _offered_load(self) -> np.ndarray:
        """Offered load of every member at the current clock, shape (N,)."""
        out = np.empty(self.n)
        for sl, trace in self._trace_groups:
            out[sl] = trace.clipped(self.time_s)
        return out

    #: Ticks the running ``run`` loop has left, this one included (None
    #: outside a run loop): caps the noise prefetch at the horizon.
    _ticks_left: Optional[int] = None

    def _tail_noise_factors(self) -> Optional[np.ndarray]:
        """Per-member tail-noise multipliers for this tick, or None."""
        if not self._any_noise:
            return None
        if self._noise_chunk is None or self._noise_pos >= len(
                self._noise_chunk):
            # One chunked draw per member stream: a Generator fills an
            # array by repeating the scalar sampling routine, so k
            # prefetched draws consume the stream exactly as k scalar
            # lognormal() calls by the scalar engine's rng (and chunks
            # of any sizes concatenate to the same sequence).
            size = 1024 if self._ticks_left is None else min(
                1024, self._ticks_left)
            chunk = np.empty((size, len(self._noise_idx)))
            for j, i in enumerate(self._noise_idx):
                chunk[:, j] = self._noise_rngs[j].lognormal(
                    mean=0.0, sigma=self._noise_sigmas[i], size=size)
            self._noise_chunk = chunk
            self._noise_pos = 0
        if self._noise_all:
            # Every member draws: the chunk row *is* the factor array.
            draws = self._noise_chunk[self._noise_pos]
        else:
            draws = self._noise_draws
            draws[self._noise_idx] = self._noise_chunk[self._noise_pos]
        self._noise_pos += 1
        return draws

    def _record_members(self, load, tail, be_units, be_running,
                        dt_s) -> np.ndarray:
        """Feed the monitors; returns be_norm, shape (N,)."""
        self._vmon.record(self.time_s, tail, load)
        # ThroughputMonitor.record: ((units * dt) / dt) / reference,
        # updated only where the BE group ran this tick.
        norm = ((be_units * dt_s) / dt_s) / self._be_ref_safe
        self._be_last_norm = np.where(be_running, norm, self._be_last_norm)
        return np.where(be_running, self._be_last_norm, 0.0)

    def be_cores_now(self) -> np.ndarray:
        """Every member's current ``be_cores`` property view, shape (N,).

        Unlike the per-tick gather (step 2 of :meth:`tick`, cached in
        ``_gathered_be_cores``), this reads the actuators *now* —
        including any controller mutations from the current tick's
        step — which is what a cluster scheduler polls after a tick.
        """
        return np.where(self._act_enabled, self._act_cores, 0)

    # Masked transcriptions of the Actuators methods.

    def _v_set_split(self, mask: np.ndarray, be_ways) -> None:
        """set_llc_split under ``mask`` (``be_ways`` scalar or array)."""
        ways = np.minimum(np.maximum(be_ways, 0),
                          self.spec.socket.llc_ways - self._min_lc_llc_ways)
        self._act_be_ways[mask] = ways[mask]
        self._act_lc_ways[mask] = (self.spec.socket.llc_ways
                                   - self._act_be_ways[mask])

    def _v_enable(self, mask: np.ndarray) -> None:
        """enable_be under ``mask`` (no-op where already enabled)."""
        fresh = mask & ~self._act_enabled
        if not fresh.any():
            return
        self._act_enabled[fresh] = True
        self._act_cores[fresh] = min(1, self._max_be_cores)
        self._v_set_split(fresh, self._initial_be_ways)

    def _v_disable(self, mask: np.ndarray) -> None:
        """disable_be under ``mask``."""
        if not mask.any():
            return
        self._act_enabled[mask] = False
        self._act_cores[mask] = 0
        self._v_set_split(mask, 0)
        self._act_cap[mask] = np.inf
        self._act_throttle[mask] = 1.0
        self._act_ceil[mask] = np.inf

    def _v_lower_frequency(self, mask: np.ndarray, steps: int) -> None:
        """lower_be_frequency(steps) under ``mask``.

        Per member, with the scalar :meth:`TurboSpec.clamp_ghz`, so each
        lands on the exact float the scalar method computes (and, for
        ``steps >= 1``, on the cap ladder the vector power loop
        indexes); an event fires once, so the loop is off the hot path.
        """
        turbo = self.spec.socket.turbo
        for i in np.nonzero(mask)[0]:
            cap = float(self._act_cap[i])
            current = turbo.max_turbo_ghz if cap == np.inf else cap
            self._act_cap[i] = turbo.clamp_ghz(
                current - steps * turbo.step_ghz)

    def _v_remove_cores(self, mask: np.ndarray, count: np.ndarray) -> None:
        """remove_be_cores under ``mask`` (``count`` integral array)."""
        count = np.asarray(count).astype(np.int64)
        removed = np.minimum(np.maximum(0, count), self._act_cores)
        self._act_cores[mask] = (self._act_cores - removed)[mask]

    # ------------------------------------------------------------------
    # Observability (decision tracing / phase profiling)
    # ------------------------------------------------------------------
    #
    # Off by default: ``_obs_trace`` / ``_obs_prof`` stay None unless
    # the REPRO_TRACE / REPRO_PROFILE toggles are set, and every hook
    # below is gated on one ``is None`` check.  Tracing never mutates
    # engine state.

    def obs_set_members(self, members) -> None:
        """Set the *global* (fleet-wide) index of every local member.

        Trace events carry global member indices so merged traces are
        invariant under any shard partition; a standalone batch keeps
        the identity mapping.
        """
        members = np.asarray(members, dtype=np.int64)
        if members.shape != (self.n,):
            raise ValueError(f"expected {self.n} member indices, got "
                             f"shape {members.shape}")
        self._obs_map = members

    def _obs_members(self) -> np.ndarray:
        """Local→global member index map (identity unless re-based)."""
        if self._obs_map is None:
            self._obs_map = np.arange(self.n, dtype=np.int64)
        return self._obs_map

    def _obs_actuator_state(self) -> np.ndarray:
        """The traced actuator columns ``(gate, cores, llc, dvfs, ceil)``
        as a new (5, N) float array (uncapped DVFS / ceiling read
        ``inf``; cores and ways read 0 where BE is off)."""
        enabled = self._act_enabled
        state = np.empty((5, self.n))
        state[0] = enabled
        np.multiply(self._act_cores, enabled, out=state[1])
        np.multiply(self._act_be_ways, enabled, out=state[2])
        state[3] = self._act_cap
        state[4] = self._act_ceil
        return state

    def _obs_emit_decisions(self, pre, slo_fraction, load) -> None:
        """Emit one event per actuator a controller changed this tick.

        ``pre`` is the traced actuator state taken after the tick's
        chaos events and before its controllers (chaos mutations carry
        their own events); attached triggering signals are the tick's
        observed SLO fraction and offered load.  Uncapped DVFS/ceiling
        values (``inf``) are emitted as null.  The whole tick goes out
        as one fused ``(5, N)`` delta append (see
        :meth:`TraceSink.emit_actuator_deltas`) — array-shaped cost,
        no per-event Python calls.
        """
        self._obs_trace.emit_actuator_deltas(
            self.time_s, self._obs_members(), pre,
            self._obs_actuator_state(), slo_fraction, load)

    # ------------------------------------------------------------------
    # Chaos events (fault injection)
    # ------------------------------------------------------------------
    #
    # Chaos is resolved as masked column updates over the same physics
    # the scalar engine runs member-by-member; the semantics contract
    # lives in :mod:`repro.sim.chaos`.  Every branch below is gated on
    # ``self._chaos is None`` so a schedule-free run executes the exact
    # instruction stream it always did (bit-identity by construction),
    # and healthy members of a chaotic run multiply by exactly 1.0 —
    # a bitwise identity — wherever a derate column touches them.

    #: No chaos schedule attached (class default keeps the gate free).
    _chaos = None

    def set_chaos_events(self, events) -> None:
        """Attach a chaos schedule (:class:`~repro.sim.chaos.ChaosEvent`).

        Must be called before the first tick; member indices are local
        to this engine (``None`` targets every member).
        """
        events = sort_events(events)
        for event in events:
            if event.members is None:
                continue
            for m in event.members:
                if not 0 <= m < self.n:
                    raise ValueError(
                        f"chaos event targets member {m} of a "
                        f"{self.n}-member batch")
        n = self.n
        self._chaos = events
        self._chaos_pos = 0
        self._chaos_alive = np.ones(n, dtype=bool)
        self._chaos_derate = np.ones(n)
        self._chaos_tdp = np.ones(n)
        self._chaos_part_until = np.full(n, -np.inf)

    def _chaos_apply(self) -> None:
        """Fire due events, then re-pin the BE-off state of dead members.

        The actuator actions are the masked
        :class:`~repro.sim.actuators.Actuators` transcriptions above,
        applied to the targeted members.
        """
        events = self._chaos
        pos = self._chaos_pos
        while pos < len(events) and events[pos].at_s <= self.time_s:
            ev = events[pos]
            pos += 1
            idx = (list(range(self.n)) if ev.members is None
                   else list(ev.members))
            if not idx:
                continue
            if self._obs_trace is not None:
                trace_chaos_event(self._obs_trace, self.time_s, ev,
                                  self._obs_members()[idx])
            mask = np.zeros(self.n, dtype=bool)
            mask[idx] = True
            if ev.action == "leaf_crash":
                self._chaos_alive[idx] = False
            elif ev.action == "leaf_restart":
                self._chaos_alive[idx] = True
                self._v_disable(mask)   # rejoin cold
            elif ev.action == "straggler":
                self._chaos_derate[idx] = float(ev.value)
            elif ev.action == "power_cap":
                self._chaos_tdp[idx] = float(ev.value)
            elif ev.action == "partition":
                self._chaos_part_until[idx] = np.maximum(
                    self._chaos_part_until[idx], ev.at_s + float(ev.value))
            elif ev.action == "enable_be":
                self._v_enable(mask)
            elif ev.action == "disable_be":
                self._v_disable(mask)
            elif ev.action == "set_be_cores":
                # Actuators.set_be_cores: an unconditional raw-count
                # write, clamped to keep the LC core minimum.
                self._act_cores[mask] = max(
                    0, min(int(ev.value), self._max_be_cores))
            elif ev.action == "set_llc_split":
                self._v_set_split(mask, int(ev.value))
            elif ev.action == "lower_be_frequency":
                self._v_lower_frequency(mask, int(ev.value))
            else:  # set_be_net_ceil: HtbQdisc.set_ceil's clamp
                link = self._nic_link
                self._act_ceil[mask] = np.minimum(
                    np.maximum(0.0, float(ev.value)),
                    link[mask] if np.ndim(link) else link)
        self._chaos_pos = pos
        dead = ~self._chaos_alive
        if dead.any():
            # Forced off every tick while down: a controller that turns
            # BE back on mid-crash is overridden at the next tick start,
            # exactly as the scalar engine re-pins its single member.
            self._v_disable(dead)

    # ------------------------------------------------------------------
    # Static per-member parameter arrays
    # ------------------------------------------------------------------

    def _hardware_columns(self, specs):
        """Per-member DRAM/NIC capacities: scalars unless ``specs`` vary.

        A heterogeneous batch (the mega fleet engine merging several
        clusters into one array program) passes one
        :class:`MachineSpec` per member.  The specs must agree on every
        field the physics reads as a shared scalar — core counts, cache
        geometry, turbo ladder, power envelope (its
        :meth:`MachineSpec.structural_key`) — and the two capacity
        fields the physics applies per member, DRAM bandwidth and NIC
        link rate, become ``(N,)`` columns that broadcast against the
        socket-major ``(S, N)`` demand rows and the egress vectors
        alike.  With no ``specs``, or specs that all agree, the columns
        are the plain ``self.spec`` scalars.  Each distinct spec
        object is checked once.
        """
        base = self.spec
        if specs is None:
            return base.socket.dram_bw_gbps, base.nic.link_gbps
        if len(specs) != self.n:
            raise ValueError(f"specs: expected {self.n} entries")
        rows, of = _distinct(specs)
        key = base.structural_key()
        if any(s.structural_key() != key for s in rows):
            raise ValueError(
                "specs may differ only in DRAM bandwidth and NIC "
                "link rate; every structural field (cores, cache, "
                "turbo, power) must match the batch spec")
        dram = np.array([s.socket.dram_bw_gbps for s in rows])[of]
        link = np.array([s.nic.link_gbps for s in rows])[of]
        return ((base.socket.dram_bw_gbps
                 if (dram == base.socket.dram_bw_gbps).all() else dram),
                (base.nic.link_gbps
                 if (link == base.nic.link_gbps).all() else link))

    def _build_static_arrays(self, lcs, bes) -> None:
        # Each parameter is read once per distinct workload instance (a
        # fleet shares a few among many members) and broadcast by index.
        lc_rows, lc_of = _distinct(lcs)
        be_rows, be_of = _distinct(bes)

        def arr(fn, dtype=float):
            return np.array([fn(w) for w in lc_rows], dtype=dtype)[lc_of]

        p = lambda w: w.profile
        s = lambda w: w.profile.sensitivity
        self._lc = {
            "peak_qps": arr(lambda w: w.peak_qps),
            "base_service_ms": arr(lambda w: w.base_service_ms),
            "slo_ms": arr(lambda w: p(w).slo_latency_ms),
            "percentile": arr(lambda w: p(w).slo_percentile),
            "tail_mult": arr(lambda w: p(w).service_tail_mult),
            "pool_size": arr(lambda w: p(w).pool_size or 0, dtype=np.int64),
            "noise_sigma": arr(lambda w: p(w).noise_sigma),
            "compute_activity": arr(lambda w: p(w).compute_activity),
            "dram_peak_gbps": arr(lambda w: w._dram_peak_gbps),
            "dram_exponent": arr(lambda w: p(w).dram_load_exponent),
            "uncached_share": arr(lambda w: w._uncached_share),
            "baseline_hit": arr(lambda w: w._baseline_hit),
            "hot_mb": arr(lambda w: p(w).hot_mb),
            "bulk_peak_mb": arr(lambda w: p(w).bulk_mb_at_peak),
            "bulk_reuse": arr(lambda w: p(w).bulk_reuse),
            "hot_frac": arr(lambda w: p(w).hot_access_fraction),
            "net_frac": arr(lambda w: p(w).net_frac_at_peak),
            "net_flows": arr(lambda w: p(w).net_flows),
            "freq_exp": arr(lambda w: s(w).freq_exponent),
            "hot_w": arr(lambda w: s(w).hot_miss_weight),
            "bulk_w": arr(lambda w: s(w).bulk_miss_weight),
            "mem_frac": arr(lambda w: s(w).mem_time_fraction),
            "net_gain": arr(lambda w: s(w).net_tail_gain),
        }

        # Static derived quantities, precomputed once so the tick loop
        # spends no dispatches on run-constant arithmetic.  Each matches
        # the subexpression the scalar code evaluates per call.
        self._lc["cached_share"] = 1.0 - self._lc["uncached_share"]
        self._lc["miss_frac"] = np.maximum(1e-3,
                                           1.0 - self._lc["baseline_hit"])
        self._lc["net_peak"] = self._lc["net_frac"] * self._nic_link
        self._lc["tail_mass"] = 1.0 - self._lc["percentile"]
        # Queueing pool structure depends only on the integer core count:
        # table[r, servers] is servers_per_pool for distinct LC row r.
        total = self.spec.total_cores
        table = np.ones((len(lc_rows), total + 1), dtype=np.int64)
        for i, w in enumerate(lc_rows):
            ps = w.profile.pool_size
            for servers in range(1, total + 1):
                pools = max(1, round(servers / ps)) if ps else 1
                table[i, servers] = max(1, round(servers / pools))
        # Per-member row offsets: _k_table.take(_k_base + cores) is
        # member i's servers per pool in one flat gather.
        self._k_table, self._k_base = table, lc_of * table.shape[1]

        def barr(fn, default=0.0):
            return np.array([fn(w.profile) if w is not None else default
                             for w in be_rows], dtype=float)[be_of]

        self._has_be = np.array([w is not None for w in bes], dtype=bool)
        self._be = {
            # min(3, activity * power_weight) — the scalar demand() value.
            "activity": barr(lambda q: min(3.0, q.activity * q.power_weight)),
            "hot_mb": barr(lambda q: q.hot_mb),
            "bulk_mb": barr(lambda q: q.bulk_mb),
            "bulk_reuse": barr(lambda q: q.bulk_reuse, 1.0),
            "access_per_core": barr(lambda q: q.access_gbps_per_core),
            "hot_frac": barr(lambda q: q.hot_access_fraction),
            "uncached_per_core": barr(lambda q: q.uncached_dram_gbps_per_core),
            "net_demand": barr(lambda q: q.net_demand_gbps),
            "net_flows": barr(lambda q: q.net_flows, 1.0),
            "mem_bound": barr(lambda q: q.mem_bound_fraction),
            "cache_benefit": barr(lambda q: q.cache_benefit),
        }
        # Class-stacked (2, 1, N) columns, row 0 LC and row 1 BE: the
        # statics, and the tick's buffers whose other row is static
        # (an LC DVFS cap of inf: min(inf, x) == x exactly).
        L, B, n = self._lc, self._be, len(lcs)

        def col2(lc_row, be_row, dtype=float):
            out = np.empty((2, 1, n), dtype=dtype)
            out[0, 0], out[1, 0] = lc_row, be_row
            return out

        self._hot_mb2 = col2(L["hot_mb"], B["hot_mb"])
        self._hot_frac2 = col2(L["hot_frac"], B["hot_frac"])
        self._cold_frac2 = 1.0 - self._hot_frac2
        self._bulk_reuse2 = col2(L["bulk_reuse"], B["bulk_reuse"])
        self._act2 = col2(0.0, B["activity"])
        self._cap2 = col2(np.inf, np.inf)
        self._bulk2 = col2(0.0, B["bulk_mb"])
        self._access2 = col2(0.0, 0.0)
        self._uncached2 = col2(0.0, 0.0)
        self._net2 = np.zeros((2, n))
        self._net_ceil2 = np.full((2, n), np.inf)
        self._net_flows2 = np.array((L["net_flows"], B["net_flows"]))
        self._part2 = col2(0.0, 0.0)
        self._count2 = col2(0, 0, dtype=np.int64)
        # Per-socket core splits by BE core count (the actuators'
        # round-robin policy), (S, total + 1): LC's and BE's.
        S, per_socket = self.spec.sockets, self.spec.socket.cores
        c = np.arange(self.spec.total_cores + 1)
        be_split = c // S + (np.arange(S)[:, None] < c % S)
        self._split_lc, self._split_be = per_socket - be_split, be_split
        self._cores2 = np.empty((2, S, n), dtype=np.int64)

    # ------------------------------------------------------------------
    # The vectorized tick
    # ------------------------------------------------------------------

    def tick(self, dt_s: float = 1.0) -> BatchTickResult:
        """Advance all members by one interval (vectorized physics)."""
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        spec = self.spec
        socket = spec.socket

        # -- 0. Chaos events (fire at tick start, before load eval) ---------
        prof = self._obs_prof
        mark = perf_counter() if prof is not None else 0.0
        if self._chaos is not None:
            self._chaos_apply()
            chaos_dead = ~self._chaos_alive
            chaos_parted = self._chaos_alive & (self.time_s
                                                < self._chaos_part_until)
        else:
            chaos_dead = chaos_parted = None
        if prof is not None:
            mark = prof.lap("chaos", mark)

        # -- 1. Offered load ------------------------------------------------
        load = self._offered_load()
        if self._chaos is not None:
            # Crashed leaves serve nothing; partitioned leaves have
            # their load held at the root (reads as zero here).
            load = np.where(chaos_dead | chaos_parted, 0.0, load)

        # -- 2. Placement state from the actuator columns -------------------
        # Live columns: controllers mutate them only after the physics
        # and the telemetry row below have read them.
        be_enabled = self._act_enabled
        be_eff = np.where(be_enabled, self._act_cores, 0)
        lc_ways, be_ways = self._act_lc_ways, self._act_be_ways
        dvfs_cap, throttle = self._act_cap, self._act_throttle
        be_ceil = self._act_ceil
        # The gathered be_cores view is the post-step state of the
        # *previous* tick (controllers mutate actuators after physics);
        # keep it readable so callers can collect controller grants.
        self._gathered_be_cores = be_eff
        pre_act = None
        if self._obs_trace is not None:
            # A snapshot: it must not follow the live columns.
            pre_act = self._obs_actuator_state()

        be_running = self._has_be & be_enabled & (be_eff > 0)

        # Core counts per class: totals (2, 1, N) and per-socket splits
        # (2, S, N), looked up by BE core count ("clip" writes into out
        # unbuffered; the actuators keep every count in the table).
        count, cores = self._count2, self._cores2
        lc_total = np.subtract(spec.total_cores, be_eff, out=count[0, 0])
        be_total = np.multiply(be_eff, be_running, out=count[1, 0])
        np.take(self._split_lc, be_eff, axis=1, out=cores[0], mode="clip")
        np.take(self._split_be, be_total, axis=1, out=cores[1], mode="clip")

        # -- 3. Workload demands -------------------------------------------
        L, B = self._lc, self._be
        rho_lc = np.minimum(
            1.0, ((load * L["peak_qps"]) * L["base_service_ms"]
                  / 1000.0) / lc_total)
        act = self._act2
        np.multiply(L["compute_activity"], rho_lc, out=act[0, 0])
        dram_target = L["dram_peak_gbps"] * load ** L["dram_exponent"]
        uncached, access, bulk = self._uncached2, self._access2, self._bulk2
        np.multiply(L["uncached_share"], dram_target, out=uncached[0, 0])
        np.multiply(B["uncached_per_core"], be_total, out=uncached[1, 0])
        np.divide(L["cached_share"] * dram_target, L["miss_frac"],
                  out=access[0, 0])
        np.multiply(B["access_per_core"], be_total, out=access[1, 0])
        np.multiply(L["bulk_peak_mb"], load, out=bulk[0, 0])
        # Egress demand (2, N); a BE demand is finite, so the 0/1 mask
        # product is exact.
        net = self._net2
        net_lc = np.multiply(L["net_peak"], load, out=net[0])
        np.multiply(B["net_demand"], be_running, out=net[1])

        # Per-socket splits, matching the two scalar helpers' operation
        # order: cache_demand_for normalizes the weight first
        # (w = cores/total), split_across_sockets divides last.  A BE
        # total of 0 divides by 1 (its cores are all 0, so masked).
        mask = cores > 0
        total = np.maximum(count, 1)
        w = np.where(mask, cores / total, 0.0)
        hot_s = self._hot_mb2 * w
        bulk_s = bulk * w
        access_s = access * w
        uncached_s = np.where(mask, (uncached * cores) / total, 0.0)

        # -- 4. Power / frequency equilibrium -------------------------------
        self._cap2[1, 0] = dvfs_cap
        freq_s, power_s = self._resolve_power(cores, mask, act, self._cap2)
        # RAPL metering (exponentially smoothed, as the real counters).
        a = self._rapl_smoothing
        if self._rapl_started:
            self._rapl_watts = a * power_s + (1 - a) * self._rapl_watts
        else:
            self._rapl_watts = power_s.copy()
            self._rapl_started = True
        # Core-weighted achieved frequency per class, (2, N).
        freq = _weighted_freq(freq_s, cores, count, total)
        if self._chaos is not None:
            # Straggler derate on the achieved frequencies (healthy
            # members multiply by exactly 1.0 — a bitwise identity).
            freq = freq * self._chaos_derate
        lc_freq, be_freq = freq
        if prof is not None:
            mark = prof.lap("power", mark)

        # -- 5. LLC occupancy within each CAT partition ---------------------
        # LC and BE resolve in separate partitions with identical math,
        # so both classes go through one stacked resolution.
        mb_per_way = socket.llc_mb / socket.llc_ways
        part = self._part2
        np.multiply(lc_ways, mb_per_way, out=part[0, 0])
        np.multiply(be_ways, mb_per_way, out=part[1, 0])
        (hit, hot_cov, bulk_cov), miss_s = _resolve_partition(
            part, mask, hot_s, bulk_s, access_s, self._hot_frac2,
            self._cold_frac2, self._bulk_reuse2)
        if prof is not None:
            mark = prof.lap("cache", mark)

        # -- 6. DRAM channels ----------------------------------------------
        dram = self._resolve_memory(mask, uncached_s, miss_s, throttle,
                                    be_running)
        if prof is not None:
            mark = prof.lap("dram", mark)

        # -- 7. Egress link -------------------------------------------------
        self._net_ceil2[1] = be_ceil
        net_ach = self._resolve_network(net, self._net_ceil2)
        lc_net, be_net = net_ach
        # Each class's satisfied share of its demand.
        has = net > 0
        lc_sat, be_sat = np.where(has, np.minimum(
            1.0, net_ach / np.where(has, net, 1.0)), 1.0)
        if prof is not None:
            mark = prof.lap("network", mark)

        # -- 8. LC tail latency --------------------------------------------
        nominal = socket.turbo.nominal_ghz
        freq_factor = (nominal / lc_freq) ** L["freq_exp"]
        hot_loss = 1.0 - hot_cov[0]
        cache_factor = (1.0
                        + L["hot_w"] * hot_loss * (0.3 + 0.7 * hot_loss)
                        + L["bulk_w"] * (1.0 - bulk_cov[0]))
        mem_factor = 1.0 + L["mem_frac"] * (dram["lc_delay"] - 1.0)
        # Heracles pins LC and BE to disjoint physical cores, so the
        # HyperThread share is identically zero on this path (factor 1).
        inflation = freq_factor * cache_factor * mem_factor * 1.0
        service_ms = L["base_service_ms"] * inflation
        qps = load * L["peak_qps"]
        k_pool = self._k_table.take(self._k_base + lc_total)
        tail = _queue_tail_ms(lc_total, service_ms, qps, L["tail_mult"],
                              L["tail_mass"], k_pool)
        tail = tail * _net_latency_factor(net_lc, lc_sat, L["net_gain"])

        # Per-member seeded noise streams, drawn in member order so the
        # sequence matches the scalar engine's single-server draws.
        draws = self._tail_noise_factors()
        if draws is not None:
            tail = tail * draws
        if self._chaos is not None:
            # Noise streams above still advanced for every member (so
            # healthy members' draws are unaffected); the overrides
            # replace the computed tail afterwards.
            tail = np.where(chaos_parted,
                            L["slo_ms"] * PARTITION_TAIL_SLO_MULT, tail)
            tail = np.where(chaos_dead, 0.0, tail)
        slo_fraction = tail / L["slo_ms"]

        # -- 9. BE throughput ----------------------------------------------
        freq_scale = be_freq / nominal
        mem_sat = np.where(dram["be_dem"] > 1e-9,
                           np.minimum(1.0, dram["be_ach"] / np.where(
                               dram["be_dem"] > 1e-9, dram["be_dem"], 1.0)),
                           1.0)
        mem_scale = (1.0 - B["mem_bound"]) + B["mem_bound"] * mem_sat
        cache_scale = 1.0 + B["cache_benefit"] * (hit[1] - 1.0)
        eff = np.maximum(1e-3, freq_scale * mem_scale * cache_scale * 1.0)
        eff = np.where(B["net_demand"] > 0, eff * be_sat, eff)
        be_units = np.where(be_running, be_total * eff, 0.0)

        # -- 10. Telemetry / counters ---------------------------------------
        self._tick = {
            "be_running": be_running, "lc_freq_ghz": lc_freq,
            "be_dram_ach": dram["be_ach"], "lc_net_ach": lc_net,
            "worst_socket_dram_gbps": dram["worst_socket_gbps"],
        }

        # -- 11. Member bookkeeping: monitors, history, controllers ---------
        if prof is not None:
            mark = prof.lap("tail", mark)
        be_norm = self._record_members(load, tail, be_units, be_running,
                                       dt_s)
        emu = load + be_norm

        result = BatchTickResult(
            t_s=self.time_s, load=load, tail_latency_ms=tail,
            slo_fraction=slo_fraction, be_throughput_norm=be_norm,
            emu=emu, be_running=be_running)

        # One vectorized row write records the whole tick for every
        # member (the per-member dataclass loop this replaces built N
        # TickRecords per tick).  The actuator-state columns reuse the
        # arrays gathered in step 2: controllers only mutate actuators
        # *after* this point in the tick, so the gathered values are
        # exactly what the per-member properties would report here.
        if self.record_history:
            self._store.append_tick(dict(
                t_s=self.time_s, load=load, tail_latency_ms=tail,
                slo_fraction=slo_fraction, be_throughput_norm=be_norm,
                emu=emu,
                be_cores=be_eff,
                be_llc_ways=np.where(be_enabled, be_ways, 0),
                be_dvfs_cap_ghz=np.where(np.isinf(dvfs_cap), np.nan,
                                         dvfs_cap),
                be_net_ceil_gbps=np.where(np.isinf(be_ceil), np.nan,
                                          be_ceil),
                be_enabled=be_enabled,
                dram_bw_gbps=dram["total_gbps"],
                dram_utilization=dram["max_util"],
                cpu_utilization=(np.minimum(lc_total + be_total,
                                            spec.total_cores)
                                 / spec.total_cores),
                power_fraction_of_tdp=(_socket_fold(np.add, power_s)
                                       / (socket.tdp_watts
                                          * spec.sockets)),
                lc_net_gbps=lc_net,
                be_net_gbps=be_net,
                link_utilization=np.minimum(
                    1.0, (lc_net + be_net) / self._nic_link),
            ))
        if prof is not None:
            mark = prof.lap("telemetry", mark)

        if self.vec_heracles is not None:
            self.vec_heracles.step(self.time_s)
        if pre_act is not None:
            self._obs_emit_decisions(pre_act, slo_fraction, load)
        if prof is not None:
            prof.lap("controllers", mark)

        self.time_s += dt_s
        return result

    def run(self, duration_s: float, dt_s: float = 1.0) -> BatchHistory:
        """Run all members for ``duration_s`` simulated seconds."""
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        steps = int(round(duration_s / dt_s))
        try:
            for k in range(steps):
                self._ticks_left = steps - k
                self.tick(dt_s)
        finally:
            self._ticks_left = None
        return self.history

    # ------------------------------------------------------------------
    # Physics stages
    # ------------------------------------------------------------------

    #: Grid resolution of the scalar power bisection: 40 halvings of
    #: [0, 1] land every lo/hi bound on an exact multiple of 2**-40
    #: (dyadic rationals are exact doubles), so the bisection's result
    #: is *characterized* — not approximated — as the largest grid
    #: point whose power check passes.
    _BISECT_SCALE = 2.0 ** 40

    @cached_property
    def _turbo_ceiling(self) -> np.ndarray:
        """Turbo ceiling (GHz) by a socket's active-core count 0..cores."""
        turbo, cores = self.spec.socket.turbo, self.spec.socket.cores
        active = np.arange(cores + 1)
        fraction = (np.minimum(np.maximum((active - 1) / (cores - 1), 0.0),
                               1.0) if cores > 1 else np.zeros(cores + 1))
        span = turbo.max_turbo_ghz - turbo.all_core_turbo_ghz
        return np.where(active <= 0, turbo.max_turbo_ghz,
                        turbo.max_turbo_ghz - span * fraction)

    def _resolve_power(self, cores, mask, act, cap):
        """Per-socket frequency/power equilibrium, class-stacked.

        ``cores`` (2, S, N) and its ``mask`` (``cores > 0``), ``act``
        and the DVFS ``cap`` (2, 1, N; LC's cap is inf).  Returns the
        (2, S, N) frequencies (0 where a class has no cores on a
        socket) and the (S, N) socket power.

        Mirrors :meth:`SocketPowerModel.resolve`: turbo ceiling from the
        active-core count, per-task DVFS targets, and — when the socket
        would exceed TDP — the same frequency-scale clamp the scalar
        model finds by 40-step bisection.

        The clamp is computed without the 40 vectorized iterations: the
        scalar bisection's bounds always sit on the exact 2**-40 dyadic
        grid, so its outcome equals the largest grid point ``k/2**40``
        whose recomputed power does not exceed TDP.  We locate ``k``
        with an analytic piecewise-cubic root estimate and confirm it
        with a handful of exact grid probes (the probes evaluate the
        *same* expression, in the same operation order, as the scalar
        loop); any socket the probes cannot pin down — possible only if
        libm rounding makes power locally non-monotone — falls back to
        the literal 40-iteration bisection.
        """
        socket = self.spec.socket
        turbo = socket.turbo
        nominal = turbo.nominal_ghz
        floor = turbo.min_ghz
        tdp = socket.tdp_watts
        if self._chaos is not None:
            # Timed power caps scale the TDP limit per member; (N,)
            # broadcasts across socket rows.  Every use of ``tdp``
            # below is elementwise, so the array substitutes for the
            # scalar.
            tdp = tdp * self._chaos_tdp
        idle = socket.idle_watts

        active = np.where(act > 0, cores, 0)
        ceiling = self._turbo_ceiling.take(active[0] + active[1])
        t = np.maximum(floor, np.minimum(cap, ceiling))
        coef = np.where(mask, (cores * act) * socket.core_dynamic_watts,
                        0.0)
        dyn = coef * (t / nominal) ** 3
        power = idle + (dyn[0] + dyn[1])
        throttled = power > tdp
        if throttled.any():
            # Throttled sockets by flat (socket-major) index: one
            # gather per stack, one setitem back into this call's t.
            idx = np.flatnonzero(throttled)
            t2 = t.reshape(2, -1)
            tdp_t = (tdp.take(idx % self.n)
                     if isinstance(tdp, np.ndarray) else tdp)
            f_thr, p_thr = self._throttle(
                t2[:, idx], coef.reshape(2, -1)[:, idx],
                dyn.reshape(2, -1)[:, idx], idle, tdp_t, nominal, floor)
            t2[:, idx] = f_thr
            power.put(idx, p_thr)
        return np.where(mask, t, 0.0), power

    def _throttle(self, T, C, R3, idle, tdp, nominal, floor):
        """Frequencies and power of TDP-throttled sockets.

        Args:
            T: (2, M) per-task target frequencies of the throttled
               sockets (LC row 0, BE row 1).
            C: (2, M) matching dynamic-power coefficients
               (``cores * activity * core_dynamic_watts``).
            R3: (2, M) their dynamic power at the targets,
               ``C * (T / nominal) ** 3``.

        Returns ``(f, p)``: the (2, M) frequencies and (M,) power at
        the exact frequency scale the scalar bisection settles on.
        """
        scale = self._BISECT_SCALE
        budget = tdp - idle
        floor_cube = (floor / nominal) ** 3

        def at(kk):
            """The scalar loop's step at grid point kk / 2**40:
            ``(over TDP, frequencies, power)``."""
            f = np.maximum(floor, T * (kk / scale))
            p = idle + (C[0] * (f[0] / nominal) ** 3
                        + C[1] * (f[1] / nominal) ** 3)
            return p > tdp, f, p

        # Analytic root estimate of idle + sum C*(max(floor, T*m)/nom)^3
        # = tdp over its three clamp pieces (estimate only; exactness
        # comes from the grid probes below).
        mb = np.where(C > 0, floor / T, 0.0)   # per-task clamp threshold
        m_hi = np.maximum(mb[0], mb[1])
        m_lo = np.minimum(mb[0], mb[1])
        with np.errstate(divide="ignore", invalid="ignore"):
            r1 = np.cbrt(budget / (R3[0] + R3[1]))      # no task clamped
            big0 = mb[0] >= mb[1]
            const = np.where(big0, C[0], C[1]) * floor_cube
            r2 = np.cbrt((budget - const)
                         / np.where(big0, R3[1], R3[0]))  # one clamped
        flat = (C[0] + C[1]) * floor_cube              # both clamped
        m_est = np.where(
            r1 >= m_hi, r1,
            np.where(r2 >= m_lo, np.minimum(r2, m_hi),
                     np.where(flat > budget, 0.0, m_lo)))
        # Map nan -> 0, -inf -> 0, +inf -> 1 and clamp to [0, 1]: fmax
        # drops a nan for its other operand.  floor() of [0, scale] is
        # non-negative, so only the top of the grid needs a clamp.
        m_est = np.minimum(np.fmax(m_est, 0.0), 1.0)
        k0 = np.minimum(np.floor(m_est * scale), scale - 1.0)
        # Probe the grid around the estimate; the answer is the k with
        # over(k) false and over(k+1) true (flip point), or 0 when even
        # a zero scale exceeds TDP.  The estimate is almost always
        # exact, so the two extra probes run only when it is not.
        p0, f0, power0 = at(k0)
        p1 = at(k0 + 1.0)[0]
        kk = np.where(~p0 & p1, k0, -1.0)
        kk = np.where((k0 == 0.0) & p0, 0.0, kk)
        if (kk < 0).any():
            pm1 = at(k0 - 1.0)[0]
            p2 = at(k0 + 2.0)[0]
            kk = np.where(kk < 0,
                          np.where(~pm1 & p0, k0 - 1.0,
                                   np.where(~p1 & p2, k0 + 1.0, -1.0)),
                          kk)
            unresolved = kk < 0
            if unresolved.any():
                kk = np.where(unresolved,
                              self._bisect_scale_exact(T, C, idle, tdp,
                                                       nominal, floor), kk)
            return at(kk)[1:]
        return f0, power0   # every socket settled on k0

    @staticmethod
    def _bisect_scale_exact(T, C, idle, tdp, nominal, floor):
        """The literal 40-iteration scalar bisection (fallback path)."""
        m = T.shape[1]
        lo = np.zeros(m)
        hi = np.ones(m)
        for _ in range(40):
            mid = (lo + hi) / 2.0
            f = np.maximum(floor, T * mid)
            p = idle + (C[0] * (f[0] / nominal) ** 3
                        + C[1] * (f[1] / nominal) ** 3)
            over = p > tdp
            hi = np.where(over, mid, hi)
            lo = np.where(over, lo, mid)
        return lo * BatchColocationSim._BISECT_SCALE

    def _resolve_memory(self, mask, uncached_s, miss_s, throttle,
                        be_running):
        """Per-socket DRAM sharing, saturation delay, and counters.

        Takes the class-stacked (2, S, N) core ``mask`` and demands;
        sockets are (S, N) rows below.
        """
        cap = self._dram_cap  # scalar, or (N,) on a heterogeneous batch
        if self._chaos is not None:
            # Straggler derate on the per-member channel capacity (the
            # scalar engine sets MemoryController.capacity_gbps to the
            # same ``stock * derate`` product).
            cap = cap * self._chaos_derate
        knee, gain = 0.88, 0.10  # MemoryController defaults

        bw = uncached_s + miss_s
        inc = (bw > 0) | mask
        inc[1] &= be_running
        dem = np.where(inc, bw, 0.0)
        be_dem = _socket_fold(np.add, dem[1])   # offered: unthrottled
        # MBA throttles BE's requests.  The factor is finite and >= 0,
        # so an excluded socket's 0 stays an exact 0.  (The scalar
        # path multiplies the LC demand by its 1.0 throttle, the
        # identity, so it is dropped here.)
        dem[1] *= throttle
        total = dem[0] + dem[1]
        fits = total <= cap
        scale = np.where(fits, 1.0, cap / np.where(fits, 1.0, total))
        achieved_total = np.where(fits, total, cap)
        util = np.minimum(1.0, achieved_total / cap)

        rho = np.minimum(util, 0.995)
        below = rho <= knee
        excess = (rho - knee) / (1.0 - knee)
        queueing = np.minimum(5.0, gain * excess / (1.0 - rho))
        delay = np.where(below, 1.0 + 0.05 * (rho / knee), 1.05 + queueing)
        oversub = np.maximum(0.0, total / cap - 1.0)
        delay = delay + 6.0 * oversub

        # Accumulate across sockets (offered demand is unthrottled; the
        # delay factor is the per-task max).  Socket-axis sums add in
        # socket order and excluded sockets contribute exact zeros, so
        # this reproduces the scalar per-socket accumulation loop.
        return {
            "lc_delay": np.maximum(1.0, _socket_fold(
                np.maximum, np.where(inc[0], delay, 1.0))),
            "be_dem": be_dem,
            "be_ach": _socket_fold(np.add, dem[1] * scale),
            "total_gbps": _socket_fold(np.add, achieved_total),
            "max_util": _socket_fold(np.maximum, util),
            "worst_socket_gbps": _socket_fold(np.maximum, achieved_total),
        }

    def _resolve_network(self, net, ceil):
        """Weighted max-min egress sharing with per-class HTB ceilings.

        A faithful vector transcription of :meth:`EgressLink.resolve`
        for the two-flow case, class-stacked: ``net`` and ``ceil`` are
        (2, N) demands (BE's 0 where it does not run) and ceilings
        (LC's inf: the LC class is never ceiled).  Flow counts are the
        weights, allocations are capped at min(demand, ceil), leftover
        capacity redistributes until the link is full or every active
        flow is satisfied.  Returns the (2, N) allocations.
        """
        lim = np.minimum(net, ceil)
        flows = self._net_flows2
        alloc = np.zeros_like(lim)
        capacity = self._nic_link  # scalar, or (N,): broadcasts alike
        active = lim > 0
        live = True  # every member, until the first round narrows it
        for _ in range(3):  # len(demands) + 1 rounds, as the scalar loop
            live = live & (active[0] | active[1]) & (capacity > 1e-12)
            if not live.any():
                break
            weight = flows * active
            wsum = np.where(live, weight[0] + weight[1], 1.0)
            take = np.where(live & active, np.minimum(
                (capacity * flows) / wsum, lim - alloc), 0.0)
            alloc = alloc + take
            spent = take[0] + take[1]
            capacity = np.where(live, capacity - spent, capacity)
            active = active & ((lim - alloc) > 1e-12)
            live = live & (spent > 1e-12)
        return alloc


# ----------------------------------------------------------------------
# Heracles on a batch: the vector controller
# ----------------------------------------------------------------------


class _VecHeracles:
    """Algorithms 1-4 as one masked array program over the membership.

    Every branch of the scalar controllers becomes a boolean member
    mask; every early ``return`` narrows the mask for the statements
    below it.  Periods are shared scalars — all members' controllers
    are created before the first tick and therefore step in lockstep —
    and every float expression preserves the scalar code's operation
    order, so the cascade is a bit-identical replica of N independent
    :class:`HeraclesController` instances.
    """

    def __init__(self, sim: BatchColocationSim, model_segments, config,
                 managed: np.ndarray):
        from ..core.power import guaranteed_frequency_ghz
        config.validate()
        self.sim = sim
        self.cfg = config
        n = sim.n
        spec = sim.spec
        # Members the controller may act on; None means all of them.
        # An unmanaged member's masks can never reach an actuator,
        # exactly as a member with no controller.
        self._man = None if bool(managed.all()) else managed
        # Per-member control targets (clusters differ in SLO, offline
        # calibration, and DRAM/NIC capacity; every structural scalar
        # is shared by the batch's merge contract).  The SLO vector is
        # the controller's own copy: retargeting it (the cluster
        # coordinator) moves the goalposts, not the physics'
        # slo_fraction.
        self.slo_ms = sim._lc["slo_ms"].copy()
        g = np.empty(n)
        memo: Dict[int, float] = {}
        for i, w in enumerate(sim._lcs):
            key = id(w)
            if key not in memo:
                memo[key] = guaranteed_frequency_ghz(w)
            g[i] = memo[key]
        self.guaranteed_ghz = g
        self.sockets = max(1, spec.sockets)
        self.total_cores = spec.total_cores
        self.tdp_watts = spec.socket.tdp_watts
        # Scalars, or (N,) columns on a heterogeneous batch.
        self.link_gbps = sim._nic_link
        self.dram_limit = config.dram_limit_fraction * sim._dram_cap
        #: ``(slice, LcDramBandwidthModel)`` pairs: the offline model
        #: each managed member range shares.
        self.model_segments = list(model_segments)

        # ControlState columns.
        self.slack = np.ones(n)
        self.load = np.zeros(n)
        self.growth = np.ones(n, dtype=bool)
        self.cooldown_until = np.zeros(n)
        self.phase_llc = np.ones(n, dtype=bool)  # GrowthPhase.GROW_LLC
        # Subcontroller period clocks (shared: lockstep construction).
        self._last_poll_s: Optional[float] = None
        self._last_cm_s: Optional[float] = None
        self._last_pw_s: Optional[float] = None
        self._last_net_s: Optional[float] = None
        # Core & memory internals.
        self._last_bw = np.zeros(n)
        self._has_last_bw = False
        self._bw_deriv = np.zeros(n)
        self._pending = np.zeros(n, dtype=bool)
        self._p_prev_ways = np.zeros(n, dtype=np.int64)
        self._p_thr_before = np.zeros(n)
        self._p_slack_before = np.zeros(n)
        self._sbg = np.zeros(n)
        self._sbg_active = np.zeros(n, dtype=bool)
        self._last_slack_drop = np.zeros(n)
        self._llc_slack_drop = np.zeros(n)

    def manages(self, index: int) -> bool:
        """Whether member ``index`` runs under this controller."""
        return self._man is None or bool(self._man[index])

    def _gate(self, mask: np.ndarray) -> np.ndarray:
        """Restrict an actuation mask to managed members.

        Chaos ``enable_be`` events can switch on BE work for unmanaged
        members, so "has an enabled BE group" does not imply "managed";
        every controller write must stay off an unmanaged member.
        """
        return mask if self._man is None else mask & self._man

    # -- Shared measurements -------------------------------------------

    @cached_property
    def _model_groups(self) -> list:
        """The offline models grouped by grid axes, for one vector pass
        per group: ``(members, loads, ways, tables, base, scale)`` with
        every model's table stacked flat in ``tables`` and, per member,
        its model's offset there and its scale."""
        groups: Dict[tuple, list] = {}
        for sl, model in self.model_segments:
            gl = np.asarray(model.loads, dtype=float)
            gw = np.asarray(model.ways, dtype=float)
            g = groups.setdefault((gl.tobytes(), gw.tobytes()),
                                  [[], gl, gw, [], [], []])
            members = np.arange(self.sim.n)[sl]
            g[0].append(members)
            g[4].append(np.full(len(members), len(g[3]) * gl.size * gw.size))
            g[3].append(np.asarray(model.bandwidth_gbps, dtype=float))
            g[5].append(np.full(len(members), model.scale))
        return [(np.concatenate(m), gl, gw, np.concatenate(t, axis=None),
                 np.concatenate(base), np.concatenate(scale))
                for m, gl, gw, t, base, scale in groups.values()]

    def _predict_lc_bw(self, load: np.ndarray,
                       lc_ways: np.ndarray) -> np.ndarray:
        """Vector twin of ``LcDramBandwidthModel.predict_gbps``.

        Evaluated per model group (see ``_model_groups``); unmanaged
        gaps stay 0 and are never read — every consumer mask is gated
        to managed members.
        """
        out = np.zeros(self.sim.n)
        for members, gl, gw, tables, base, scale in self._model_groups:
            lo = np.minimum(gl[-1], np.maximum(gl[0], load[members]))
            w = np.minimum(gw[-1], np.maximum(
                gw[0], lc_ways[members].astype(float)))
            li = np.minimum(np.maximum(
                np.searchsorted(gl, lo, side="left") - 1, 0), len(gl) - 2)
            wi = np.minimum(np.maximum(
                np.searchsorted(gw, w, side="left") - 1, 0), len(gw) - 2)
            lf = (lo - gl[li]) / (gl[li + 1] - gl[li])
            wf = (w - gw[wi]) / (gw[wi + 1] - gw[wi])
            # table[li, wi] and its three neighbours, by flat index.
            cols = len(gw)
            at = base + li * cols + wi
            value = ((1 - lf) * (1 - wf) * tables.take(at)
                     + lf * (1 - wf) * tables.take(at + cols)
                     + (1 - lf) * wf * tables.take(at + 1)
                     + lf * wf * tables.take(at + cols + 1))
            out[members] = value * scale
        return out

    def _current_slack(self, now_s: float) -> np.ndarray:
        """CoreMemoryController.current_slack, for every member at once."""
        latency = self.sim._vmon.recent_latency_ms(
            now_s, span_s=self.cfg.core_mem_period_s)
        if latency is None:
            return self.slack
        return (self.slo_ms - latency) / self.slo_ms

    # -- The grouped control step --------------------------------------

    def step(self, now_s: float) -> None:
        """One control tick: Algorithms 1-4 in the facade's order."""
        self._top_level(now_s)
        self._core_memory(now_s)
        self._power(now_s)
        self._network(now_s)
    def _top_level(self, now_s: float) -> None:
        cfg = self.cfg
        if (self._last_poll_s is not None
                and now_s - self._last_poll_s < cfg.poll_period_s):
            return
        self._last_poll_s = now_s
        latency, load = self.sim._vmon.poll(now_s)
        if latency is None or load is None:
            return  # not enough samples yet
        slack = (self.slo_ms - latency) / self.slo_ms
        self.slack = slack
        self.load = load

        sim = self.sim
        viol = slack < 0
        sim._v_disable(self._gate(viol))
        self.growth &= ~viol
        self.cooldown_until = np.where(
            viol, np.maximum(self.cooldown_until, now_s + cfg.cooldown_s),
            self.cooldown_until)
        rest = ~viol
        high = rest & (load > cfg.load_disable_threshold)
        sim._v_disable(self._gate(high))
        self.growth &= ~high
        rest = rest & ~high
        enable = self._gate(rest & (load < cfg.load_enable_threshold)
                            & ~(now_s < self.cooldown_until))
        sim._v_enable(enable)
        # Slack guards (unconditional on load; see top_level.py note).
        low = rest & (slack < cfg.slack_no_growth)
        self.growth &= ~low
        cut = self._gate(low & (slack < cfg.slack_cut_cores)
                         & sim._act_enabled)
        if cut.any():
            excess = sim.be_cores_now() - cfg.be_cores_floor
            sim._v_remove_cores(cut & (excess > 0), excess)
        self.growth |= rest & ~low

    def _core_memory(self, now_s: float) -> None:
        cfg = self.cfg
        if (self._last_cm_s is not None
                and now_s - self._last_cm_s < cfg.core_mem_period_s):
            return
        self._last_cm_s = now_s
        sim = self.sim
        tick = sim._tick

        # MeasureDRAMBw(): busiest-socket traffic + derivative.
        bw = tick["worst_socket_dram_gbps"]
        if self._has_last_bw:
            self._bw_deriv = bw - self._last_bw
        self._last_bw = bw
        self._has_last_bw = True

        cores = sim.be_cores_now()
        be_dram = np.where(tick["be_running"], tick["be_dram_ach"], 0.0)
        per_core = alg2.be_bw_per_core_gbps(be_dram, cores)

        # Hard constraint 1: never saturate DRAM.
        m1 = self._gate((bw > self.dram_limit) & (cores > 0))
        if m1.any():
            sim._v_remove_cores(m1, alg2.overage_cores(
                bw, self.dram_limit, per_core))
            self._pending &= ~m1

        # Hard constraint 2: rising load reclaims LC cores immediately.
        budget = alg2.be_core_budget(self.load, self.total_cores)
        alive = ~m1
        over = cores - budget
        m2 = self._gate(alive & (over > 0))
        if m2.any():
            sim._v_remove_cores(m2, over)
            self._pending &= ~m2
        alive = alive & ~m2

        cs = self._current_slack(now_s)

        # Finish a pending grow-LLC check; others decay their estimates.
        was_pending = self._pending
        mp = alive & was_pending
        if mp.any():
            self._pending = self._pending & ~mp
            self._llc_slack_drop = np.where(
                mp, np.maximum(0.0, self._p_slack_before - cs),
                self._llc_slack_drop)
            rollback = mp & ((cs < cfg.slack_no_growth)
                             | (self._bw_deriv >= 0))
            if rollback.any():
                sim._v_set_split(rollback, self._p_prev_ways)
                self.phase_llc &= ~rollback
            checked = mp & ~rollback
            gain = sim._be_last_norm - self._p_thr_before
            no_benefit = checked & (gain <= cfg.be_benefit_epsilon
                                    * np.maximum(1e-9, self._p_thr_before))
            self.phase_llc &= ~no_benefit
        decay = alive & ~was_pending
        for drop in (self._last_slack_drop, self._llc_slack_drop):
            np.multiply(drop, alg2.SLACK_DROP_DECAY, out=drop, where=decay)

        # CanGrowBE(): enabled, growth allowed, no cooldown.
        grow = self._gate(alive & sim._act_enabled & self.growth
                          & ~(now_s < self.cooldown_until))
        if not grow.any():
            return
        cores = sim.be_cores_now()  # hard constraints may have removed
        lc_model = (self._predict_lc_bw(self.load, sim._act_lc_ways)
                    / self.sockets)
        be_bw = be_dram / self.sockets

        # GROW_LLC arm.
        gl = grow & self.phase_llc
        if gl.any():
            slack = np.minimum(self.slack, cs)
            g1 = gl & ~(slack < alg2.growth_threshold(cfg))
            pre = g1 & alg2.pre_violation(slack, self._llc_slack_drop, cfg)
            self.phase_llc &= ~pre
            g2 = g1 & ~pre
            predicted = (lc_model + be_bw) + self._bw_deriv
            blocked = g2 & (predicted > self.dram_limit)
            self.phase_llc &= ~blocked
            g3 = g2 & ~blocked
            if g3.any():
                prev = sim._act_be_ways.copy()
                full = g3 & (sim._act_be_ways + 1
                             > self.sim.spec.socket.llc_ways - 1)
                self.phase_llc &= ~full
                ok = g3 & ~full
                if ok.any():
                    sim._v_set_split(ok, sim._act_be_ways + 1)
                    self._pending |= ok
                    np.copyto(self._p_prev_ways, prev, where=ok)
                    np.copyto(self._p_thr_before, sim._be_last_norm,
                              where=ok)
                    np.copyto(self._p_slack_before, slack, where=ok)

        # GROW_CORES arm.
        gc = grow & ~self.phase_llc & ~gl
        if gc.any():
            needed = (lc_model + be_bw) + per_core
            dram_blocked = gc & (needed > self.dram_limit)
            self.phase_llc |= dram_blocked
            t = gc & ~dram_blocked
            if t.any():
                slack = np.minimum(self.slack, cs)
                upd = t & self._sbg_active
                self._last_slack_drop = np.where(
                    upd, np.maximum(0.0, self._sbg - cs),
                    self._last_slack_drop)
                self._sbg_active = self._sbg_active & ~t
                t1 = t & ~(slack <= alg2.growth_threshold(cfg))
                exhausted = t1 & (budget - cores <= 0)
                self.phase_llc |= exhausted
                t2 = t1 & ~exhausted
                t3 = t2 & ~alg2.pre_violation(slack, self._last_slack_drop,
                                              cfg)
                granted = t3 & (sim._act_cores < sim._max_be_cores)
                if granted.any():
                    np.add(sim._act_cores, 1, out=sim._act_cores,
                           where=granted)
                    np.copyto(self._sbg, cs, where=granted)
                    self._sbg_active |= granted

    def _power(self, now_s: float) -> None:
        cfg = self.cfg
        if (self._last_pw_s is not None
                and now_s - self._last_pw_s < cfg.power_period_s):
            return
        self._last_pw_s = now_s
        sim = self.sim
        # max over sockets of rapl/tdp == rapl.max/tdp (division by a
        # positive scalar is monotone, so the max commutes bitwise).
        power_fraction = (_socket_fold(np.maximum, sim._rapl_watts)
                          / self.tdp_watts)
        ls_freq = sim._tick["lc_freq_ghz"]
        threshold = cfg.power_tdp_threshold
        lower = self._gate((power_fraction > threshold)
                           & (ls_freq < self.guaranteed_ghz)
                           & (sim.be_cores_now() > 0))
        raise_ = self._gate((power_fraction <= threshold)
                            & (ls_freq >= self.guaranteed_ghz))
        # Every cap write below max turbo — a one-step lower or raise
        # here, a lower_be_frequency event — is a TurboSpec.clamp_ghz
        # result, so the cap sits on the ladder and its index is an
        # exact lookup.
        ladder = sim._cap_ladder
        idx = np.searchsorted(ladder, sim._act_cap)
        np.copyto(sim._act_cap, ladder.take(sim._cap_down.take(idx)),
                  where=lower)
        np.copyto(sim._act_cap, ladder.take(sim._cap_up.take(idx)),
                  where=raise_)

    def _network(self, now_s: float) -> None:
        cfg = self.cfg
        if (self._last_net_s is not None
                and now_s - self._last_net_s < cfg.network_period_s):
            return
        self._last_net_s = now_s
        sim = self.sim
        link = self.link_gbps
        budget = be_net_budget_gbps(link, sim._tick["lc_net_ach"], cfg)
        # set_be_net_ceil(max(0, budget)), then the HTB clamp to the
        # link rate — max(0, max(0, x)) collapses.
        ceil = np.minimum(np.maximum(0.0, budget), link)
        if self._man is None:
            sim._act_ceil = ceil
        else:
            sim._act_ceil = np.where(self._man, ceil, sim._act_ceil)



# ----------------------------------------------------------------------
# Vectorized physics helpers
# ----------------------------------------------------------------------


def _socket_fold(op, x: np.ndarray) -> np.ndarray:
    """``op.reduce`` over the socket axis of an (S, N) or (2, S, N)
    array (``op``: ``np.add``/``np.maximum``), bit for bit equal to
    reducing each member's contiguous row of S sockets.

    A left fold over socket rows costs S - 1 full-width ops.  A max is
    exact in any order; NumPy adds a row of fewer than 8 elements left
    to right (pairwise summation starts at 8), so a wider sum reduces a
    contiguous transposed copy to keep NumPy's order.
    """
    if op is np.add and x.shape[-2] >= 8:
        return np.ascontiguousarray(np.swapaxes(x, -1, -2)).sum(axis=-1)
    acc = x[..., 0, :]
    for s in range(1, x.shape[-2]):
        acc = op(acc, x[..., s, :])
    return acc


def _weighted_freq(freq_s, cores_s, count, total) -> np.ndarray:
    """Core-weighted mean frequency per class, (2, N), in socket order.

    ``freq_s``/``cores_s`` are (2, S, N); ``count`` (2, 1, N) holds
    each class's core total and ``total`` the same with 0 raised to 1.
    The accumulation starts from socket 0's product instead of a zero
    array — identical bits (frequencies and core counts are
    non-negative, so ``0.0 + x == x`` exactly) — and always folds left,
    as the scalar loop adds.
    """
    prod = freq_s * cores_s
    acc = prod[:, 0]
    for s in range(1, prod.shape[1]):
        acc = acc + prod[:, s]
    return np.where(count[:, 0] > 0, acc / total[:, 0], 0.0)


def _resolve_partition(part_mb, mask_s, hot_s, bulk_s, access_s,
                       hot_frac, cold_frac, bulk_reuse):
    """Steady-state occupancy of one task alone in one CAT partition.

    Class-stacked: ``part_mb`` and the statics are (2, 1, N), the rest
    (2, S, N).  With a single resident task the scalar waterfill
    reduces to ``occupancy = min(partition, footprint)``; coverage and
    hit fraction follow :func:`repro.hardware.cache.resolve_occupancy`
    exactly.  Cross-socket merging replicates the scalar engine's
    sequential rule: first socket sets the values, later sockets
    average coverage and sum occupancy.

    Returns ``((hit, hot_cov, bulk_cov), miss_gbps_per_socket)``: three
    (2, N) arrays and a (2, S, N) one.
    """
    occ_s = np.minimum(part_mb, hot_s + bulk_s)
    has = hot_s > 0
    hot_cov_s = np.where(has, np.minimum(
        1.0, occ_s / np.where(has, hot_s, 1.0)), 1.0)
    left_s = np.maximum(0.0, occ_s - hot_s)
    has = bulk_s > 0
    bulk_cov_s = np.where(has, np.minimum(
        1.0, left_s / np.where(has, bulk_s, 1.0)), 1.0)
    hit_s = np.minimum(1.0, hot_frac * hot_cov_s
                       + cold_frac * bulk_cov_s * bulk_reuse)
    miss_s = np.where(mask_s, access_s * (1.0 - hit_s), 0.0)

    # Cross-socket merge of all three quantities at once: the first
    # included socket sets the value, each later one averages into it.
    v = np.array((hit_s, hot_cov_s, bulk_cov_s))            # (3, 2, S, N)
    out = np.where(mask_s[:, 0], v[:, :, 0], 1.0)
    seen = mask_s[:, 0]
    for s in range(1, mask_s.shape[1]):
        m, v_s = mask_s[:, s], v[:, :, s]
        out = np.where(m, np.where(seen, (out + v_s) / 2, v_s), out)
        seen = seen | m
    return out, miss_s


def _queue_tail_ms(servers, service_ms, qps, tail_mult, tail_mass, k):
    """Vectorized :meth:`QueueModel.tail_latency_ms` (M/M/k + pools).

    ``k`` is the per-pool server count (precomputed from the integer
    core count, see ``_k_table``).  The Erlang-B recurrence runs
    unmasked to the largest ``k`` in the batch, keeping every step's
    row, and each member reads its own step ``k`` back in one gather —
    the very steps of the scalar iteration.
    """
    rho = (qps * (service_ms / 1000.0)) / servers
    service_tail = tail_mult * service_ms

    stable = np.minimum(rho, 0.995)
    offered = stable * k
    # Erlang-B recurrence, then Erlang-C.
    n = len(k)
    steps = np.empty((int(k.max()) + 1, n))
    b = np.ones_like(offered)
    for i in range(1, len(steps)):
        t = offered * b
        b = np.divide(t, i + t, out=steps[i])
    b = steps.take(k * n + np.arange(n))
    rho_e = offered / k
    c = b / ((1.0 - rho_e) + rho_e * b)
    p_wait = np.where(offered == 0, 0.0,
                      np.minimum(1.0, np.maximum(0.0, c)))
    waits = p_wait > tail_mass
    log_arg = np.where(waits, p_wait / tail_mass, 1.0)
    wait = np.where(waits,
                    service_ms / (k * (1.0 - stable)) * np.log(log_arg),
                    0.0)
    overload = np.where(rho > 0.995,
                        service_ms * k * 40.0 * (rho - 0.995), 0.0)
    return np.where(rho <= 0, service_tail, service_tail + wait + overload)


def _net_latency_factor(net_demand, satisfaction, net_gain):
    """Vectorized :func:`repro.perf.interference.network_latency_factor`."""
    shortfall = 1.0 - satisfaction
    ratio = 1.0 / np.maximum(1e-3, satisfaction)
    factor = np.minimum(
        1.0 + net_gain * (ratio - 1.0) + 25.0 * (ratio - 1.0) ** 2, 60.0)
    return np.where((net_demand <= 0) | (shortfall <= 1e-9), 1.0, factor)
