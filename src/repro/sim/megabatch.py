"""The fleet engine: cluster slices as heterogeneous array programs.

Every fleet run goes through :class:`MegaFleetSim`.  Its input is a
list of cluster *slices* (contiguous leaf ranges of cluster plans);
the fleet layer (:mod:`repro.fleet.simulator`) decides only how leaves
are packed onto it — whole clusters in one in-process unit
(``engine="mega"``), or shards packed into one unit per pool worker
(``engine="sharded"``).  Within a unit, structurally compatible slices
are *merged* into one membership — per-cluster hardware capacities
(DRAM bandwidth, NIC link rate), LC workloads, SLO targets and traces
become per-member broadcast columns and segment slices — and the
Heracles controllers of every managed leaf step together as one
grouped array program over the merged membership, with no per-leaf
Python objects and no per-shard Python tick loops.

Equivalence contract
--------------------

:class:`MegaClusterSim` subclasses :class:`~repro.sim.batch.
BatchColocationSim` and overrides only the member-surface hooks — it
*shares the vectorized physics code path outright*, so tick physics is
bit-identical to the batch engine by construction.  What this module
reimplements as array state is the per-member control plane:

* actuator state (cores, CAT split, DVFS cap, HTB ceiling) as parallel
  arrays, mutated by masked vector transcriptions of each
  :class:`~repro.sim.actuators.Actuators` method;
* latency/throughput monitors as row-per-tick windows sharing the
  segment clock, with window means accumulated in the scalar helpers'
  left-to-right order;
* the four Heracles control loops (Algorithms 1-4) as masked array
  programs whose branch structure mirrors the scalar controllers
  statement for statement;
* the DVFS cap as an index into a precomputed frequency ladder whose
  lower/raise transition tables are built with the *scalar*
  ``clamp_ghz`` (sidestepping any ``np.round`` vs ``round`` drift);
* tail-noise draws prefetched in chunks per member stream
  (``Generator.lognormal(size=k)`` consumes the bitstream exactly as
  ``k`` scalar calls).

``tests/test_fleet.py`` enforces bit-identity of every cluster
roll-up, under every packing, against the monolithic
:class:`~repro.cluster.cluster.WebsearchCluster` batch and scalar
runs.
"""

from __future__ import annotations

import os
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .batch import BatchColocationSim


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


class _VecLatencyMonitor:
    """All of one segment's :class:`LatencyMonitor` deques as row records.

    Members of a segment share the tick clock, so every per-member
    window holds the same timestamps; one deque of ``(t, tails, loads)``
    rows replicates N scalar monitors, and each poll answers for the
    whole segment at once.
    """

    def __init__(self, window_s: float = 15.0, slo_window_s: float = 60.0):
        self.window_s = window_s
        self.slo_window_s = slo_window_s
        self._samples = deque()  # (t_s, tails_ms row, loads row)

    def record(self, t_s: float, tails: np.ndarray,
               loads: np.ndarray) -> None:
        self._samples.append((t_s, tails, loads))
        horizon = max(self.window_s, self.slo_window_s) + 1.0
        while self._samples and self._samples[0][0] < t_s - horizon:
            self._samples.popleft()

    def _window(self, now_s: float, span_s: float) -> list:
        cutoff = now_s - span_s
        out = []
        for sample in reversed(self._samples):
            if sample[0] <= cutoff:
                break
            out.append(sample)
        out.reverse()
        return out

    def observed_spacing_s(self) -> Optional[float]:
        if len(self._samples) < 2:
            return None
        spacing = self._samples[-1][0] - self._samples[-2][0]
        return spacing if spacing > 0 else None

    def poll(self, now_s: float):
        """(latency, load) vectors over the control window, or (None,)*2."""
        window = self._window(now_s, self.window_s)
        if not window:
            return None, None
        return (_seq_mean([s[1] for s in window]),
                _seq_mean([s[2] for s in window]))

    def recent_latency_ms(self, now_s: float,
                          span_s: float) -> Optional[np.ndarray]:
        """Vector twin of :meth:`LatencyMonitor.recent_latency_ms`."""
        window = self._window(now_s, span_s)
        spacing = self.observed_spacing_s()
        if (len(window) < 2 and spacing is not None and spacing > span_s
                and now_s - self._samples[-1][0] <= spacing):
            window = [self._samples[-2], self._samples[-1]]
        if not window:
            window = list(self._samples)[-1:]
        if not window:
            return None
        return _seq_mean([s[1] for s in window])


def _dvfs_ladder(turbo):
    """The reachable BE DVFS cap values plus lower/raise transitions.

    Returns ``(ladder, down, up)``: ``ladder`` is the ascending array
    of cap frequencies reachable through
    :meth:`~repro.sim.actuators.Actuators.lower_be_frequency` /
    ``raise_be_frequency``; index ``len(ladder)`` is the sentinel for
    "no cap" (None).  ``down[i]`` / ``up[i]`` map a cap index to its
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
    return np.array(ladder), down, up


class MegaClusterSim(BatchColocationSim):
    """One merged group of fleet slices as a memberless array program.

    A :class:`BatchColocationSim` heterogeneous across clusters
    (per-member specs, LC workloads, traces) — but with *no* per-member
    Python objects: the
    member-surface hooks are overridden with array-state
    implementations, and Heracles (when attached via
    :meth:`attach_vec_heracles`) steps as grouped array ops over the
    merged membership.  Construction cost is O(distinct workloads),
    not O(members).
    """

    def __init__(self, lc, trace, bes, spec=None, seeds=None,
                 min_lc_cores: int = 1, specs=None):
        super().__init__(lc=lc, trace=trace, bes=bes, spec=spec,
                         seeds=seeds, min_lc_cores=min_lc_cores,
                         record_history=False, specs=specs)
        lcs, traces, be_list, seed_list, _ = self._mega_args
        del self._mega_args
        n = self.n
        spec = self.spec
        total_ways = spec.socket.llc_ways
        self._traces = traces
        self._lcs = lcs
        # Contiguous runs sharing one trace object (one run per cluster
        # when the fleet merges its plans into this engine) answer the
        # offered-load query with a single scalar evaluation per run.
        trace_groups = []
        start = 0
        for i in range(1, n + 1):
            if i == n or traces[i] is not traces[start]:
                trace_groups.append((slice(start, i), traces[start]))
                start = i
        self._trace_groups = trace_groups

        # -- Vector actuator state (the Actuators field set as arrays) --
        self._act_enabled = np.zeros(n, dtype=bool)
        self._act_cores = np.zeros(n, dtype=np.int64)       # raw _be_cores
        self._act_lc_ways = np.full(n, total_ways, dtype=np.int64)
        self._act_be_ways = np.zeros(n, dtype=np.int64)
        self._act_throttle = np.ones(n)
        self._act_ceil = np.full(n, np.inf)
        ladder, down, up = _dvfs_ladder(spec.socket.turbo)
        self._cap_ladder = ladder
        self._cap_ladder_ext = np.append(ladder, np.inf)
        self._cap_down = down
        self._cap_up = up
        self._cap_none = len(ladder)
        self._act_cap_idx = np.full(n, self._cap_none, dtype=np.int64)
        self._min_lc_cores = min_lc_cores
        self._max_be_cores = spec.total_cores - min_lc_cores
        self._min_lc_llc_ways = 1
        # enable_be's initial grant (Actuators.initial_be_llc_fraction).
        self._initial_be_ways = max(1, round(0.10 * total_ways))

        # -- Vector monitors ------------------------------------------------
        self._vmon = _VecLatencyMonitor()
        from ..workloads.best_effort import reference_throughput_units
        refs = np.zeros(n)
        memo: Dict[int, float] = {}
        for i, be in enumerate(be_list):
            if be is None:
                continue
            key = id(be)
            if key not in memo:
                memo[key] = reference_throughput_units(be)
            refs[i] = memo[key]
        self._be_ref_safe = np.where(refs > 0, refs, 1.0)
        self._be_last_norm = np.zeros(n)

        # -- Tail-noise streams, prefetched in chunks ----------------------
        sigmas = np.asarray(self._noise_sigmas)
        self._noise_idx = np.nonzero(sigmas > 0)[0]
        self._noise_all = len(self._noise_idx) == n
        self._noise_rngs = [np.random.default_rng(seed_list[i])
                            for i in self._noise_idx]
        self._noise_chunk: Optional[np.ndarray] = None
        self._noise_pos = 0

        self._vec_controller: Optional[_VecHeracles] = None
        # The fleet driver collects (T, N) telemetry itself; the
        # per-tick column-store append would be dead weight.
        self._record_ticks = False

    # -- Member-surface hooks, as array state ---------------------------

    def _build_members(self, lcs, traces, be_list, seed_list,
                       min_lc_cores) -> list:
        # Stash the broadcast argument lists for our own __init__ (the
        # base constructor broadcasts and validates them for us); the
        # member list itself stays empty — there are no member objects.
        self._mega_args = (lcs, traces, be_list, seed_list, min_lc_cores)
        return []

    def _offered_load(self) -> np.ndarray:
        if self._shared_trace is not None:
            return np.full(self.n, self._shared_trace.clipped(self.time_s))
        out = np.empty(self.n)
        for sl, trace in self._trace_groups:
            out[sl] = trace.clipped(self.time_s)
        return out

    def _gather_actuator_state(self):
        be_eff = np.where(self._act_enabled, self._act_cores, 0)
        dvfs_cap = self._cap_ladder_ext[self._act_cap_idx]
        return (self._act_enabled, be_eff, self._act_lc_ways,
                self._act_be_ways, dvfs_cap, self._act_throttle,
                self._act_ceil)

    def _tail_noise_factors(self) -> Optional[np.ndarray]:
        if not self._any_noise:
            return None
        if self._noise_chunk is None or self._noise_pos >= len(
                self._noise_chunk):
            # One chunked draw per member stream: a Generator fills an
            # array by repeating the scalar sampling routine, so k
            # prefetched draws consume the stream exactly as k scalar
            # lognormal() calls by the matching BatchMember rng.
            chunk = np.empty((1024, len(self._noise_idx)))
            for j, i in enumerate(self._noise_idx):
                chunk[:, j] = self._noise_rngs[j].lognormal(
                    mean=0.0, sigma=self._noise_sigmas[i], size=1024)
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
        self._vmon.record(self.time_s, tail, load)
        # ThroughputMonitor.record: ((units * dt) / dt) / reference,
        # updated only where the BE group ran this tick.
        norm = ((be_units * dt_s) / dt_s) / self._be_ref_safe
        self._be_last_norm = np.where(be_running, norm, self._be_last_norm)
        return np.where(be_running, self._be_last_norm, 0.0)

    def _step_controllers(self) -> None:
        if self._vec_controller is not None:
            self._vec_controller.step(self.time_s)

    # -- Controller attachment ------------------------------------------

    def attach_vec_heracles(self, dram_model=None, config=None,
                            model_segments=None,
                            managed=None) -> "_VecHeracles":
        """Attach one grouped Heracles instance over the membership.

        Mirrors :meth:`HeraclesController.for_sim` per member: same
        config defaults, same offline guaranteed-frequency measurement,
        same hot-working-set floor on the LC cache partition.  A
        single-cluster engine passes one ``dram_model``; the merged
        fleet engine passes ``model_segments`` — ``(slice, model)``
        pairs covering each managed cluster's member range — plus a
        boolean ``managed`` mask gating which members' controllers may
        act (an unmanaged cluster's members never enable BE work, just
        as leaves without a controller never do in the batch engine).
        """
        from ..core.config import HeraclesConfig
        config = config or HeraclesConfig()
        if model_segments is None:
            model_segments = [(slice(0, self.n), dram_model)]
        spec = self.spec
        mb_per_way = spec.socket.llc_mb / spec.socket.llc_ways
        floors = np.ones(self.n, dtype=np.int64)
        memo: Dict[int, int] = {}
        for i, w in enumerate(self._lcs):
            key = id(w)
            if key not in memo:
                hot_per_socket = w.profile.hot_mb / spec.sockets
                floor = min(spec.socket.llc_ways - 1,
                            int(hot_per_socket / mb_per_way) + 2)
                memo[key] = max(1, floor)
            floors[i] = memo[key]
        if managed is not None:
            # for_sim mutates only the actuators it attaches to, so an
            # unmanaged leaf keeps the Actuators default floor of 1 in
            # the batch engine; mirror that here (a chaos set_llc_split
            # is the one writer that can reach an unmanaged member).
            floors = np.where(np.asarray(managed, dtype=bool), floors, 1)
        self._min_lc_llc_ways = floors
        self._vec_controller = _VecHeracles(self, model_segments, config,
                                            managed)
        return self._vec_controller

    # -- Vector actuator operations (masked Actuators transcriptions) ---

    def _v_set_split(self, mask: np.ndarray, be_ways) -> None:
        """set_llc_split under ``mask`` (``be_ways`` scalar or array)."""
        bound = self.spec.socket.llc_ways - self._min_lc_llc_ways
        ways = np.clip(be_ways, 0, bound)
        self._act_be_ways[mask] = ways[mask] if np.ndim(ways) else ways
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
        self._act_cap_idx[mask] = self._cap_none
        self._act_throttle[mask] = 1.0
        self._act_ceil[mask] = np.inf

    def _v_remove_cores(self, mask: np.ndarray, count: np.ndarray) -> None:
        """remove_be_cores under ``mask`` (``count`` integral array)."""
        count = np.asarray(count).astype(np.int64)
        removed = np.minimum(np.maximum(0, count), self._act_cores)
        self._act_cores[mask] = (self._act_cores - removed)[mask]

    def be_cores_now(self) -> np.ndarray:
        """Current be_cores property view (post-controller state)."""
        return np.where(self._act_enabled, self._act_cores, 0)

    # -- Chaos actuator hooks (masked Actuators transcriptions) ---------

    def _chaos_mask(self, indices) -> np.ndarray:
        mask = np.zeros(self.n, dtype=bool)
        mask[list(indices)] = True
        return mask

    def _chaos_disable_be(self, indices) -> None:
        self._v_disable(self._chaos_mask(indices))

    def _chaos_enable_be(self, indices) -> None:
        self._v_enable(self._chaos_mask(indices))

    def _chaos_set_be_cores(self, indices, value: int) -> None:
        # Actuators.set_be_cores: unconditional raw-count write, clamped
        # to keep the LC core minimum.
        clamped = max(0, min(int(value), self._max_be_cores))
        self._act_cores[self._chaos_mask(indices)] = clamped

    def _chaos_set_llc_split(self, indices, value: int) -> None:
        self._v_set_split(self._chaos_mask(indices), int(value))

    def _chaos_set_net_ceil(self, indices, value: float) -> None:
        # HtbQdisc.set_ceil: clamp into [0, link rate] per member.
        mask = self._chaos_mask(indices)
        link = self._nic_link
        ceil = np.minimum(np.maximum(0.0, float(value)),
                          link[mask] if np.ndim(link) else link)
        self._act_ceil[mask] = ceil


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

    def __init__(self, sim: MegaClusterSim, model_segments, config,
                 managed=None):
        from ..core.power import guaranteed_frequency_ghz
        config.validate()
        self.sim = sim
        self.cfg = config
        n = sim.n
        spec = sim.spec
        # Members the controller may act on; None means all of them (a
        # single-cluster engine).  An unmanaged member's masks can never
        # reach an actuator, exactly as a leaf with no controller.
        if managed is None or bool(managed.all()):
            self._man = None
        else:
            self._man = np.asarray(managed, dtype=bool)
        # Per-member control targets (clusters differ in SLO, offline
        # calibration, and DRAM/NIC capacity; every structural scalar
        # is shared by the batch's merge contract).
        self.slo_ms = sim._lc["slo_ms"]
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
        self.link_gbps = sim._nic_link  # scalar, or (N,) heterogeneous
        cap = sim._dram_cap
        self.dram_limit = (config.dram_limit_fraction
                           * (cap[:, 0] if np.ndim(cap) else cap))
        # Plain-array views of the offline model grids (vector twin of
        # LcDramBandwidthModel.predict_gbps), one grid per managed
        # cluster's member range.
        self._model_segments = [
            (sl, np.asarray(model.loads, dtype=float),
             np.asarray(model.ways, dtype=float),
             np.asarray(model.bandwidth_gbps, dtype=float),
             model.scale)
            for sl, model in model_segments]

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

    def _gate(self, mask: np.ndarray) -> np.ndarray:
        """Restrict an actuation mask to managed members.

        Chaos ``enable_be`` events can switch on BE work for unmanaged
        members, so "has an enabled BE group" no longer implies
        "managed" — but in the batch engine an unmanaged leaf has no
        controller at all, so every controller write must stay off it.
        """
        return mask if self._man is None else mask & self._man

    # -- Shared measurements -------------------------------------------

    def _predict_lc_bw(self, load: np.ndarray,
                       lc_ways: np.ndarray) -> np.ndarray:
        """Vector twin of ``LcDramBandwidthModel.predict_gbps``.

        Evaluated per managed cluster segment (each has its own offline
        model grid); unmanaged gaps stay 0 and are never read — every
        consumer mask requires an enabled BE group, which only managed
        members can have.
        """
        out = np.zeros(self.sim.n)
        for sl, gl, gw, table, scale in self._model_segments:
            lo = np.minimum(gl[-1], np.maximum(gl[0], load[sl]))
            w = np.minimum(gw[-1],
                           np.maximum(gw[0], lc_ways[sl].astype(float)))
            li = np.clip(np.searchsorted(gl, lo, side="left") - 1,
                         0, len(gl) - 2)
            wi = np.clip(np.searchsorted(gw, w, side="left") - 1,
                         0, len(gw) - 2)
            lf = (lo - gl[li]) / (gl[li + 1] - gl[li])
            wf = (w - gw[wi]) / (gw[wi + 1] - gw[wi])
            value = ((1 - lf) * (1 - wf) * table[li, wi]
                     + lf * (1 - wf) * table[li + 1, wi]
                     + (1 - lf) * wf * table[li, wi + 1]
                     + lf * wf * table[li + 1, wi + 1])
            out[sl] = value * scale
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
        self.growth[viol] = False
        self.cooldown_until = np.where(
            viol, np.maximum(self.cooldown_until, now_s + cfg.cooldown_s),
            self.cooldown_until)
        rest = ~viol
        high = rest & (load > cfg.load_disable_threshold)
        sim._v_disable(self._gate(high))
        self.growth[high] = False
        rest = rest & ~high
        enable = self._gate(rest & (load < cfg.load_enable_threshold)
                            & ~(now_s < self.cooldown_until))
        sim._v_enable(enable)
        # Slack guards (unconditional on load; see top_level.py note).
        low = rest & (slack < cfg.slack_no_growth)
        self.growth[low] = False
        cut = self._gate(low & (slack < cfg.slack_cut_cores)
                         & sim._act_enabled)
        if cut.any():
            excess = sim.be_cores_now() - cfg.be_cores_floor
            sim._v_remove_cores(cut & (excess > 0), excess)
        self.growth[rest & ~low] = True

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
        safe_cores = np.where(cores > 0, cores, 1)
        per_core = np.where(cores <= 0, 1.0,
                            np.maximum(0.1, be_dram / safe_cores))

        # Hard constraint 1: never saturate DRAM.
        m1 = self._gate((bw > self.dram_limit) & (cores > 0))
        if m1.any():
            to_remove = np.maximum(
                1.0, np.ceil((bw - self.dram_limit) / per_core))
            sim._v_remove_cores(m1, to_remove)
            self._pending &= ~m1

        # Hard constraint 2: rising load reclaims LC cores immediately.
        lc_floor = np.minimum(
            self.total_cores,
            np.ceil((self.load * self.total_cores) * 1.08) + 1)
        budget = np.maximum(0.0, self.total_cores - lc_floor)
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
                self.phase_llc[rollback] = False
            checked = mp & ~rollback
            gain = sim._be_last_norm - self._p_thr_before
            no_benefit = checked & (gain <= cfg.be_benefit_epsilon
                                    * np.maximum(1e-9, self._p_thr_before))
            self.phase_llc[no_benefit] = False
        decay = alive & ~was_pending
        self._last_slack_drop[decay] *= 0.8
        self._llc_slack_drop[decay] *= 0.8

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
            g1 = gl & ~(slack < cfg.slack_no_growth + cfg.growth_guard)
            pre = g1 & (slack - 3.0 * self._llc_slack_drop
                        <= cfg.slack_cut_cores)
            self.phase_llc[pre] = False
            g2 = g1 & ~pre
            predicted = (lc_model + be_bw) + self._bw_deriv
            blocked = g2 & (predicted > self.dram_limit)
            self.phase_llc[blocked] = False
            g3 = g2 & ~blocked
            if g3.any():
                prev = sim._act_be_ways.copy()
                full = g3 & (sim._act_be_ways + 1
                             > self.sim.spec.socket.llc_ways - 1)
                self.phase_llc[full] = False
                ok = g3 & ~full
                if ok.any():
                    sim._v_set_split(ok, sim._act_be_ways + 1)
                    self._pending |= ok
                    self._p_prev_ways[ok] = prev[ok]
                    self._p_thr_before[ok] = sim._be_last_norm[ok]
                    self._p_slack_before[ok] = slack[ok]

        # GROW_CORES arm.
        gc = grow & ~self.phase_llc & ~gl
        if gc.any():
            needed = (lc_model + be_bw) + per_core
            dram_blocked = gc & (needed > self.dram_limit)
            self.phase_llc[dram_blocked] = True
            t = gc & ~dram_blocked
            if t.any():
                slack = np.minimum(self.slack, cs)
                upd = t & self._sbg_active
                self._last_slack_drop = np.where(
                    upd, np.maximum(0.0, self._sbg - cs),
                    self._last_slack_drop)
                self._sbg_active = self._sbg_active & ~t
                t1 = t & ~(slack <= cfg.slack_no_growth + cfg.growth_guard)
                exhausted = t1 & (budget - cores <= 0)
                self.phase_llc[exhausted] = True
                t2 = t1 & ~exhausted
                t3 = t2 & ~(slack - 3.0 * self._last_slack_drop
                            <= cfg.slack_cut_cores)
                granted = t3 & (sim._act_cores < sim._max_be_cores)
                if granted.any():
                    sim._act_cores[granted] += 1
                    self._sbg[granted] = cs[granted]
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
        power_fraction = sim._rapl_watts.max(axis=1) / self.tdp_watts
        ls_freq = sim._tick["lc_freq_ghz"]
        threshold = cfg.power_tdp_threshold
        lower = self._gate((power_fraction > threshold)
                           & (ls_freq < self.guaranteed_ghz)
                           & (sim.be_cores_now() > 0))
        raise_ = self._gate((power_fraction <= threshold)
                            & (ls_freq >= self.guaranteed_ghz))
        idx = sim._act_cap_idx
        idx[lower] = sim._cap_down[idx[lower]]
        idx[raise_] = sim._cap_up[idx[raise_]]

    def _network(self, now_s: float) -> None:
        cfg = self.cfg
        if (self._last_net_s is not None
                and now_s - self._last_net_s < cfg.network_period_s):
            return
        self._last_net_s = now_s
        sim = self.sim
        link = self.link_gbps
        lc_bw = sim._tick["lc_net_ach"]
        headroom = np.maximum(cfg.net_link_headroom * link,
                              cfg.net_lc_headroom * lc_bw)
        budget = (link - lc_bw) - headroom
        # set_be_net_ceil(max(0, budget)), then the HTB clamp to the
        # link rate — max(0, max(0, x)) collapses.
        ceil = np.minimum(np.maximum(0.0, budget), link)
        if self._man is None:
            sim._act_ceil = ceil
        else:
            sim._act_ceil = np.where(self._man, ceil, sim._act_ceil)


class MegaFleetSim:
    """Cluster slices of a fleet as heterogeneous ``(T, N)`` programs.

    The one fleet engine.  Its input is a list of *slices* — each a
    :class:`~repro.fleet.shard.ShardTask`, a contiguous leaf range
    ``[leaf_lo, leaf_hi)`` of one cluster plan.  Slices whose machine
    specs are structurally identical — everything but DRAM bandwidth
    and NIC link rate, which the batch physics takes as per-member
    columns — are *merged* into a single :class:`MegaClusterSim` over
    their concatenated membership, with per-cluster SLOs, offline DRAM
    models and traces carried as per-member arrays and segment slices.
    Structurally incompatible specs (different core counts, cache
    geometry, turbo ladder, power envelope) fall back to one group
    each.

    Leaf ``i`` of a plan gets the tail-noise seed ``seed * 1000 + i``,
    the BE task ``be_mix[i % len(be_mix)]`` and the chaos events
    targeting ``i`` by its *global* index, wherever its slice starts,
    and Heracles runs one independent controller per leaf.  So a
    leaf's trajectory does not depend on which other slices share its
    array: whole clusters in one unit, or shards packed into several
    units across a worker pool, produce the same numbers.

    Produces one :class:`~repro.fleet.shard.ShardResult` per slice, in
    slice order, which the fleet roll-up (``assemble_cluster`` →
    ``rollup_cluster`` → fleet telemetry) consumes.
    """

    def __init__(self, slices, targets: Dict[str, Tuple[float, float]],
                 unit: int = 0):
        # Deferred imports: this module sits in repro.sim, below the
        # cluster/fleet layers it is building for.
        import dataclasses
        from ..cluster.leaf import make_leaf_lc
        from ..hardware.spec import default_machine_spec
        from ..sim.runner import memoized_dram_model
        from ..workloads.best_effort import make_be_workload
        self.slices = list(slices)
        self.unit = unit
        for task in self.slices:
            if task.leaf_hi <= task.leaf_lo:
                raise ValueError(f"shard [{task.leaf_lo}, {task.leaf_hi}) "
                                 f"is empty")
            if task.leaf_lo < 0 or task.leaf_hi > task.plan.leaves:
                raise ValueError(
                    f"shard [{task.leaf_lo}, {task.leaf_hi}) falls outside "
                    f"the cluster's {task.plan.leaves}-leaf population")

        def structural_key(spec):
            return dataclasses.replace(
                spec,
                socket=dataclasses.replace(spec.socket, dram_bw_gbps=1.0),
                nic=dataclasses.replace(spec.nic, link_gbps=1.0))

        group_of: Dict[object, int] = {}
        buckets: List[dict] = []
        # One LC instance and one BE instance per task name per cluster,
        # shared by all of its slices, as a monolithic cluster shares
        # them across its leaves.
        workloads: Dict[int, tuple] = {}
        for index, task in enumerate(self.slices):
            plan, lo, hi = task.plan, task.leaf_lo, task.leaf_hi
            spec = plan.spec or default_machine_spec()
            key = structural_key(spec)
            if key not in group_of:
                group_of[key] = len(buckets)
                buckets.append({"lcs": [], "traces": [], "bes": [],
                                "seeds": [], "specs": [], "managed": [],
                                "models": [], "spans": [], "events": []})
            bucket = buckets[group_of[key]]
            if task.cluster_index not in workloads:
                leaf_slo_ms, _ = targets[plan.name]
                workloads[task.cluster_index] = (
                    make_leaf_lc(spec, leaf_slo_ms, lc_name=plan.lc_name),
                    {})
            lc, be_by_name = workloads[task.cluster_index]
            be_names = [plan.be_mix[i % len(plan.be_mix)]
                        for i in range(lo, hi)]
            for name in sorted(set(be_names) - set(be_by_name)):
                be_by_name[name] = make_be_workload(name, spec)
            n = hi - lo
            g_lo = len(bucket["lcs"])
            bucket["lcs"] += [lc] * n
            bucket["traces"] += [plan.trace] * n
            bucket["bes"] += [be_by_name[name] for name in be_names]
            bucket["seeds"] += [plan.seed * 1000 + i for i in range(lo, hi)]
            bucket["specs"] += [spec] * n
            bucket["managed"] += [plan.managed] * n
            if plan.managed:
                model = memoized_dram_model(plan.lc_name, spec)
                models = bucket["models"]
                if (models and models[-1][1] is model
                        and models[-1][0].stop == g_lo):
                    # Adjacent slices on one offline model (shards of
                    # one cluster) share one segment: the grid lookup
                    # is per member, so segments only cost dispatches.
                    models[-1] = (slice(models[-1][0].start, g_lo + n),
                                  model)
                else:
                    models.append((slice(g_lo, g_lo + n), model))
            bucket["spans"].append((index, g_lo, g_lo + n))
            # Chaos events arrive with cluster-local leaf targets (or
            # None for the whole cluster); each slice keeps the
            # intersection with its own leaf range, as explicit indices
            # offset into the group.
            for event in plan.events:
                local = (range(lo, hi) if event.members is None
                         else [m for m in event.members if lo <= m < hi])
                if local:
                    bucket["events"].append(event.retarget(
                        tuple(m - lo + g_lo for m in local)))

        #: (merged sim, [(slice index, member lo, member hi), ...])
        self.groups: List[Tuple[MegaClusterSim, list]] = []
        for bucket in buckets:
            sim = MegaClusterSim(
                lc=bucket["lcs"], trace=bucket["traces"],
                bes=bucket["bes"], spec=bucket["specs"][0],
                seeds=bucket["seeds"], specs=bucket["specs"])
            if bucket["models"]:
                sim.attach_vec_heracles(
                    model_segments=bucket["models"],
                    managed=np.array(bucket["managed"], dtype=bool))
            if bucket["events"]:
                sim.set_chaos_events(bucket["events"])
            self.groups.append((sim, bucket["spans"]))
        self._set_member_maps()

    def _set_member_maps(self) -> None:
        """Stamp fleet-global member indices on every group sim.

        Plan order defines the fleet-global leaf numbering (cluster
        leaf ``j`` of plan ``i`` is global index ``sum(leaves[:i]) +
        j``, carried as each slice's ``member_base``), so
        decision-trace events merge invariantly under any packing.
        Cheap (one int64 array per group), so it runs unconditionally
        and also re-stamps restored groups.
        """
        for sim, spans in self.groups:
            members = np.empty(sim.n, dtype=np.int64)
            for index, lo, hi in spans:
                task = self.slices[index]
                members[lo:hi] = task.member_base + np.arange(
                    task.leaf_lo, task.leaf_hi)
            sim.obs_set_members(members)

    @staticmethod
    def group_archive(checkpoint_dir: str, unit: int, group: int) -> str:
        """Archive path of one unit's merged group under a checkpoint."""
        return os.path.join(checkpoint_dir,
                            f"mega_group_{unit}_{group}.npz")

    def _save_groups(self, checkpoint_dir: str, k: int, recs,
                     collect_be: bool) -> None:
        """Snapshot every group after ``k`` completed ticks.

        Rows ``[0, k)`` of each group's collected arrays are fully
        written at this point except ``be_cores`` row ``k - 1``, which
        is only gathered by tick ``k + 1``; the resumed run rewrites it
        deterministically from the restored actuator state.
        """
        from .checkpoint import save_engine
        for g, ((sim, _), (times, tails, emus, be_norm, be_cores)) \
                in enumerate(zip(self.groups, recs)):
            arrays = {"times": times[:k], "tails": tails[:k],
                      "emus": emus[:k]}
            if collect_be:
                arrays["be_norm"] = be_norm[:k]
                arrays["be_cores"] = be_cores[:k - 1]
            path = self.group_archive(checkpoint_dir, self.unit, g)
            save_engine(sim, path, kind="mega_group", arrays=arrays,
                        extra_meta={"steps_done": k, "n": sim.n,
                                    "group": g,
                                    "collect_be": bool(collect_be)})

    def _load_groups(self, resume_from: str, recs, steps: int,
                     collect_be: bool) -> int:
        """Swap in saved group sims + collected prefixes; returns k0.

        The engine is first rebuilt fresh from its slices (group
        layout is a deterministic function of the slices), then each
        group's archive replaces the fresh sim and refills the
        already-computed telemetry rows — validated against the
        rebuilt layout so a checkpoint from a different fleet fails
        loudly.
        """
        from .checkpoint import CheckpointError, load_engine
        k0 = None
        for g, (group, rec) in enumerate(zip(self.groups, recs)):
            sim, spans = group
            restored = load_engine(
                self.group_archive(resume_from, self.unit, g),
                expect_kind="mega_group")
            if restored.meta.get("n") != sim.n:
                raise CheckpointError(
                    f"group {g}: checkpoint holds {restored.meta.get('n')} "
                    f"members, this fleet builds {sim.n}")
            if bool(restored.meta.get("collect_be")) != bool(collect_be):
                raise CheckpointError(
                    f"group {g}: checkpoint collect_be="
                    f"{restored.meta.get('collect_be')} does not match "
                    f"this run's collect_be={collect_be}")
            k = int(restored.meta["steps_done"])
            if k0 is None:
                k0 = k
            elif k != k0:
                raise CheckpointError(
                    f"group {g}: checkpointed at tick {k}, other groups "
                    f"at {k0} — mixed-run checkpoint directory")
            if k > steps:
                raise CheckpointError(
                    f"checkpoint holds {k} completed ticks but the "
                    f"resumed run is only {steps} ticks long")
            self.groups[g] = (restored.sim, spans)
            times, tails, emus, be_norm, be_cores = rec
            times[:k] = restored.arrays["times"]
            tails[:k] = restored.arrays["tails"]
            emus[:k] = restored.arrays["emus"]
            if collect_be:
                be_norm[:k] = restored.arrays["be_norm"]
                # be_cores lands one tick late (see the run loop), so
                # the checkpoint carries one row fewer; the resumed
                # tick k rewrites row k - 1 from the restored state.
                be_cores[:k - 1] = restored.arrays["be_cores"]
        # Restored sims come back with whatever observability state the
        # saving run pickled (load_engine reconciles the sinks with this
        # process's environment); the global member maps are this run's.
        self._set_member_maps()
        return k0 or 0

    def run(self, duration_s: float, dt_s: float = 1.0,
            collect_be: bool = False,
            checkpoint_dir: Optional[str] = None,
            checkpoint_at_s: Optional[float] = None,
            resume_from: Optional[str] = None) -> list:
        """Advance the merged groups; one ShardResult per slice.

        ``checkpoint_dir`` + ``checkpoint_at_s`` snapshot every group
        (state + collected telemetry prefix) after the tick whose time
        reaches ``checkpoint_at_s``; ``resume_from`` restores such a
        directory and continues from the saved tick, producing results
        bit-identical to the uninterrupted run.
        """
        from ..fleet.shard import ShardResult
        from .checkpoint import checkpoint_step
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        if dt_s <= 0:
            raise ValueError("dt must be positive")
        steps = int(round(duration_s / dt_s))
        k_save = None
        if checkpoint_dir is not None and checkpoint_at_s is not None:
            k_save = checkpoint_step(checkpoint_at_s, duration_s, dt_s)
        recs = []
        for sim, _ in self.groups:
            times = np.empty(steps)
            tails = np.empty((steps, sim.n))
            emus = np.empty((steps, sim.n))
            if collect_be:
                be_norm = np.empty((steps, sim.n))
                be_cores = np.empty((steps, sim.n))
            else:
                be_norm = be_cores = None
            recs.append((times, tails, emus, be_norm, be_cores))
        k0 = 0
        if resume_from is not None:
            k0 = self._load_groups(resume_from, recs, steps, collect_be)
        from ..obs.progress import make_heartbeat
        heartbeat = make_heartbeat(f"fleet[unit {self.unit}]", steps)
        for k in range(k0, steps):
            for (sim, _), (times, tails, emus, be_norm, be_cores) in zip(
                    self.groups, recs):
                result = sim.tick(dt_s)
                times[k] = result.t_s
                tails[k] = result.tail_latency_ms
                emus[k] = result.emu
                if collect_be:
                    be_norm[k] = result.be_throughput_norm
                    # The recorded grant for tick k is the state tick
                    # k+1's actuator gather sees — post controller step
                    # of tick k *and* post any chaos events firing at
                    # the start of tick k+1, the state a cluster
                    # scheduler would poll from Heracles.  Reading
                    # be_cores_now() here instead would miss those
                    # chaos mutations and shift the scheduler's
                    # grant_cores epochs by one tick.
                    if k:
                        be_cores[k - 1] = sim._gathered_be_cores
            if k_save is not None and k + 1 == k_save:
                self._save_groups(checkpoint_dir, k + 1, recs, collect_be)
            if heartbeat is not None:
                heartbeat.beat(k + 1)
        if steps and collect_be:
            for (sim, _), (times, tails, emus, be_norm, be_cores) in zip(
                    self.groups, recs):
                # The final row has no following tick to gather it; one
                # direct read closes the shift.
                be_cores[steps - 1] = sim.be_cores_now()
        results: List[Optional[ShardResult]] = [None] * len(self.slices)
        for (sim, spans), (times, tails, emus, be_norm, be_cores) in zip(
                self.groups, recs):
            for index, lo, hi in spans:
                task = self.slices[index]
                # Contiguous per-slice copies: the summary reductions
                # see the same (T, leaves) layout a per-slice engine
                # would have filled directly.
                p_tails = np.ascontiguousarray(tails[:, lo:hi])
                p_emus = np.ascontiguousarray(emus[:, lo:hi])
                if steps:
                    summary = {
                        "mean_emu": float(p_emus.mean()),
                        "min_emu": float(p_emus.min()),
                        "worst_tail_ms": float(p_tails.max()),
                        "mean_tail_ms": float(p_tails.mean()),
                    }
                else:
                    # duration_s / dt_s rounded to zero ticks: an empty
                    # run reports the metric layer's nothing-recorded
                    # value instead of crashing on empty reductions.
                    summary = {"mean_emu": 0.0, "min_emu": 0.0,
                               "worst_tail_ms": 0.0, "mean_tail_ms": 0.0}
                if collect_be:
                    p_be_norm = np.ascontiguousarray(be_norm[:, lo:hi])
                    p_be_cores = np.ascontiguousarray(be_cores[:, lo:hi])
                else:
                    p_be_norm = p_be_cores = np.zeros((0, 0))
                results[index] = ShardResult(
                    cluster=task.plan.name,
                    cluster_index=task.cluster_index,
                    shard_index=task.shard_index, leaf_lo=task.leaf_lo,
                    leaf_hi=task.leaf_hi, times_s=times.copy(),
                    tails_ms=p_tails, emus=p_emus, summary=summary,
                    be_norm=p_be_norm, be_cores=p_be_cores)
        # Observability rides on the first slice's result (the fleet
        # layer merges payloads across all results, so placement is
        # arbitrary; events already carry fleet-global member indices).
        from ..obs.profile import merge_profiles
        from ..obs.trace import concat_payloads
        payloads = [sim._obs_trace.payload() for sim, _ in self.groups
                    if sim._obs_trace is not None]
        if payloads:
            results[0].trace = concat_payloads(payloads)
        profiles = [sim._obs_prof.as_dict() for sim, _ in self.groups
                    if sim._obs_prof is not None]
        if profiles:
            results[0].profile = merge_profiles(profiles)
        return results


def run_mega_fleet(slices, targets: Dict[str, Tuple[float, float]],
                   duration_s: float, unit: int = 0, **run_kwargs) -> list:
    """Build and run one fleet unit: the picklable pool work unit.

    :class:`~repro.fleet.simulator.ShardedFleetSim` packs its slices
    into units and fans them across :func:`repro.sim.runner.run_sweep`;
    returns one :class:`~repro.fleet.shard.ShardResult` per slice, in
    slice order.  ``run_kwargs`` (``dt_s``, ``collect_be`` and the
    checkpoint/resume parameters) pass straight through to
    :meth:`MegaFleetSim.run`.
    """
    return MegaFleetSim(slices, targets, unit=unit).run(duration_s,
                                                        **run_kwargs)
