"""Registered scenarios shipped with the package.

The paper's fig4 and fig8 evaluations are expressed here as scenario
specs — the experiment modules under :mod:`repro.experiments` are thin
consumers of these factories — alongside scenarios the paper never ran
(a heterogeneous three-way BE mix, a diurnal spike stress test with a
mid-run antagonist arrival).  ``python -m repro.cli scenario --list``
shows everything registered here.

The canonical Figure 4 axes (``FIG4_BE_TASKS``, ``DEFAULT_LOADS``)
live in this module; :mod:`repro.experiments.fig4_latency_slo`
re-exports them for backward compatibility.
"""

from __future__ import annotations

from typing import Optional, Sequence

from ..workloads.latency_critical import LC_PROFILES
from .registry import register
from .spec import (ClusterSpec, FleetSpec, InjectionSpec, JobSpec,
                   ScenarioSpec, ScheduleSpec, ServerSpec, ShardSpec,
                   SpikeSpec, SweepSpec, TraceSpec, WorkloadSpec)

#: BE tasks shown in Figure 4 (iperf omitted for websearch/ml_cluster in
#: the paper's plot because they are network-insensitive; we compute it
#: anyway).
FIG4_BE_TASKS = ("stream-LLC", "stream-DRAM", "cpu_pwr", "brain",
                 "streetview", "iperf")

#: A lighter load axis than the paper's 19 points, dense enough to show
#: the shape; pass ``loads=load_sweep()`` for the full grid.
DEFAULT_LOADS = (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85, 0.95)


def fig4_scenario(lc_tasks: Optional[Sequence[str]] = None,
                  be_tasks: Sequence[str] = FIG4_BE_TASKS,
                  loads: Sequence[float] = DEFAULT_LOADS,
                  duration_s: float = 900.0,
                  warmup_s: float = 240.0,
                  seed: int = 0) -> ScenarioSpec:
    """The Figure 4-7 colocation grid as a scenario spec.

    Args:
        lc_tasks: LC workloads to sweep (default: all three, sorted).
        be_tasks / loads: the grid axes.
        duration_s / warmup_s / seed: per-cell run parameters.

    Returns:
        A ``sweep``-shaped :class:`ScenarioSpec`; its compiled run is
        one batch of the grid's cells, each matching
        :func:`repro.experiments.common.run_colocation` to 1e-9.
    """
    return ScenarioSpec(
        name="fig4",
        description="Paper Figure 4: LC tail latency under Heracles "
                    "across loads and BE colocations",
        controller="heracles",
        duration_s=duration_s,
        warmup_s=warmup_s,
        seed=seed,
        sweep=SweepSpec(
            lc_tasks=tuple(lc_tasks) if lc_tasks
            else tuple(sorted(LC_PROFILES)),
            be_tasks=tuple(be_tasks),
            loads=tuple(loads)))


def _compressed(seconds: float, time_compression: float) -> float:
    """Scale a duration/period by the quick-look compression factor.

    The single definition of the compression contract shared by the
    fig8 and fleet scenario factories: factors below 1 (slow motion)
    are rejected, everything else divides simulated time.
    """
    if time_compression < 1.0:
        raise ValueError("compression must be >= 1")
    return seconds / time_compression


def fig8_scenario(leaves: int = 8,
                  duration_s: float = 12 * 3600.0,
                  time_compression: float = 1.0,
                  seed: int = 7) -> ScenarioSpec:
    """The §5.3 websearch cluster (Figure 8) as a scenario spec.

    Args:
        leaves: leaf servers behind the fan-out root.
        duration_s: simulated wall-clock before compression.
        time_compression: shrink factor for quick looks (the trace
            period and duration shrink together; controller dynamics
            stay at real speed).
        seed: the cluster's base seed (leaf ``i`` uses
            ``seed * 1000 + i``).

    Returns:
        A ``cluster``-shaped :class:`ScenarioSpec` with managed and
        baseline arms (the spec
        :func:`repro.experiments.fig8_cluster.run_fig8` runs).
    """
    period = _compressed(12 * 3600.0, time_compression)
    duration = _compressed(duration_s, time_compression)
    return ScenarioSpec(
        name="fig8",
        description="Paper Figure 8: 12-hour diurnal websearch cluster, "
                    "Heracles vs baseline",
        duration_s=duration,
        # The paper skips the first 10 minutes; compressed quick looks
        # skip half the (shortened) run instead.
        warmup_s=min(600.0, 0.5 * duration),
        seed=seed,
        cluster=ClusterSpec(
            leaves=leaves,
            arms=("managed", "baseline"),
            trace=TraceSpec(kind="diurnal", low=0.20, high=0.90,
                            period_s=period, noise_sigma=0.02)))


def mixed_fleet_scenario() -> ScenarioSpec:
    """A colocation mix the paper never ran: three heterogeneous servers.

    websearch+brain, websearch+streetview and memkeyval+iperf advance
    together through the batched backend, each member under its own
    Heracles instance with a distinct constant load and seed.
    """
    return ScenarioSpec(
        name="mixed-fleet",
        description="Three-way heterogeneous LC x BE mix on the batched "
                    "backend",
        duration_s=600.0,
        warmup_s=180.0,
        members=(
            WorkloadSpec(lc="websearch", be="brain",
                         trace=TraceSpec(kind="constant", load=0.60)),
            WorkloadSpec(lc="websearch", be="streetview",
                         trace=TraceSpec(kind="constant", load=0.40)),
            WorkloadSpec(lc="memkeyval", be="iperf",
                         trace=TraceSpec(kind="constant", load=0.50)),
        ))


def diurnal_spike_scenario() -> ScenarioSpec:
    """A stress test: diurnal swing, lunchtime spike, late antagonist.

    One websearch+stream-DRAM server rides a one-hour diurnal trace
    with a 95% load spike injected at t=1500 s; Heracles must shed the
    BE task through the spike and re-grow it afterwards.
    """
    return ScenarioSpec(
        name="diurnal-spike",
        description="Diurnal websearch with a 95% load spike under "
                    "Heracles + stream-DRAM",
        duration_s=3600.0,
        warmup_s=300.0,
        members=(
            WorkloadSpec(
                lc="websearch", be="stream-DRAM",
                trace=TraceSpec(
                    kind="diurnal", low=0.20, high=0.80, period_s=3600.0,
                    spikes=(SpikeSpec(at_s=1500.0, duration_s=180.0,
                                      load=0.95),))),
        ))


def mixed_fleet_1k_scenario(time_compression: float = 1.0,
                            leaves_scale: float = 1.0,
                            shard_leaves: int = 64,
                            seed: int = 7) -> ScenarioSpec:
    """A 1000-leaf heterogeneous fleet riding the 12-hour diurnal day.

    Four clusters, 1000 leaves total, all behind their own fan-out
    roots: a stock websearch estate, a memory-rich websearch cluster
    colocating DRAM-hungry BE work, a fat-NIC memkeyval edge tier with
    network-bound BE tasks, and a small ml_cluster batch pool — each
    with its own machine spec, BE mix, and trace seed.  This is the
    fleet the PR-4 benchmark shards (`benchmarks/test_bench_fleet.py`).

    Args:
        time_compression: shrink factor for quick looks (trace period
            and duration shrink together, like ``fig8``).
        leaves_scale: scale factor on every cluster's leaf count
            (quick looks again; 1.0 = the full 1000 leaves).
        shard_leaves: maximum leaves per execution shard.
        seed: base seed (cluster ``i`` defaults to ``seed + i``).
    """
    if not 0.0 < leaves_scale <= 1.0:
        raise ValueError("leaves_scale must be in (0, 1]")
    period = _compressed(12 * 3600.0, time_compression)
    duration = period

    def scaled(leaves: int) -> int:
        return max(2, int(round(leaves * leaves_scale)))

    def diurnal(phase_s: float = 0.0) -> TraceSpec:
        return TraceSpec(kind="diurnal", low=0.20, high=0.90,
                         period_s=period, noise_sigma=0.02,
                         phase_s=_compressed(phase_s, time_compression))

    return ScenarioSpec(
        name="mixed-fleet-1k",
        description="1000 leaves, four heterogeneous clusters, 12-hour "
                    "diurnal day on the sharded fleet backend",
        duration_s=duration,
        warmup_s=min(600.0, 0.5 * duration),
        seed=seed,
        fleet=FleetSpec(
            shard_leaves=shard_leaves,
            clusters=(
                ShardSpec(name="web-core", leaves=scaled(400),
                          lc="websearch", trace=diurnal()),
                ShardSpec(name="web-himem", leaves=scaled(250),
                          lc="websearch",
                          be_mix=("stream-DRAM", "brain"),
                          server=ServerSpec(dram_bw_gbps=80.0),
                          trace=diurnal(phase_s=1800.0)),
                ShardSpec(name="kv-edge", leaves=scaled(250),
                          lc="memkeyval", be_mix=("iperf", "stream-LLC"),
                          server=ServerSpec(link_gbps=40.0),
                          trace=diurnal(phase_s=3600.0)),
                ShardSpec(name="ml-batch", leaves=scaled(100),
                          lc="ml_cluster", be_mix=("brain", "cpu_pwr"),
                          trace=diurnal(phase_s=5400.0)),
            )))


def chaos_1k_scenario(time_compression: float = 1.0,
                      leaves_scale: float = 1.0,
                      shard_leaves: int = 64,
                      seed: int = 7) -> ScenarioSpec:
    """The mixed 1000-leaf fleet under rolling fault-injection waves.

    The :func:`mixed_fleet_1k_scenario` estate (four heterogeneous
    clusters on phase-shifted 12-hour diurnal days) hit by every chaos
    shape the engines support: two web-core leaves crash mid-morning
    and rejoin cold after lunch, a web-himem leaf straggles at 60%
    frequency through the peak, the whole kv-edge tier runs under a
    70% power cap for half the day, and the ml-batch cluster is
    partitioned from its fan-out root for a tenth of the day.  Event
    times are fractions of the (compressed) duration, so the schedule
    keeps its shape at any ``time_compression``, and leaf targets stay
    at most 1, so they remain valid at any ``leaves_scale``.

    Args:
        time_compression: shrink factor for quick looks (durations,
            trace periods, and event times shrink together).
        leaves_scale: scale factor on every cluster's leaf count.
        shard_leaves: maximum leaves per execution shard.
        seed: base seed (cluster ``i`` defaults to ``seed + i``).
    """
    base = mixed_fleet_1k_scenario(time_compression=time_compression,
                                   leaves_scale=leaves_scale,
                                   shard_leaves=shard_leaves, seed=seed)
    duration = base.duration_s
    return ScenarioSpec(
        name="chaos-1k",
        description="The mixed-fleet-1k estate under crash, straggler, "
                    "power-cap, and partition waves",
        duration_s=duration,
        warmup_s=base.warmup_s,
        seed=seed,
        fleet=base.fleet,
        injections=(
            # Morning crash wave: two web-core leaves drop out, rejoin
            # cold after half the day.
            InjectionSpec(at_s=0.20 * duration, action="leaf_crash",
                          cluster="web-core", leaf=0),
            InjectionSpec(at_s=0.22 * duration, action="leaf_crash",
                          cluster="web-core", leaf=1),
            InjectionSpec(at_s=0.50 * duration, action="leaf_restart",
                          cluster="web-core", leaf=0),
            InjectionSpec(at_s=0.52 * duration, action="leaf_restart",
                          cluster="web-core", leaf=1),
            # One memory-rich leaf straggles at 60% frequency through
            # the peak, then recovers to stock.
            InjectionSpec(at_s=0.25 * duration, action="straggler",
                          value=0.60, cluster="web-himem", leaf=1),
            InjectionSpec(at_s=0.60 * duration, action="straggler",
                          value=1.0, cluster="web-himem", leaf=1),
            # The whole edge tier rides a 70% power cap for half the
            # day (a facility-level capacity event).
            InjectionSpec(at_s=0.30 * duration, action="power_cap",
                          value=0.70, cluster="kv-edge"),
            InjectionSpec(at_s=0.80 * duration, action="power_cap",
                          value=1.0, cluster="kv-edge"),
            # The batch pool loses its root link for a tenth of the
            # day: load held at the root, tails pinned at the penalty.
            InjectionSpec(at_s=0.40 * duration, action="partition",
                          value=0.10 * duration, cluster="ml-batch"),
        ))


def follow_the_sun_scenario(time_compression: float = 1.0,
                            leaves_per_region: int = 60,
                            shard_leaves: int = 32,
                            seed: int = 11) -> ScenarioSpec:
    """Three regional clusters whose diurnal peaks chase each other.

    One websearch estate replicated across three regions on a 24-hour
    diurnal day, phase-shifted by eight hours each — as one region's
    traffic peaks, the next is climbing and the third is in its trough,
    so the *fleet* EMU stays flat while every per-cluster EMU swings.

    Args:
        time_compression: shrink factor for quick looks.
        leaves_per_region: leaf population of each regional cluster.
        shard_leaves: maximum leaves per execution shard.
        seed: base seed (region ``i`` defaults to ``seed + i``).
    """
    period = _compressed(24 * 3600.0, time_compression)
    duration = _compressed(12 * 3600.0, time_compression)
    regions = ("us-east", "eu-west", "ap-south")
    return ScenarioSpec(
        name="follow-the-sun",
        description="Three regions, 24-hour diurnal day phase-shifted "
                    "8 h apart, on the sharded fleet backend",
        duration_s=duration,
        warmup_s=min(600.0, 0.5 * duration),
        seed=seed,
        fleet=FleetSpec(
            shard_leaves=shard_leaves,
            clusters=tuple(
                ShardSpec(name=region, leaves=leaves_per_region,
                          lc="websearch",
                          trace=TraceSpec(kind="diurnal", low=0.20,
                                          high=0.90, period_s=period,
                                          noise_sigma=0.02,
                                          phase_s=i * period / 3.0))
                for i, region in enumerate(regions))))


def batch_backlog_1k_scenario(time_compression: float = 1.0,
                              leaves_scale: float = 1.0,
                              shard_leaves: int = 64,
                              seed: int = 7,
                              policy: str = "slack-greedy") -> ScenarioSpec:
    """A 1000-leaf diurnal fleet chewing through a deep batch backlog.

    The scheduler benchmark's scenario (`benchmarks/test_bench_sched.py`
    gates slack-greedy >= 1.2x static goodput on it): four managed
    clusters ride phase-shifted 12-hour diurnal days — so which leaves
    have slack keeps moving — while a fifth ``legacy`` cluster runs no
    Heracles at all (zero harvest; static pinning wastes every job it
    lands there).  The queue holds a backlog of ~1000 batch jobs, all
    present at t=0: image-crunch work (bulky, wide) plus
    higher-priority stitch jobs (small, narrow).

    Args:
        time_compression: shrink factor for quick looks — durations,
            trace periods, job demand, *and* the decision epoch shrink
            together, so the schedule's shape survives compression.
        leaves_scale: scale factor on every cluster's leaf count.
        shard_leaves: maximum leaves per execution shard.
        seed: base seed (cluster ``i`` defaults to ``seed + i``).
        policy: the placement policy the scenario runs under (the CLI's
            ``--policy`` and the benchmark's comparison override this).
    """
    if not 0.0 < leaves_scale <= 1.0:
        raise ValueError("leaves_scale must be in (0, 1]")
    period = _compressed(12 * 3600.0, time_compression)
    duration = period

    def scaled(leaves: int) -> int:
        return max(2, int(round(leaves * leaves_scale)))

    def diurnal(phase_s: float = 0.0) -> TraceSpec:
        return TraceSpec(kind="diurnal", low=0.20, high=0.90,
                         period_s=period, noise_sigma=0.02,
                         phase_s=_compressed(phase_s, time_compression))

    jobs_scale = max(1, int(round(40 * leaves_scale)))
    return ScenarioSpec(
        name="batch-backlog-1k",
        description="1000-leaf diurnal fleet + legacy cluster, ~1000-job "
                    "batch backlog scheduled over Heracles slack",
        duration_s=duration,
        warmup_s=min(600.0, 0.5 * duration),
        seed=seed,
        schedule=ScheduleSpec(
            policy=policy,
            epoch_s=_compressed(60.0, time_compression),
            fleet=FleetSpec(
                shard_leaves=shard_leaves,
                clusters=(
                    ShardSpec(name="web-core", leaves=scaled(350),
                              lc="websearch", trace=diurnal()),
                    ShardSpec(name="web-himem", leaves=scaled(250),
                              lc="websearch",
                              be_mix=("stream-DRAM", "brain"),
                              server=ServerSpec(dram_bw_gbps=80.0),
                              trace=diurnal(phase_s=1800.0)),
                    ShardSpec(name="kv-edge", leaves=scaled(200),
                              lc="memkeyval",
                              be_mix=("iperf", "stream-LLC"),
                              server=ServerSpec(link_gbps=40.0),
                              trace=diurnal(phase_s=3600.0)),
                    ShardSpec(name="ml-batch", leaves=scaled(100),
                              lc="ml_cluster", be_mix=("brain", "cpu_pwr"),
                              trace=diurnal(phase_s=5400.0)),
                    # No Heracles, no harvest: the share of the estate
                    # static provisioning wastes jobs on.
                    ShardSpec(name="legacy", leaves=scaled(100),
                              lc="websearch", managed=False,
                              trace=diurnal(phase_s=7200.0)),
                )),
            jobs=(
                JobSpec(name="crunch",
                        demand_core_s=_compressed(200_000.0,
                                                  time_compression),
                        max_cores=8, count=20 * jobs_scale),
                JobSpec(name="stitch", priority=1,
                        demand_core_s=_compressed(40_000.0,
                                                  time_compression),
                        max_cores=4, count=5 * jobs_scale),
            )))


def diurnal_scavenger_scenario(time_compression: float = 1.0,
                               leaves_per_region: int = 60,
                               shard_leaves: int = 32,
                               seed: int = 11) -> ScenarioSpec:
    """Follow-the-sun scavenging: jobs chase slack around the planet.

    The :func:`follow_the_sun_scenario` fleet (three regions,
    phase-shifted 24-hour diurnal days) with batch waves arriving every
    few simulated hours and a bounded queue — as each region's traffic
    peaks, the scheduler migrates the scavenging work to whichever
    region is in its trough, and admission control bounces waves that
    arrive while the queue is still digesting the previous one.

    Args:
        time_compression: shrink factor for quick looks (durations,
            periods, demand, arrivals and the epoch shrink together).
        leaves_per_region: leaf population of each regional cluster.
        shard_leaves: maximum leaves per execution shard.
        seed: base seed (region ``i`` defaults to ``seed + i``).
    """
    period = _compressed(24 * 3600.0, time_compression)
    duration = _compressed(12 * 3600.0, time_compression)
    regions = ("us-east", "eu-west", "ap-south")
    waves = tuple(
        JobSpec(name=f"wave{w}",
                demand_core_s=_compressed(30_000.0, time_compression),
                max_cores=6, count=3 * leaves_per_region,
                arrival_s=w * duration / 4.0)
        for w in range(4)
    )
    return ScenarioSpec(
        name="diurnal-scavenger",
        description="Three-region follow-the-sun fleet scavenged by "
                    "arriving batch waves under admission control",
        duration_s=duration,
        warmup_s=min(600.0, 0.5 * duration),
        seed=seed,
        schedule=ScheduleSpec(
            policy="slack-greedy",
            epoch_s=_compressed(120.0, time_compression),
            queue_limit=6 * leaves_per_region,
            fleet=FleetSpec(
                shard_leaves=shard_leaves,
                clusters=tuple(
                    ShardSpec(name=region, leaves=leaves_per_region,
                              lc="websearch",
                              trace=TraceSpec(kind="diurnal", low=0.20,
                                              high=0.90, period_s=period,
                                              noise_sigma=0.02,
                                              phase_s=i * period / 3.0))
                    for i, region in enumerate(regions))),
            jobs=waves))


register("fig4", fig4_scenario,
         "Figure 4 grid: 3 LC x 6 BE x 10 loads under Heracles")
register("fig8", fig8_scenario,
         "Figure 8 cluster: 8 leaves, 12 h diurnal trace, both arms")
register("mixed-fleet", mixed_fleet_scenario,
         "Three heterogeneous LC x BE servers on the batched backend")
register("diurnal-spike", diurnal_spike_scenario,
         "Diurnal websearch + stream-DRAM with a 95% load spike")
register("mixed-fleet-1k", mixed_fleet_1k_scenario,
         "1000-leaf, 4-cluster heterogeneous fleet, 12 h diurnal day")
register("chaos-1k", chaos_1k_scenario,
         "mixed-fleet-1k under crash / straggler / power-cap / "
         "partition waves")
register("follow-the-sun", follow_the_sun_scenario,
         "Three regions on an 8 h phase-shifted 24 h diurnal day")
register("batch-backlog-1k", batch_backlog_1k_scenario,
         "1000-leaf diurnal fleet scheduling a ~1000-job batch backlog")
register("diurnal-scavenger", diurnal_scavenger_scenario,
         "Follow-the-sun fleet scavenged by arriving batch job waves")
