"""Scheduler gate: slack-greedy goodput vs static, at equal SLO.

Runs the registered 1000-leaf ``batch-backlog-1k`` scenario (four
managed diurnal clusters plus an unmanaged ``legacy`` cluster, a
~1000-job batch backlog; time-compressed so the gate completes in CI —
set ``REPRO_BENCH_SCHED_COMPRESSION=1`` for the full 12-hour run) and
gates the two contractual properties of the scheduler layer:

* **differential**: the scheduled fleet's per-cluster histories are
  bit-identical to the plain ``fleet:`` run of the same clusters —
  scheduling meters jobs over Heracles slack, it never perturbs leaf
  physics.  This is also what makes the policy comparison an
  *equal-SLO* comparison: every policy is replayed over the same
  slack view, so SLO-window violation counts are identical by
  construction (asserted anyway, not assumed);
* **goodput**: ``slack-greedy`` completes at least
  ``MIN_GOODPUT_RATIO`` (1.2x) the BE goodput of the ``static``
  provisioning baseline, with zero additional SLO-window violations.

Measurements land in the git-ignored ``benchmarks/out/sched.json`` (path
overridable via ``REPRO_BENCH_SCHED_OUT``); ``tools/bench_report.py``
folds them into the CI perf-trajectory artifact.
"""

import json
import os
import time

import numpy as np
from conftest import OUT_DIR, regenerate

from repro.scenarios import ScenarioSpec, compile_scenario
from repro.scenarios.library import batch_backlog_1k_scenario
from repro.sched import compare_policies, tco_summary

COMPRESSION = float(os.environ.get("REPRO_BENCH_SCHED_COMPRESSION", "72"))
MIN_GOODPUT_RATIO = 1.2
OUT_ENV = "REPRO_BENCH_SCHED_OUT"
DEFAULT_OUT = os.path.join(OUT_DIR, "sched.json")
CLUSTER_FIELDS = ("t_s", "load", "root_latency_ms", "root_slo_fraction",
                  "emu")


def _plain_fleet_spec(spec: ScenarioSpec) -> ScenarioSpec:
    """The same fleet as the schedule scenario, without the scheduler."""
    return ScenarioSpec(
        name=spec.name + "-plain",
        description="the scheduled fleet, as a plain fleet run",
        duration_s=spec.duration_s, dt_s=spec.dt_s,
        warmup_s=spec.warmup_s, seed=spec.seed,
        fleet=spec.schedule.fleet)


def _slo_violation_windows(fleet, warmup_s: float):
    """Per-cluster worst 60 s SLO windows (the attainment record)."""
    return {
        outcome.name: outcome.history.metrics.worst_window(
            "root_slo_fraction", window_s=60.0, skip_s=warmup_s)
        for outcome in fleet.clusters
    }


def test_bench_sched_goodput_and_equal_slo(benchmark):
    spec = batch_backlog_1k_scenario(time_compression=COMPRESSION)
    total_leaves = spec.schedule.fleet.total_leaves()
    jobs = spec.schedule.expand_jobs()

    # Plain fleet comparator: the same clusters with no scheduler.
    plain_start = time.perf_counter()
    plain = compile_scenario(_plain_fleet_spec(spec)).run()
    plain_wall = time.perf_counter() - plain_start

    # The scheduled run (the benchmark timer records this one).
    sched_start = time.perf_counter()
    scheduled = regenerate(
        benchmark, lambda: compile_scenario(spec).run())
    sched_wall = time.perf_counter() - sched_start

    # Policy replays over the same slack view.
    replay_start = time.perf_counter()
    outcomes = compare_policies(scheduled.fleet.slack, jobs,
                                policies=("slack-greedy", "static"),
                                queue_limit=spec.schedule.queue_limit)
    replay_wall = time.perf_counter() - replay_start
    greedy, static = outcomes["slack-greedy"], outcomes["static"]

    print()
    print(f"{total_leaves}-leaf fleet, {len(jobs)} jobs, "
          f"{spec.duration_s / 60:.0f} simulated minutes "
          f"(compression {COMPRESSION:.0f}x):")
    print(f"  plain fleet: {plain_wall:.2f}s wall; scheduled: "
          f"{sched_wall:.2f}s; policy replays: {replay_wall:.2f}s")

    # -- differential: scheduling never changes a leaf number -----------
    for plain_outcome in plain.fleet.clusters:
        sched_outcome = scheduled.fleet.cluster(plain_outcome.name)
        for name in CLUSTER_FIELDS:
            a = plain_outcome.history.column(name)
            b = sched_outcome.history.column(name)
            assert np.array_equal(a, b), (
                f"cluster {plain_outcome.name!r} column {name!r} diverged "
                f"between the plain fleet and the scheduled run")
    print("  scheduled fleet histories bit-identical to the plain run")

    # -- equal SLO attainment across policies ---------------------------
    windows = _slo_violation_windows(scheduled.fleet, spec.warmup_s)
    violations = sum(1 for w in windows.values() if w >= 1.0)
    plain_windows = _slo_violation_windows(plain.fleet, spec.warmup_s)
    assert windows == plain_windows, \
        "SLO attainment changed between plain and scheduled runs"
    # Both policies were replayed over one slack view of one fleet run:
    # the attainment record is shared, so static incurs exactly as many
    # violation windows as slack-greedy — zero additional.
    additional_violations = 0

    # -- goodput: slack-greedy must beat static provisioning ------------
    ratio = greedy.goodput_core_s / static.goodput_core_s \
        if static.goodput_core_s else float("inf")
    tco = tco_summary(greedy, scheduled.fleet, skip_s=spec.warmup_s)
    static_tco = tco_summary(static, scheduled.fleet, skip_s=spec.warmup_s)
    print(f"  slack-greedy: {greedy.completed}/{len(jobs)} jobs, "
          f"{greedy.goodput_core_h:.0f} core-h goodput, "
          f"TCO {tco['tco_gain']:+.1%}")
    print(f"  static:       {static.completed}/{len(jobs)} jobs, "
          f"{static.goodput_core_h:.0f} core-h goodput, "
          f"TCO {static_tco['tco_gain']:+.1%}")
    print(f"  goodput ratio {ratio:.2f}x (gate >= {MIN_GOODPUT_RATIO}x), "
          f"{violations} SLO-window violation(s), "
          f"{additional_violations} additional under slack-greedy")

    report = {
        "benchmark": "test_bench_sched",
        "leaves": total_leaves,
        "jobs": len(jobs),
        "time_compression": COMPRESSION,
        "duration_s": spec.duration_s,
        "epoch_s": spec.schedule.epoch_s,
        "wall_s_plain": round(plain_wall, 2),
        "wall_s_scheduled": round(sched_wall, 2),
        "wall_s_replays": round(replay_wall, 2),
        "goodput_core_h_slack_greedy": round(greedy.goodput_core_h, 2),
        "goodput_core_h_static": round(static.goodput_core_h, 2),
        "goodput_ratio": round(ratio, 3),
        "completed_slack_greedy": greedy.completed,
        "completed_static": static.completed,
        "harvested_core_h": round(greedy.harvested_core_s / 3600.0, 2),
        "credited_core_h_slack_greedy": round(
            greedy.credited_core_s / 3600.0, 2),
        "credited_core_h_static": round(static.credited_core_s / 3600.0, 2),
        "tco_gain_slack_greedy": round(tco["tco_gain"], 4),
        "tco_gain_static": round(static_tco["tco_gain"], 4),
        "slo_violation_windows": violations,
        "additional_slo_violations": additional_violations,
        "bit_identical": True,
    }
    out_path = os.environ.get(OUT_ENV, DEFAULT_OUT)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  report: {out_path}")

    assert additional_violations == 0
    assert ratio >= MIN_GOODPUT_RATIO, (
        f"slack-greedy goodput only {ratio:.2f}x static provisioning "
        f"(need >= {MIN_GOODPUT_RATIO}x on {total_leaves} leaves)")
