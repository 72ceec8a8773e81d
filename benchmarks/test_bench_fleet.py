"""Sharded fleet gate: wall-clock speedup and cross-plan bit-identity.

Runs the registered 1000-leaf ``mixed-fleet-1k`` scenario (four
heterogeneous clusters on a 12-hour diurnal day, time-compressed so
the gate completes in CI; set ``REPRO_BENCH_FLEET_COMPRESSION=1`` for
the full-fidelity 12-hour run) under two execution plans:

* **sequential** — one shard per cluster, ``processes=1``: the
  pre-fleet way of running the population, each cluster as one
  monolithic batched sim, one after another;
* **sharded** — the fleet default: every cluster partitioned into
  ~64-leaf shards fanned across the ``REPRO_JOBS`` process pool.

and gates the two contractual properties of the fleet layer:

* **equivalence**: both plans produce bit-identical per-leaf
  telemetry (every leaf's tail latency and EMU at every tick),
  per-cluster histories and fleet summaries — sharding and
  parallelism change wall-clock, never numbers;
* **speedup**: with enough cores (>= ``MIN_CPUS``), the sharded plan
  completes at least 3x faster in wall-clock time.  Hosts with fewer
  cores (e.g. 4-vCPU CI runners) still enforce a CPU-scaled tripwire
  (>= ``0.5 x cpus``) so a serialization regression cannot slip
  through; only single-core hosts and sandboxes where no process pool
  can be created skip the speedup assertion — the equivalence gate
  always runs.

Measurements land in the git-ignored ``benchmarks/out/fleet.json`` (path
overridable via ``REPRO_BENCH_FLEET_OUT``); ``tools/bench_report.py``
folds them into the CI perf-trajectory artifact.
"""

import json
import os
import time

import numpy as np
import pytest
from conftest import OUT_DIR, assert_same_leaves, capture_leaves, regenerate

from repro.fleet import partition_leaves
from repro.scenarios import compile_scenario
from repro.scenarios.library import mixed_fleet_1k_scenario

COMPRESSION = float(os.environ.get("REPRO_BENCH_FLEET_COMPRESSION", "72"))
SHARD_LEAVES = 64
MIN_SPEEDUP = 3.0
MIN_CPUS = 6
OUT_ENV = "REPRO_BENCH_FLEET_OUT"
DEFAULT_OUT = os.path.join(OUT_DIR, "fleet.json")
CLUSTER_FIELDS = ("t_s", "load", "root_latency_ms", "root_slo_fraction",
                  "emu")


def _pool_available() -> bool:
    """True when a process pool can actually be created here."""
    from concurrent.futures import ProcessPoolExecutor
    try:
        with ProcessPoolExecutor(max_workers=2) as pool:
            list(pool.map(abs, [1]))
        return True
    except (OSError, PermissionError, ValueError):
        return False


def _run_fleet(shard_leaves: int, processes):
    """One execution plan of the 1000-leaf fleet scenario."""
    spec = mixed_fleet_1k_scenario(time_compression=COMPRESSION,
                                   shard_leaves=shard_leaves)
    return compile_scenario(spec).run(processes=processes)


def test_bench_fleet_speedup_and_equivalence(benchmark, monkeypatch):
    spec = mixed_fleet_1k_scenario(time_compression=COMPRESSION,
                                   shard_leaves=SHARD_LEAVES)
    total_leaves = spec.fleet.total_leaves()
    biggest = max(c.leaves for c in spec.fleet.clusters)

    # Sequential comparator: whole clusters, one at a time, in-process.
    seq_leaves = capture_leaves(monkeypatch)
    seq_start = time.perf_counter()
    sequential = _run_fleet(shard_leaves=biggest, processes=1)
    seq_wall = time.perf_counter() - seq_start

    # Sharded plan (the benchmark timer records this run).
    shr_leaves = capture_leaves(monkeypatch)
    sharded_start = time.perf_counter()
    sharded = regenerate(benchmark, _run_fleet, SHARD_LEAVES, None)
    sharded_wall = time.perf_counter() - sharded_start

    speedup = seq_wall / sharded_wall
    shard_count = sum(len(partition_leaves(c.leaves, SHARD_LEAVES))
                      for c in spec.fleet.clusters)
    warmup = spec.warmup_s

    print()
    print(f"{total_leaves}-leaf fleet, {spec.duration_s / 60:.0f} simulated "
          f"minutes (compression {COMPRESSION:.0f}x):")
    print(f"  sequential (per-cluster batches): {seq_wall:.2f}s wall")
    print(f"  sharded ({shard_count} shards): {sharded_wall:.2f}s wall "
          f"-> {speedup:.2f}x")

    # -- equivalence: sharding must never change a number ---------------
    assert_same_leaves(shr_leaves, seq_leaves, "between execution plans")
    for seq_outcome in sequential.fleet.clusters:
        shr_outcome = sharded.fleet.cluster(seq_outcome.name)
        assert shr_outcome.root_slo_ms == seq_outcome.root_slo_ms
        for name in CLUSTER_FIELDS:
            a = seq_outcome.history.column(name)
            b = shr_outcome.history.column(name)
            assert np.array_equal(a, b), (
                f"cluster {seq_outcome.name!r} column {name!r} diverged "
                f"between execution plans")
    seq_summary = sequential.fleet.summary(skip_s=warmup)
    shr_summary = sharded.fleet.summary(skip_s=warmup)
    assert seq_summary == shr_summary, "fleet summaries diverged"
    print(f"  fleet EMU {shr_summary['fleet_emu']:.1%} (min "
          f"{shr_summary['min_fleet_emu']:.1%}), load-weighted root "
          f"latency {shr_summary['weighted_root_latency_ms']:.1f} ms "
          f"[bit-identical across plans]")

    cpus = os.cpu_count() or 1
    report = {
        "benchmark": "test_bench_fleet",
        "leaves": total_leaves,
        "clusters": len(spec.fleet.clusters),
        "shards": shard_count,
        "time_compression": COMPRESSION,
        "duration_s": spec.duration_s,
        "cpus": cpus,
        "wall_s_sequential": round(seq_wall, 2),
        "wall_s_sharded": round(sharded_wall, 2),
        "speedup": round(speedup, 2),
        "bit_identical": True,
    }
    out_path = os.environ.get(OUT_ENV, DEFAULT_OUT)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  report: {out_path}")

    # -- speedup: needs real cores to mean anything ---------------------
    if cpus < 2:
        pytest.skip(f"speedup gate needs >= 2 CPUs (host has {cpus}); "
                    f"equivalence gate passed, measured {speedup:.2f}x")
    if not _pool_available():
        pytest.skip("speedup gate needs a process pool (unavailable in "
                    "this sandbox); equivalence gate passed")
    # Full 3x gate on capable hosts; smaller multi-core hosts (4-vCPU
    # CI runners) enforce a CPU-scaled floor so a regression to serial
    # execution (speedup ~1x) still fails everywhere a pool exists.
    required = MIN_SPEEDUP if cpus >= MIN_CPUS else min(MIN_SPEEDUP,
                                                        0.5 * cpus)
    assert speedup >= required, (
        f"sharded fleet only {speedup:.2f}x faster than sequential "
        f"per-cluster batches (need >= {required:.1f}x on {cpus} CPUs)")
