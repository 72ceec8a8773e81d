"""Packing gate: whole clusters vs shards on the one fleet engine.

Every fleet runs on one engine, the array program of
``repro.sim.megabatch.MegaFleetSim``; the ``engine`` option only picks
how leaves are packed onto it.  This benchmark runs the registered
1000-leaf ``mixed-fleet-1k`` scenario (time-compressed for CI;
``REPRO_BENCH_MEGAFLEET_COMPRESSION=1`` restores the full 12-hour day)
under both packings, strictly in-process:

* **sharded** — today's default plan (~64-leaf shards) at
  ``processes=1``, packed into one unit;
* **mega** — the same scenario with ``engine="mega"``: whole clusters
  as one unit, one whole-cluster shard each.

and enforces **equivalence**: bit-identical per-leaf telemetry,
per-cluster histories and fleet summaries — the packing changes
wall-clock, never numbers.  Both wall times and their ratio
are reported, not gated.

Measurements land in the git-ignored ``benchmarks/out/megafleet.json``
(path overridable via ``REPRO_BENCH_MEGAFLEET_OUT``);
``tools/bench_report.py`` folds them into the CI perf-trajectory
artifact.
"""

import dataclasses
import json
import os
import time

import numpy as np
from conftest import OUT_DIR, assert_same_leaves, capture_leaves, regenerate

from repro.fleet import partition_leaves
from repro.scenarios import compile_scenario
from repro.scenarios.library import mixed_fleet_1k_scenario

COMPRESSION = float(os.environ.get("REPRO_BENCH_MEGAFLEET_COMPRESSION",
                                   "72"))
OUT_ENV = "REPRO_BENCH_MEGAFLEET_OUT"
DEFAULT_OUT = os.path.join(OUT_DIR, "megafleet.json")
CLUSTER_FIELDS = ("t_s", "load", "root_latency_ms", "root_slo_fraction",
                  "emu")


def _scenario(engine: str):
    spec = mixed_fleet_1k_scenario(time_compression=COMPRESSION)
    if engine != spec.fleet.engine:
        spec = dataclasses.replace(
            spec, fleet=dataclasses.replace(spec.fleet, engine=engine))
    return spec


def _run_fleet(engine: str):
    """One execution plan of the 1000-leaf fleet, strictly in-process."""
    spec = _scenario(engine)
    return compile_scenario(spec).run(processes=1)


def test_bench_megafleet_speedup_and_equivalence(benchmark, monkeypatch):
    spec = _scenario("mega")
    total_leaves = spec.fleet.total_leaves()

    # The sharded packing first, at one process.  (Running it first
    # also charges the one-off DRAM model profiling to it — both
    # packings share the per-process memoized models.)
    seq_leaves = capture_leaves(monkeypatch)
    seq_start = time.perf_counter()
    sequential = _run_fleet("sharded")
    seq_wall = time.perf_counter() - seq_start

    # The whole-cluster packing (the benchmark timer records this run).
    mega_leaves = capture_leaves(monkeypatch)
    mega_start = time.perf_counter()
    mega = regenerate(benchmark, _run_fleet, "mega")
    mega_wall = time.perf_counter() - mega_start

    speedup = seq_wall / mega_wall
    shard_count = sum(len(partition_leaves(c.leaves, spec.fleet.shard_leaves))
                      for c in spec.fleet.clusters)
    warmup = spec.warmup_s

    print()
    print(f"{total_leaves}-leaf fleet, {spec.duration_s / 60:.0f} simulated "
          f"minutes (compression {COMPRESSION:.0f}x):")
    print(f"  sequential sharded ({shard_count} shards, 1 process): "
          f"{seq_wall:.2f}s wall")
    print(f"  mega (whole clusters, 1 process): {mega_wall:.2f}s wall "
          f"-> {speedup:.2f}x")

    # -- equivalence: the packing must never change a number ------------
    assert_same_leaves(mega_leaves, seq_leaves, "between packings")
    for seq_outcome in sequential.fleet.clusters:
        mega_outcome = mega.fleet.cluster(seq_outcome.name)
        assert mega_outcome.root_slo_ms == seq_outcome.root_slo_ms
        for name in CLUSTER_FIELDS:
            a = seq_outcome.history.column(name)
            b = mega_outcome.history.column(name)
            assert np.array_equal(a, b), (
                f"cluster {seq_outcome.name!r} column {name!r} diverged "
                f"between packings")
    seq_summary = sequential.fleet.summary(skip_s=warmup)
    mega_summary = mega.fleet.summary(skip_s=warmup)
    assert seq_summary == mega_summary, "fleet summaries diverged"
    print(f"  fleet EMU {mega_summary['fleet_emu']:.1%} (min "
          f"{mega_summary['min_fleet_emu']:.1%}), load-weighted root "
          f"latency {mega_summary['weighted_root_latency_ms']:.1f} ms "
          f"[bit-identical across packings]")

    report = {
        "benchmark": "test_bench_megafleet",
        "leaves": total_leaves,
        "clusters": len(spec.fleet.clusters),
        "shards_sequential": shard_count,
        "time_compression": COMPRESSION,
        "duration_s": spec.duration_s,
        "cpus": os.cpu_count() or 1,
        "wall_s_sequential": round(seq_wall, 2),
        "wall_s_mega": round(mega_wall, 2),
        "speedup": round(speedup, 2),
        "bit_identical": True,
    }
    out_path = os.environ.get(OUT_ENV, DEFAULT_OUT)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"  report: {out_path}")
