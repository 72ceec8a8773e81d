"""Long-horizon telemetry gate: chunked spill memory + checkpoint cost.

Two contractual properties of the PR-9 checkpoint/spill subsystem are
gated here:

* **spill memory**: a 1000-leaf, 7200-tick (two simulated hours at
  ``dt=1``) batch telemetry store kept fully in RAM must cost at least
  5x more resident history memory than the same store spilling chunks
  to disk — with the spilled column reading back exactly what the
  in-RAM store holds.
* **checkpoint resume**: an 8-leaf managed fleet saved at T/2 and
  resumed to T reproduces the straight run **bit-identically**, the
  resumed segment costs roughly half a straight run, and the archive
  is compact enough to branch from freely.

The measurements land in the git-ignored
``benchmarks/out/checkpoint.json`` (path overridable via
``REPRO_BENCH_CHECKPOINT_OUT``); ``tools/bench_report.py`` folds them
into the CI perf artifact.
"""

import json
import os
import time

import numpy as np
from conftest import OUT_DIR, regenerate

from repro.fleet import ClusterPlan, ShardedFleetSim
from repro.metrics.columns import BatchColumnStore
from repro.workloads.traces import websearch_cluster_trace

LEAVES = 1000
TICKS = 7200
CHUNK_ROWS = 512
MIN_SPILL_RATIO = 5.0

FLEET_LEAVES = 8
FLEET_DURATION_S = 240.0
FLEET_SEED = 3

OUT_ENV = "REPRO_BENCH_CHECKPOINT_OUT"
DEFAULT_OUT = os.path.join(OUT_DIR, "checkpoint.json")

FIELDS = [("t_s", np.float64), ("tail_latency_ms", np.float64),
          ("slo_fraction", np.float64), ("emu", np.float64),
          ("be_throughput_norm", np.float64), ("load", np.float64)]


def _fill(store):
    """Synthetic-but-shapely fleet telemetry, identical per call."""
    rng = np.random.default_rng(9)
    for k in range(TICKS):
        load = 0.5 + 0.4 * np.sin(2 * np.pi * k / 3600.0)
        noise = rng.standard_normal(LEAVES)
        tails = 18.0 + 30.0 * load + 2.0 * noise
        store.append_tick({
            "t_s": float(k),
            "tail_latency_ms": tails,
            "slo_fraction": tails / 70.0,
            "emu": 0.9 + 0.05 * noise,
            "be_throughput_norm": np.clip(1.0 - load + 0.1 * noise,
                                          0.0, 1.0),
            "load": np.full(LEAVES, load),
        })
    return store


def _long_horizon(spill_dir):
    """The benchmarked path: fill a store that spills chunks to disk."""
    return _fill(BatchColumnStore(FIELDS, n=LEAVES, spill_dir=spill_dir,
                                  spill_chunk_rows=CHUNK_ROWS))


def _fleet(events=()):
    return ShardedFleetSim(
        [ClusterPlan(name="bench", leaves=FLEET_LEAVES,
                     trace=websearch_cluster_trace(seed=FLEET_SEED),
                     seed=FLEET_SEED, events=tuple(events))],
        shard_leaves=FLEET_LEAVES)


def _dir_bytes(path):
    return sum(os.path.getsize(os.path.join(root, name))
               for root, _, names in os.walk(path) for name in names)


def test_bench_checkpoint_spill_and_resume(benchmark, tmp_path):
    # -- spill memory: in-RAM vs chunked store, same telemetry ---------
    spill_dir = str(tmp_path / "spill")
    spilled = regenerate(benchmark, _long_horizon, spill_dir)
    in_ram = _fill(BatchColumnStore(FIELDS, n=LEAVES))
    assert len(spilled) == len(in_ram) == TICKS

    in_ram_bytes = in_ram.nbytes(allocated=True)
    resident_bytes = spilled.nbytes(allocated=True)
    disk_bytes = _dir_bytes(spill_dir)
    spill_ratio = in_ram_bytes / resident_bytes

    # The spilled column materializes back to exactly what the in-RAM
    # store holds.
    assert np.array_equal(spilled.column("tail_latency_ms"),
                          in_ram.column("tail_latency_ms"))

    # -- checkpoint: save at T/2, resume to T, bit-identical -----------
    ckpt = str(tmp_path / "ckpt")
    start = time.perf_counter()
    straight = _fleet().run(FLEET_DURATION_S, processes=1)
    straight_s = time.perf_counter() - start
    start = time.perf_counter()
    _fleet().run(FLEET_DURATION_S, processes=1, checkpoint_dir=ckpt,
                 checkpoint_at_s=FLEET_DURATION_S / 2)
    save_run_s = time.perf_counter() - start
    start = time.perf_counter()
    resumed = _fleet().run(FLEET_DURATION_S, processes=1,
                           resume_from=ckpt)
    resume_run_s = time.perf_counter() - start

    a = straight.cluster("bench").history
    b = resumed.cluster("bench").history
    assert len(a) == len(b)
    identical = all(
        np.array_equal(a.column(name), b.column(name))
        for name in ("t_s", "load", "root_latency_ms",
                     "root_slo_fraction", "emu"))
    archive_bytes = _dir_bytes(ckpt)

    report = {
        "benchmark": "test_bench_checkpoint",
        "leaves": LEAVES,
        "ticks": TICKS,
        "spill_chunk_rows": CHUNK_ROWS,
        "history_bytes_in_ram": int(in_ram_bytes),
        "history_bytes_resident_spilled": int(resident_bytes),
        "history_bytes_on_disk": int(disk_bytes),
        "spill_memory_ratio": round(spill_ratio, 2),
        "fleet_leaves": FLEET_LEAVES,
        "fleet_duration_s": FLEET_DURATION_S,
        "checkpoint_archive_bytes": int(archive_bytes),
        "straight_run_s": round(straight_s, 3),
        "checkpointing_run_s": round(save_run_s, 3),
        "resumed_run_s": round(resume_run_s, 3),
        "resume_bit_identical": bool(identical),
    }
    out_path = os.environ.get(OUT_ENV, DEFAULT_OUT)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print()
    print(f"{LEAVES}-leaf, {TICKS}-tick history "
          f"({CHUNK_ROWS}-row chunks):")
    print(f"  resident: in-RAM {in_ram_bytes / 1e6:.1f} MB vs spilled "
          f"{resident_bytes / 1e6:.1f} MB -> {spill_ratio:.1f}x lower "
          f"({disk_bytes / 1e6:.1f} MB on disk)")
    print(f"  {FLEET_LEAVES}-leaf fleet, {FLEET_DURATION_S:.0f} s: "
          f"straight {straight_s:.2f} s, checkpointing {save_run_s:.2f} "
          f"s, resumed-half {resume_run_s:.2f} s "
          f"(archive {archive_bytes / 1e6:.2f} MB)")
    print(f"  report: {out_path}")

    assert spill_ratio >= MIN_SPILL_RATIO, (
        f"spill only bounds resident history to {spill_ratio:.2f}x "
        f"below in-RAM (need >= {MIN_SPILL_RATIO}x)")
    assert identical, "resumed fleet run diverged from the straight run"
