"""Columnar telemetry gate: history memory and summary-metric speed.

Runs the PR-3 reference workload — a 20-leaf diurnal colocation batch
(websearch + brain/streetview under Heracles, the Figure 8 shape) with
full per-member history recording — and gates the two contractual
properties of the columnar telemetry subsystem:

* **memory**: the recorded history must be at least 5x smaller than
  the list-of-``TickRecord``-dataclass layout it replaced.  The legacy
  cost is measured, not assumed: the benchmark materializes the same
  run as the old per-member record lists and deep-sizes them
  (``sys.getsizeof`` over instances, their ``__dict__``s, their boxed
  field values, and the list slots).
* **speed**: computing the reported aggregates (worst 60 s SLO window,
  mean EMU) over the columnar store must beat the legacy records scan
  (the old implementation's list-comprehension-then-ndarray path,
  reproduced verbatim below).

The measurements land in the git-ignored ``benchmarks/out/metrics.json``
(path overridable via ``REPRO_BENCH_OUT``) so the perf trajectory of the
telemetry layer is recorded run over run; ``tools/bench_report.py``
wraps this benchmark plus the batched-backend gate into the CI artifact.
"""

import json
import os
import sys
import time

import numpy as np
from conftest import OUT_DIR, regenerate

from repro.core.dram_model import profile_lc_dram_model
from repro.sim.batch import BatchColocationSim
from repro.workloads.best_effort import make_be_workload
from repro.workloads.latency_critical import make_lc_workload
from repro.workloads.traces import websearch_cluster_trace

LEAVES = 20
DURATION_S = 1800.0
SEED = 7
MIN_MEMORY_RATIO = 5.0
OUT_ENV = "REPRO_BENCH_OUT"
DEFAULT_OUT = os.path.join(OUT_DIR, "metrics.json")


def _run_batch():
    """The 20-leaf diurnal managed run, full history recording on."""
    spec = make_lc_workload("websearch").spec
    lc = make_lc_workload("websearch", spec)
    be_by_name = {name: make_be_workload(name, spec)
                  for name in ("brain", "streetview")}
    bes = [be_by_name["brain" if i % 2 == 0 else "streetview"]
           for i in range(LEAVES)]
    batch = BatchColocationSim(
        lc=lc, trace=websearch_cluster_trace(seed=SEED), bes=bes,
        spec=spec, seeds=[SEED * 1000 + i for i in range(LEAVES)],
        record_history=True)
    batch.attach_vec_heracles(dram_model=profile_lc_dram_model(lc))
    batch.run(DURATION_S)
    return batch


def _deep_record_bytes(records) -> int:
    """Bytes one legacy list-of-dataclass history actually held.

    Instance + per-instance ``__dict__`` + the boxed float field
    values + the list's pointer slot.  Interned values (small ints,
    bools, None) are free, exactly as they were in the legacy layout.
    """
    total = sys.getsizeof(records)
    for record in records:
        total += sys.getsizeof(record) + sys.getsizeof(record.__dict__)
        total += sum(sys.getsizeof(v) for v in record.__dict__.values()
                     if isinstance(v, float))
    return total


def _legacy_compact_bytes(ticks: int, n: int) -> int:
    """Bytes of the legacy compact ``BatchHistory`` for the same run.

    The old batch engine kept this *in addition* to the per-member
    record lists (the single columnar store replaces both): a Python
    list of timestamps plus, for each of the 5 observables, a list
    holding one freshly-allocated (N,) float64 array per tick.
    """
    per_array = sys.getsizeof(np.zeros(n))  # header + N float64
    per_tick = 5 * (per_array + 8) + (24 + 8)  # arrays+slots, boxed t_s
    return ticks * per_tick


def _legacy_worst_window_slo(records, window_s=60.0, skip_s=0.0):
    """The retired SimHistory.worst_window_slo, verbatim."""
    vals = [r.slo_fraction for r in records if r.t_s >= skip_s]
    if not vals:
        return 0.0
    span = records[-1].t_s - records[0].t_s
    dt_s = span / (len(records) - 1) if span > 0 else 1.0
    width = max(1, int(round(window_s / dt_s)))
    if len(vals) < width:
        return float(np.mean(vals))
    series = np.array(vals, dtype=float)
    csum = np.cumsum(np.insert(series, 0, 0.0))
    windows = (csum[width:] - csum[:-width]) / width
    return float(windows.max())


def _legacy_mean_emu(records, skip_s=0.0):
    """The retired SimHistory.mean_emu, verbatim."""
    vals = [r.emu for r in records if r.t_s >= skip_s]
    return float(np.mean(vals)) if vals else 0.0


def test_bench_metrics_memory_and_speed(benchmark):
    batch = regenerate(benchmark, _run_batch)
    ticks = len(batch.history)
    assert ticks == int(DURATION_S)

    # -- memory: columnar store vs the legacy dataclass lists ----------
    columnar_bytes = batch.history.store.nbytes()
    legacy_lists = [m.history.records for m in batch.members]
    legacy_bytes = (sum(_deep_record_bytes(records)
                        for records in legacy_lists)
                    + _legacy_compact_bytes(ticks, LEAVES))
    memory_ratio = legacy_bytes / columnar_bytes

    # -- speed: reported aggregates, columnar vs legacy records scan ---
    start = time.perf_counter()
    legacy_summaries = [
        (_legacy_worst_window_slo(records, skip_s=600.0),
         _legacy_mean_emu(records, skip_s=600.0))
        for records in legacy_lists
    ]
    legacy_metric_s = time.perf_counter() - start

    start = time.perf_counter()
    columnar_summaries = [
        (m.history.worst_window_slo(skip_s=600.0),
         m.history.mean_emu(skip_s=600.0))
        for m in batch.members
    ]
    columnar_metric_s = time.perf_counter() - start

    for (got_w, got_e), (want_w, want_e) in zip(columnar_summaries,
                                                legacy_summaries):
        assert abs(got_w - want_w) <= 1e-12
        assert abs(got_e - want_e) <= 1e-12

    report = {
        "benchmark": "test_bench_metrics",
        "leaves": LEAVES,
        "duration_s": DURATION_S,
        "ticks": ticks,
        "history_bytes_columnar": int(columnar_bytes),
        "history_bytes_legacy": int(legacy_bytes),
        "history_memory_ratio": round(memory_ratio, 2),
        "summary_metrics_s_columnar": round(columnar_metric_s, 6),
        "summary_metrics_s_legacy": round(legacy_metric_s, 6),
        "summary_metrics_speedup": round(
            legacy_metric_s / max(columnar_metric_s, 1e-9), 1),
    }
    out_path = os.environ.get(OUT_ENV, DEFAULT_OUT)
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")

    print()
    print(f"{LEAVES}-leaf, {DURATION_S / 60:.0f}-minute diurnal run "
          f"({ticks} ticks):")
    print(f"  history memory: columnar {columnar_bytes / 1e6:.1f} MB vs "
          f"legacy {legacy_bytes / 1e6:.1f} MB -> "
          f"{memory_ratio:.1f}x smaller")
    print(f"  summary metrics: columnar {columnar_metric_s * 1e3:.1f} ms "
          f"vs legacy {legacy_metric_s * 1e3:.1f} ms -> "
          f"{report['summary_metrics_speedup']:.0f}x faster")
    print(f"  report: {out_path}")

    assert memory_ratio >= MIN_MEMORY_RATIO, (
        f"columnar history only {memory_ratio:.2f}x smaller than the "
        f"legacy record lists (need >= {MIN_MEMORY_RATIO}x)")
    assert columnar_metric_s < legacy_metric_s, (
        f"columnar summaries ({columnar_metric_s:.4f}s) not faster than "
        f"the legacy records scan ({legacy_metric_s:.4f}s)")
