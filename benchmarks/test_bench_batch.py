"""Batched vs scalar cluster: throughput and equivalence gate.

Runs the Figure 8 websearch minicluster — 20 leaves, one simulated hour
of the 12-hour diurnal trace, Heracles on every leaf — once as the
managed arm of a ``cluster`` scenario (a one-cluster fleet on the
vectorized array engine) and once on the reference per-leaf scalar
:class:`~repro.cluster.cluster.WebsearchCluster`, under the same seed.
Asserts the two contractual properties of the batched path:

* **speedup**: the batched run completes at least 5x faster;
* **equivalence**: the reported cluster metrics (mean/min EMU, max root
  SLO fraction) match the scalar path within 1e-6.

The benchmark timer records the batched run; the scalar reference is
timed inside the same test so the ratio is computed on one machine
under identical conditions.  The speedup gate compares *process CPU
time*, not wall clock: both runs are compute-bound single-process
simulations, and CPU time is immune to background load on shared CI
runners (a wall-clock gate was observed to flake when the suite ran
under load).
"""

import time

from conftest import regenerate

from repro.cluster.cluster import WebsearchCluster
from repro.scenarios import ClusterSpec, ScenarioSpec, compile_scenario
from repro.workloads.traces import websearch_cluster_trace

LEAVES = 20
DURATION_S = 3600.0
SEED = 7
MIN_SPEEDUP = 5.0
METRIC_TOL = 1e-6


def _run_batched():
    """The managed arm of a ``cluster`` scenario; its default trace is
    ``websearch_cluster_trace(seed=SEED)``."""
    spec = ScenarioSpec(name="bench-cluster", duration_s=DURATION_S,
                        warmup_s=0.0, seed=SEED,
                        cluster=ClusterSpec(leaves=LEAVES,
                                            arms=("managed",)))
    return compile_scenario(spec).run(processes=1).cluster_arms["managed"]


def _run_scalar():
    cluster = WebsearchCluster(leaves=LEAVES,
                               trace=websearch_cluster_trace(seed=SEED),
                               seed=SEED)
    return cluster.run(DURATION_S)


def test_bench_batch_cluster_speedup_and_equivalence(benchmark):
    batch_cpu = time.process_time()
    batch_history = regenerate(benchmark, _run_batched)
    batch_elapsed = time.process_time() - batch_cpu

    scalar_cpu = time.process_time()
    scalar_history = _run_scalar()
    scalar_elapsed = time.process_time() - scalar_cpu

    speedup = scalar_elapsed / batch_elapsed
    print()
    print(f"{LEAVES}-leaf, {DURATION_S / 3600:.0f}-hour cluster: "
          f"batched {batch_elapsed:.2f}s, scalar {scalar_elapsed:.2f}s "
          f"CPU -> {speedup:.1f}x")
    metrics = [
        ("mean EMU", batch_history.mean_emu(), scalar_history.mean_emu()),
        ("min EMU", batch_history.min_emu(), scalar_history.min_emu()),
        ("max root SLO", batch_history.max_root_slo_fraction(),
         scalar_history.max_root_slo_fraction()),
    ]
    for name, got, want in metrics:
        print(f"  {name}: batched {got:.6f} scalar {want:.6f}")
        assert abs(got - want) <= METRIC_TOL, (
            f"{name} diverged: batched {got!r} vs scalar {want!r}")
    assert len(batch_history.records) == len(scalar_history.records)
    assert speedup >= MIN_SPEEDUP, (
        f"batched backend only {speedup:.2f}x faster (need "
        f">= {MIN_SPEEDUP}x)")
