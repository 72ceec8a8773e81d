"""The paper's headline claims, checked on every engine.

Goldens pin each engine to its own past output; these tests pin the
engines to the paper.  §5.3 / Figure 8: with Heracles on every leaf of
the websearch cluster, "the latency at the root satisfies the SLO"
while cluster utilization (EMU) rises well above the no-colocation
baseline.  The same seeded cluster runs on the scalar reference, the
batch engine and a one-cluster fleet, so a refactor of any engine that
drifts from the paper fails here even if it drifts consistently.

The paper's ~0.90 mean EMU is not asserted: this model reads about
0.78 at the setting below (see ROADMAP, "Paper fidelity, gap").
"""

import importlib.util
import os

import pytest

from repro.cluster.cluster import WebsearchCluster
from repro.fleet import ClusterPlan, ShardedFleetSim
from repro.workloads.traces import DiurnalTrace

#: The benchmark's fig8-cluster setting: 20 leaves, the 12-hour diurnal
#: trace compressed 48x (one 900 s period), half the run as warm-up.
LEAVES = 20
DURATION_S = 12 * 3600.0 / 48
WARMUP_S = 0.5 * DURATION_S
SEED = 3


def _load_window_violations():
    """The benchmark's window rule, ``perfbench/workloads.py``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir,
                        "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.window_violations


window_violations = _load_window_violations()


def fig8_trace():
    return DiurnalTrace(low=0.20, high=0.90, period_s=DURATION_S,
                        noise_sigma=0.02, seed=SEED)


def run_cluster(engine, managed):
    """One arm's cluster history on ``engine``."""
    if engine == "fleet":
        fleet = ShardedFleetSim(
            [ClusterPlan(name="fig8", leaves=LEAVES, trace=fig8_trace(),
                         seed=SEED, managed=managed)],
            shard_leaves=LEAVES, engine="mega")
        return fleet.run(DURATION_S).clusters[0].history
    cluster = WebsearchCluster(leaves=LEAVES, trace=fig8_trace(),
                               seed=SEED, managed=managed, engine=engine)
    return cluster.run(DURATION_S)


@pytest.fixture(scope="module", params=["scalar", "batch", "fleet"])
def arms(request):
    return (run_cluster(request.param, managed=True),
            run_cluster(request.param, managed=False))


def test_root_latency_within_slo(arms):
    managed, _ = arms
    violating, total = window_violations(
        managed.times(), managed.column("root_slo_fraction"), WARMUP_S)
    assert total > 0
    assert violating == 0


def test_managed_emu_above_baseline(arms):
    managed, baseline = arms
    assert (managed.mean_emu(skip_s=WARMUP_S)
            > baseline.mean_emu(skip_s=WARMUP_S))
