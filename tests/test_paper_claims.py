"""The paper's headline claims, checked on every engine.

Goldens pin each engine to its own past output; these tests pin the
engines to the paper.  §5.3 / Figure 8: with Heracles on every leaf of
the websearch cluster, "the latency at the root satisfies the SLO"
while cluster utilization (EMU) rises well above the no-colocation
baseline.  The same seeded cluster runs on the scalar reference, as
the ``fig8`` cluster scenario (``batch``: what ``repro fig8`` and the
benchmark run) and as a hand-built one-cluster fleet, so a refactor of
any engine or of the scenario lowering that drifts from the paper
fails here even if it drifts consistently.

The paper's ~0.90 mean EMU is not asserted for Fig 8: this model
reads about 0.78 at the setting below (see ROADMAP, "Paper fidelity,
gap").

§5.2 / Figures 4-5: across the colocation sweeps, Heracles "never
violates the SLO" for any LC task, BE task or load, while the sweep
averages ~90% EMU.  Every cell of the three LC tasks x six BE tasks x
three loads grid is checked on the scalar reference engine.
"""

import importlib.util
import os

import pytest

from repro.cluster.cluster import WebsearchCluster
from repro.fleet import ClusterPlan, ShardedFleetSim
from repro.scenarios import library, run_scenario
from repro.workloads.latency_critical import LC_PROFILES
from repro.workloads.traces import DiurnalTrace

#: The benchmark's fig8-cluster setting: 20 leaves, the 12-hour diurnal
#: trace compressed 48x (one 900 s period), half the run as warm-up.
LEAVES = 20
DURATION_S = 12 * 3600.0 / 48
WARMUP_S = 0.5 * DURATION_S
SEED = 3

#: The Fig 4/5 setting: 360 s cells, the first 240 s warm-up (two 60 s
#: windows per cell), at a low, a middle and a high load.
FIG4_LOADS = (0.25, 0.55, 0.85)
FIG4_DURATION_S = 360.0
FIG4_WARMUP_S = 240.0
#: The paper's average EMU across the Fig 4-7 colocations.
PAPER_EMU = 0.90


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
                               seed=SEED, managed=managed)
    return cluster.run(DURATION_S)


@pytest.fixture(scope="module", params=["scalar", "batch", "fleet"])
def arms(request):
    if request.param == "batch":
        spec = library.fig8_scenario(leaves=LEAVES, time_compression=48.0,
                                     seed=SEED)
        assert (spec.duration_s, spec.warmup_s) == (DURATION_S, WARMUP_S)
        result = run_scenario(spec, processes=1)
        return (result.cluster_arms["managed"],
                result.cluster_arms["baseline"])
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


@pytest.fixture(scope="module", params=sorted(LC_PROFILES))
def fig4_cells(request):
    """Every cell of one LC task's Fig 4 sweep (six BE tasks x loads)."""
    spec = library.fig4_scenario(lc_tasks=[request.param],
                                 loads=FIG4_LOADS,
                                 duration_s=FIG4_DURATION_S,
                                 warmup_s=FIG4_WARMUP_S)
    result = run_scenario(spec, processes=1)
    return [cell for grid in result.sweeps.values()
            for row in grid.results.values() for cell in row]


def test_fig4_sweep_never_violates_slo(fig4_cells):
    windows = [window_violations(cell.history.times(),
                                 cell.history.column("slo_fraction"),
                                 FIG4_WARMUP_S)
               for cell in fig4_cells]
    assert len(fig4_cells) == 6 * len(FIG4_LOADS)
    assert all(total > 0 for _, total in windows)
    assert sum(violating for violating, _ in windows) == 0


def test_fig4_sweep_mean_emu_near_paper(fig4_cells):
    mean_emu = sum(cell.mean_emu for cell in fig4_cells) / len(fig4_cells)
    assert abs(mean_emu - PAPER_EMU) <= 0.05
