"""Figure 4: LC tail latency under Heracles across loads and BE tasks.

"At all loads and in all colocation cases, there are no SLO violations
with Heracles" (§5.2) — the headline result.  For each LC workload and
each BE colocation, sweep load 5%..95% and record the worst-case
windowed tail latency as a fraction of the SLO, plus the no-colocation
baseline.

Figures 5, 6 and 7 are different projections of the same runs, so the
sweep is shared: :func:`run_sweep` returns the full
:class:`~repro.experiments.common.ColocationResult` grid and each
figure module extracts its series.

This module is a thin consumer of the scenario layer: the grid itself
is the registered ``fig4`` scenario (see
:func:`repro.scenarios.library.fig4_scenario`), which runs every cell
as one member of a batch, and ``python -m repro.cli fig4`` and
``python -m repro.cli scenario fig4`` run the same compiled spec.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from ..scenarios import compile_scenario, registry
from ..scenarios.library import (DEFAULT_LOADS,  # noqa: F401  (re-export)
                                 FIG4_BE_TASKS, fig4_scenario)
from ..workloads.latency_critical import LC_PROFILES
from .common import ColocationSweep


def run_sweep(lc_name: str,
              be_tasks: Sequence[str] = FIG4_BE_TASKS,
              loads: Sequence[float] = DEFAULT_LOADS,
              duration_s: float = 900.0,
              seed: int = 0) -> ColocationSweep:
    """Run the Heracles colocation grid for one LC workload.

    Compiles a parametrized ``fig4`` scenario spec and runs it: the
    (BE task x load) cells are the members of one batch.

    Args:
        lc_name: LC workload to sweep.
        be_tasks / loads: grid axes.
        duration_s: per-cell run length (warm-up stays the paper's
            240 s).
        seed: every cell's tail-noise seed.

    Returns:
        The populated :class:`ColocationSweep`.
    """
    if lc_name not in LC_PROFILES:
        raise KeyError(f"unknown LC workload {lc_name!r}")
    # The paper's 240 s warm-up, clamped so short smoke runs (which the
    # pre-scenario harness allowed) still validate instead of tripping
    # the spec's warmup < duration check.
    warmup_s = min(240.0, max(0.0, duration_s - 1.0))
    scenario = fig4_scenario(lc_tasks=(lc_name,), be_tasks=be_tasks,
                             loads=loads, duration_s=duration_s,
                             warmup_s=warmup_s, seed=seed)
    return compile_scenario(scenario).run().sweeps[lc_name]


def run_fig4(lc_names: Optional[Sequence[str]] = None,
             loads: Sequence[float] = DEFAULT_LOADS,
             duration_s: float = 900.0) -> Dict[str, ColocationSweep]:
    """The full Figure 4 grid (shared by Figs. 5-7)."""
    lc_names = lc_names or sorted(LC_PROFILES)
    return {name: run_sweep(name, loads=loads, duration_s=duration_s)
            for name in lc_names}


def main() -> None:
    """Regenerate the Figure 4 tables (the registered ``fig4`` scenario)."""
    print(compile_scenario(registry.get("fig4")).run().render(), end="")


if __name__ == "__main__":
    main()
