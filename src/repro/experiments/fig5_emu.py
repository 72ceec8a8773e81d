"""Figure 5: Effective Machine Utilization achieved by Heracles.

"In all cases, we achieve significant EMU increases.  When the two most
CPU-intensive and power-hungry workloads are combined, websearch and
brain, Heracles still achieves an EMU of at least 75%.  When websearch
is combined with the DRAM bandwidth intensive streetview, Heracles can
extract sufficient resources for a total EMU above 100% at websearch
loads between 25% and 70%" (§5.2).

Projection of the Figure 4 sweep onto mean EMU vs load, against the
no-colocation baseline (EMU = load).
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

from .fig4_latency_slo import DEFAULT_LOADS, ColocationSweep, run_sweep

#: The production-batch pairings Figure 5 plots.
FIG5_BE_TASKS = ("brain", "streetview")


def run_fig5(lc_names: Optional[Sequence[str]] = None,
             loads: Sequence[float] = DEFAULT_LOADS,
             duration_s: float = 900.0) -> Dict[str, ColocationSweep]:
    """EMU sweep for the LC x {brain, streetview} pairs."""
    lc_names = lc_names or ("websearch", "ml_cluster", "memkeyval")
    return {name: run_sweep(name, be_tasks=FIG5_BE_TASKS, loads=loads,
                            duration_s=duration_s)
            for name in lc_names}


def emu_table(sweeps: Dict[str, ColocationSweep]) -> Dict[str, list]:
    """Series dict for rendering: '<lc>+<be>' -> EMU-vs-load values."""
    series = {}
    for lc_name, sweep in sweeps.items():
        for be_name in sweep.results:
            series[f"{lc_name}+{be_name}"] = sweep.emu_series(be_name)
    return series


def main() -> None:
    from ..analysis.tables import render_load_series_table
    sweeps = run_fig5()
    loads = next(iter(sweeps.values())).loads
    series = {"baseline (EMU=load)": list(loads)}
    series.update(emu_table(sweeps))
    print(render_load_series_table(series, loads,
                                   title="Effective machine utilization"))


if __name__ == "__main__":
    main()
