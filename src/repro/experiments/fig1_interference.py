"""Figure 1: impact of interference on shared resources.

Regenerates the paper's characterization table: for each of the three LC
workloads, each of the eight antagonist rows, and nineteen load points
(5%..95%), the tail latency normalized to the SLO.  The paper
color-codes the cells (red >= 120% of the SLO, yellow 100-120%, green
<= 100%); the plain-text table prints the percentages.

The paper's headline observations, all of which this experiment checks:

1. OS isolation alone (the ``brain`` row) violates the SLO at nearly
   every load for every workload.
2. LLC (big) and DRAM antagonists are catastrophic at low/mid load and
   fade as the LC workload grows to defend its resources.
3. HyperThread interference is modest until high load, then severe.
4. The power virus hurts most at low load (many antagonist cores).
5. Network antagonists crush memkeyval from ~35% load but leave
   websearch and ml_cluster untouched.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..hardware.spec import MachineSpec, default_machine_spec
from ..workloads.antagonists import figure1_antagonists
from ..workloads.latency_critical import LC_PROFILES, make_lc_workload
from ..workloads.traces import load_sweep
from .common import characterization_cell


@dataclass
class InterferenceTable:
    """One workload's block of Figure 1."""

    lc_name: str
    loads: List[float]
    rows: Dict[str, List[float]] = field(default_factory=dict)

    def cell(self, antagonist: str, load: float) -> float:
        return self.rows[antagonist][self.loads.index(load)]

    def render(self) -> str:
        """Plain-text rendering in the paper's layout."""
        width = max(len(name) for name in self.rows) + 2
        header = " " * width + " ".join(f"{int(l * 100):>5d}%"
                                        for l in self.loads)
        lines = [self.lc_name, header]
        for name, values in self.rows.items():
            cells = " ".join(_format_cell(v) for v in values)
            lines.append(f"{name:<{width}}" + cells)
        return "\n".join(lines)


def _format_cell(slo_fraction: float) -> str:
    if slo_fraction > 3.0:
        return " >300%"
    return f"{slo_fraction * 100:>5.0f}%"


def run_fig1(lc_names: Optional[List[float]] = None,
             loads: Optional[List[float]] = None,
             spec: Optional[MachineSpec] = None) -> Dict[str, InterferenceTable]:
    """Compute the full Figure 1 grid (or a subset)."""
    spec = spec or default_machine_spec()
    lc_names = lc_names or sorted(LC_PROFILES)
    loads = loads or load_sweep()
    antagonists = figure1_antagonists(spec)
    tables = {}
    for lc_name in lc_names:
        lc = make_lc_workload(lc_name, spec)
        table = InterferenceTable(lc_name=lc_name, loads=list(loads))
        for antagonist in antagonists:
            values = []
            for load in loads:
                result = characterization_cell(lc, antagonist, load, spec)
                values.append(result.slo_fraction)
            table.rows[antagonist.label] = values
        tables[lc_name] = table
    return tables


def main() -> None:
    tables = run_fig1()
    for table in tables.values():
        print(table.render())
        print()


if __name__ == "__main__":
    main()
