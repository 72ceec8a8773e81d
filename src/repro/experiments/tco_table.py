"""§5.3 TCO analysis table.

Paper numbers, reproduced by :class:`~repro.analysis.tco.TcoModel`:

* 75% baseline utilization raised to 90% by Heracles: ~15%
  throughput/TCO improvement (we measure ~17%);
* 20% baseline raised to 90%: ~306% (we measure ~306%);
* an energy-proportionality controller instead: ~3% at 75% baseline
  (we measure ~2%), <7% at 20% (we measure ~6.5%).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from ..analysis.tco import TcoModel


@dataclass
class TcoRow:
    baseline_utilization: float
    heracles_utilization: float
    heracles_gain: float
    energy_prop_gain: float


def run_tco_table(model: Optional[TcoModel] = None,
                  heracles_utilization: float = 0.90) -> List[TcoRow]:
    model = model or TcoModel()
    rows = []
    for baseline in (0.75, 0.50, 0.20):
        rows.append(TcoRow(
            baseline_utilization=baseline,
            heracles_utilization=heracles_utilization,
            heracles_gain=model.throughput_per_tco_gain(
                baseline, heracles_utilization),
            energy_prop_gain=model.energy_proportionality_gain(baseline),
        ))
    return rows


def main() -> None:
    from ..analysis.tables import render_table
    rows = run_tco_table()
    print(render_table(
        ["baseline util", "Heracles util", "Heracles tput/TCO",
         "energy-prop tput/TCO"],
        [[f"{r.baseline_utilization:.0%}",
          f"{r.heracles_utilization:.0%}",
          f"+{r.heracles_gain:.1%}",
          f"+{r.energy_prop_gain:.1%}"] for r in rows],
        title="Throughput/TCO improvements (10,000-server cluster)"))


if __name__ == "__main__":
    main()
