"""Figure 7: memkeyval network bandwidth under Heracles with iperf.

memkeyval is network-bound at peak, and the iperf antagonist saturates
transmit bandwidth with mice flows — yet under Heracles the network
subcontroller caps the BE class via HTB so that "Heracles partitions
network transmit bandwidth correctly to protect the LC workload"
(§5.1).  This experiment records LC and BE egress bandwidth vs load:
the BE share shrinks as memkeyval's own traffic grows, and memkeyval
keeps its SLO throughout (its Figure 4 panel).  The points are the
memkeyval x iperf cells of the Figure 4 sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from ..hardware.spec import default_machine_spec
from .fig4_latency_slo import DEFAULT_LOADS, run_sweep


@dataclass
class NetworkBwPoint:
    load: float
    lc_gbps: float
    be_gbps: float
    worst_slo: float

    @property
    def total_gbps(self) -> float:
        return self.lc_gbps + self.be_gbps


def run_fig7(loads: Sequence[float] = DEFAULT_LOADS,
             duration_s: float = 900.0,
             seed: int = 0) -> List[NetworkBwPoint]:
    sweep = run_sweep("memkeyval", be_tasks=("iperf",), loads=loads,
                      duration_s=duration_s, seed=seed)
    return [NetworkBwPoint(
        load=result.load,
        lc_gbps=result.mean_lc_net_gbps,
        be_gbps=result.mean_be_net_gbps,
        worst_slo=result.history.worst_window_slo(skip_s=240.0))
        for result in sweep.results["iperf"]]


def main() -> None:
    from ..analysis.tables import render_load_series_table
    points = run_fig7()
    loads = [p.load for p in points]
    link = default_machine_spec().nic.link_gbps
    print(render_load_series_table(
        {
            "memkeyval bw (frac of link)": [p.lc_gbps / link for p in points],
            "iperf bw (frac of link)": [p.be_gbps / link for p in points],
            "worst tail (frac of SLO)": [p.worst_slo for p in points],
        },
        loads, title="memkeyval network bandwidth under Heracles"))


if __name__ == "__main__":
    main()
