"""The paper's published Figure 1 cells, for quantitative comparison.

Transcribed from the ISCA 2015 paper's Figure 1 ("Impact of
interference on shared resources on websearch, ml_cluster, and
memkeyval").  Values are tail latency as a percent of the SLO; the
paper clips its display at ">300%", recorded here as 350.

:func:`figure1_agreement` scores a regenerated table against this data
with the binary violation/no-violation criterion (the decision the
controller actually acts on); ``tests/test_paper_data.py`` holds the
regenerated table to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from ..workloads.traces import load_sweep

#: Display value the paper uses for saturated (">300%") cells.
SATURATED = 3.5


def _row(text: str) -> List[float]:
    values = [float(x) / 100.0 for x in text.split()]
    if len(values) != 19:
        raise ValueError("each Figure 1 row has 19 load points")
    return values


PAPER_FIG1: Dict[str, Dict[str, List[float]]] = {
    "websearch": {
        "LLC (small)": _row("134 103 96 96 109 102 100 96 96 104 99 100 "
                            "101 100 104 103 104 103 99"),
        "LLC (med)": _row("152 106 99 99 116 111 109 103 105 116 109 108 "
                          "107 110 123 125 114 111 101"),
        "LLC (big)": _row("350 350 350 350 350 350 350 350 350 350 350 350 "
                          "350 350 350 264 222 123 102"),
        "DRAM": _row("350 350 350 350 350 350 350 350 350 350 350 350 350 "
                     "350 350 270 228 122 103"),
        "HyperThread": _row("81 109 106 106 104 113 106 114 113 105 114 "
                            "117 118 119 122 136 350 350 350"),
        "CPU power": _row("190 124 110 107 134 115 106 108 102 114 107 105 "
                          "104 101 105 100 98 99 97"),
        "Network": _row("35 35 36 36 36 36 36 37 37 38 39 41 44 48 51 55 "
                        "58 64 95"),
        "brain": _row("158 165 157 173 160 168 180 230 350 350 350 350 350 "
                      "350 350 350 350 350 350"),
    },
    "ml_cluster": {
        "LLC (small)": _row("101 88 99 84 91 110 96 93 100 216 117 106 119 "
                            "105 182 206 109 202 203"),
        "LLC (med)": _row("98 88 102 91 112 115 105 104 111 350 282 212 "
                          "237 220 220 212 215 205 201"),
        "LLC (big)": _row("350 350 350 350 350 350 350 350 350 350 350 350 "
                          "350 350 276 250 223 214 206"),
        "DRAM": _row("350 350 350 350 350 350 350 350 350 350 350 350 350 "
                     "350 350 287 230 223 211"),
        "HyperThread": _row("113 109 110 111 104 100 97 107 111 112 114 "
                            "114 114 119 121 130 259 262 262"),
        "CPU power": _row("112 101 97 89 91 86 89 90 89 92 91 90 89 89 90 "
                          "92 94 97 106"),
        "Network": _row("57 56 58 60 58 58 58 58 59 59 59 59 59 63 63 67 "
                        "76 89 113"),
        "brain": _row("151 149 174 189 193 202 209 217 225 239 350 350 279 "
                      "350 350 350 350 350 350"),
    },
    "memkeyval": {
        "LLC (small)": _row("115 88 88 91 99 101 79 91 97 101 135 138 148 "
                            "140 134 150 114 78 70"),
        "LLC (med)": _row("209 148 159 107 207 119 96 108 117 138 170 230 "
                          "182 181 167 162 144 100 104"),
        "LLC (big)": _row("350 350 350 350 350 350 350 350 350 350 350 350 "
                          "350 280 225 222 170 79 85"),
        "DRAM": _row("350 350 350 350 350 350 350 350 350 350 350 350 350 "
                     "350 252 234 199 103 100"),
        "HyperThread": _row("26 31 32 32 32 32 33 35 39 43 48 51 56 62 81 "
                            "119 116 153 350"),
        "CPU power": _row("192 277 237 294 350 350 219 350 292 224 350 252 "
                          "227 193 163 167 122 82 123"),
        "Network": _row("27 28 28 29 29 27 350 350 350 350 350 350 350 350 "
                        "350 350 350 350 350"),
        "brain": _row("197 232 350 350 350 350 350 350 350 350 350 350 350 "
                      "350 350 350 350 350 350"),
    },
}


@dataclass
class AgreementReport:
    """Binary violation/no-violation agreement with the paper's cells."""

    agreed: int
    total: int
    per_row: Dict[tuple, int]

    @property
    def fraction(self) -> float:
        return self.agreed / self.total


def figure1_agreement(tables) -> AgreementReport:
    """Score regenerated Figure 1 tables against the published cells.

    Args:
        tables: the dict returned by
            :func:`repro.experiments.fig1_interference.run_fig1` run at
            the full 19-point load axis.
    """
    loads = load_sweep()
    agreed = 0
    total = 0
    per_row: Dict[tuple, int] = {}
    for lc_name, rows in PAPER_FIG1.items():
        table = tables[lc_name]
        for antagonist, paper_values in rows.items():
            row_agree = 0
            for load, paper_value in zip(loads, paper_values):
                ours = table.cell(antagonist, load) > 1.0
                theirs = paper_value > 1.0
                total += 1
                if ours == theirs:
                    agreed += 1
                    row_agree += 1
            per_row[(lc_name, antagonist)] = row_agree
    return AgreementReport(agreed=agreed, total=total, per_row=per_row)
