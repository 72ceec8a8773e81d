"""Plain-text rendering of result tables.

The paper's artefacts are figures; a terminal reproduction renders the
same data as aligned text tables, which the experiment harnesses print
next to the paper's values.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def render_table(headers: Sequence[str],
                 rows: Sequence[Sequence[str]],
                 title: str = "") -> str:
    """Align a list of string rows under headers."""
    if not headers:
        raise ValueError("need at least one column")
    for row in rows:
        if len(row) != len(headers):
            raise ValueError("row width does not match headers")
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(str(cell)))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(str(c).ljust(widths[i])
                               for i, c in enumerate(row)))
    return "\n".join(lines)


def render_load_series_table(series_by_name: Dict[str, Sequence[float]],
                             loads: Sequence[float],
                             title: str = "",
                             y_format: str = "{:.2f}") -> str:
    """Many series sharing one load axis (the Fig. 4-7 layout)."""
    headers = ["series"] + [f"{int(round(l * 100))}%" for l in loads]
    rows: List[List[str]] = []
    for name, values in series_by_name.items():
        if len(values) != len(loads):
            raise ValueError(f"series {name!r} length mismatch")
        rows.append([name] + [y_format.format(v) for v in values])
    return render_table(headers, rows, title=title)
