"""Plain-text rendering of result tables and series.

The paper's artefacts are figures; a terminal reproduction renders the
same data as aligned text tables and simple sparkline-style series,
which the experiment harnesses print next to the paper's values.
"""

from __future__ import annotations

from typing import Dict, List, Sequence


def format_percent(value: float, saturate_at: float = 3.0) -> str:
    """Format an SLO fraction the way Figure 1 prints cells."""
    if value > saturate_at:
        return f">{saturate_at * 100:.0f}%"
    return f"{value * 100:.0f}%"


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


def render_series(name: str, xs: Sequence[float], ys: Sequence[float],
                  x_format: str = "{:.0%}", y_format: str = "{:.2f}") -> str:
    """One labelled (x, y) series as two aligned rows."""
    if len(xs) != len(ys):
        raise ValueError("x and y lengths differ")
    x_cells = [x_format.format(x) for x in xs]
    y_cells = [y_format.format(y) for y in ys]
    width = max((max(len(a), len(b)) for a, b in zip(x_cells, y_cells)),
                default=1)
    header = " ".join(c.rjust(width) for c in x_cells)
    values = " ".join(c.rjust(width) for c in y_cells)
    return f"{name}\n  x: {header}\n  y: {values}"


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
