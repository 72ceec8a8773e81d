"""Reporting: the TCO model and table rendering."""

from .tables import render_load_series_table, render_table
from .tco import TcoModel, TcoParameters

__all__ = [
    "render_load_series_table", "render_table",
    "TcoModel", "TcoParameters",
]
