"""Measurement reduction, closed-form models, and reporting.

* :mod:`repro.analysis.theory` — analytic anchors: harmonic saturation
  bandwidth, FB/NPB/SB stream counts, the optimal patching window and cost
  rate under Poisson arrivals, the Eager–Vernon–Zahorjan lower bound.
* :mod:`repro.analysis.metrics` — result records shared by the harness.
* :mod:`repro.analysis.tables` — plain-text series/table rendering (the
  reproduction reports figures as printed series, like the paper's plots).
"""

from .metrics import BandwidthPoint, ProtocolSeries
from .tables import format_series_table, format_simple_table
from .theory import (
    batching_cost_rate,
    dhb_saturation_bandwidth,
    evz_lower_bound,
    harmonic_number,
    optimal_patching_window,
    patching_cost_rate,
)

__all__ = [
    "BandwidthPoint",
    "ProtocolSeries",
    "batching_cost_rate",
    "dhb_saturation_bandwidth",
    "evz_lower_bound",
    "format_series_table",
    "format_simple_table",
    "harmonic_number",
    "optimal_patching_window",
    "patching_cost_rate",
]
