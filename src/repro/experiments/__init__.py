"""Experiment harness: one module per paper figure, plus ablations.

* :mod:`repro.experiments.config` / :mod:`repro.experiments.runner` — sweep
  configuration and the protocol-agnostic measurement loop.
* :mod:`repro.experiments.fig1to5` — the protocol-illustration figures
  (deterministic schedule maps, reproduced verbatim).
* :mod:`repro.experiments.fig7` — average bandwidth vs arrival rate
  (stream tapping, UD, DHB, NPB; 99 segments, two-hour video).
* :mod:`repro.experiments.fig8` — maximum bandwidth vs arrival rate
  (UD, DHB, NPB).
* :mod:`repro.experiments.fig9` — compressed video: UD and DHB-a/b/c/d on
  the calibrated Matrix-like VBR trace.
* :mod:`repro.experiments.ablations` — heuristic/sharing/period ablations
  (DESIGN.md §6).
"""

from .config import SweepConfig
from .fig1to5 import render_figure, render_all_figures
from .fig7 import FIG7_PROTOCOLS, run_fig7
from .fig8 import FIG8_PROTOCOLS, run_fig8
from .fig9 import run_fig9
from .runner import measure_protocol, sweep_protocols

__all__ = [
    "FIG7_PROTOCOLS",
    "FIG8_PROTOCOLS",
    "SweepConfig",
    "measure_protocol",
    "render_all_figures",
    "render_figure",
    "run_fig7",
    "run_fig8",
    "run_fig9",
    "sweep_protocols",
]
