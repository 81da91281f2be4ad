"""The columnar hot path reproduces the pre-runtime goldens exactly.

``golden_runtime.json`` predates the columnar path entirely, so matching it
is the strongest equivalence statement available: the batched driver and the
per-request admission agree bit for bit on the full figure-7 sweep.  This
module also pins *which* admission the runtime actually takes, so the golden
match cannot silently degenerate into per-request vs per-request.
"""

import json
import pathlib

import pytest

from repro.experiments.config import SweepConfig
from repro.experiments.fig7 import FIG7_PROTOCOLS, run_fig7
from repro.experiments.runner import arrivals_for_rate, measure_protocol
from repro.protocols.registry import ProtocolContext, build_protocol
from repro.runtime import Engine
from repro.sim import slotted
from repro.sim.slotted import SlottedModel

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "golden_runtime.json").read_text()
)

QUICK = SweepConfig().quick()


def golden_fig7_points():
    """Flat (name, label, rate, golden point) grid for the quick sweep."""
    for (name, label), series in zip(FIG7_PROTOCOLS, GOLDEN["fig7_quick"]):
        assert series["protocol"] == label
        for rate, point in zip(QUICK.rates_per_hour, series["points"]):
            yield name, label, rate, point


def point_dump(point):
    return {
        "rate_per_hour": point.rate_per_hour,
        "mean_bandwidth": point.mean_bandwidth,
        "max_bandwidth": point.max_bandwidth,
        "mean_wait": point.mean_wait,
        "n_requests": point.n_requests,
    }


def quick_protocol(name, rate):
    return build_protocol(
        name,
        ProtocolContext(
            n_segments=QUICK.n_segments,
            duration=QUICK.duration,
            rate_per_hour=rate,
        ),
    )


@pytest.mark.parametrize("columnar", [True, False])
def test_every_fig7_cell_matches_golden_on_both_paths(columnar):
    for name, label, rate, golden in golden_fig7_points():
        point = measure_protocol(
            quick_protocol(name, rate),
            QUICK,
            rate,
            arrival_times=arrivals_for_rate(QUICK, rate),
            columnar=columnar,
        )
        assert point_dump(point) == golden, (label, rate, columnar)


def test_sweep_points_actually_run_columnar(monkeypatch):
    """The runtime's slotted cells admit through ``handle_batch``."""
    columnar_runs = []
    original = slotted.SlottedSimulation.run

    def spy(self, arrivals):
        result = original(self, arrivals)
        columnar_runs.append(result.columnar)
        return result

    monkeypatch.setattr(slotted.SlottedSimulation, "run", spy)
    run_fig7(QUICK, engine=Engine(n_jobs=1))
    slotted_cells = sum(
        isinstance(quick_protocol(name, rate), SlottedModel)
        for name, _ in FIG7_PROTOCOLS
        for rate in QUICK.rates_per_hour
    )
    assert columnar_runs == [True] * slotted_cells
    assert slotted_cells > 0
