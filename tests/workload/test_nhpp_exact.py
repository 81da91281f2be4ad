"""Chunked NHPP thinning equals the per-candidate loop bit for bit.

The oracle is :mod:`tests.workload.nhpp_reference`: the literal thinning
loop and the scalar rate formulas.  Each case compares the trace and the
generator's end state (the next uniforms drawn after it).
"""

from functools import partial

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.units import HOUR
from repro.workload import arrivals
from repro.workload.arrivals import (
    NonHomogeneousPoisson,
    SuperposedArrivals,
    merge_arrivals,
)
from repro.workload.diurnal import (
    DiurnalArrivals,
    adult_evening_profile,
    child_daytime_profile,
)
from repro.workload.flash import FlashCrowd
from repro.workload.spatial import EventRings
from repro.workload.spec import WorkloadSpec

from .nhpp_reference import (
    diurnal_rate,
    flash_rate,
    reference_thinning,
    ring_rate,
)


def reference_rate_fn(process):
    """The scalar formula of ``process``'s family."""
    if isinstance(process, DiurnalArrivals):
        return partial(diurnal_rate, process.profile.hourly_rates)
    if isinstance(process, EventRings):
        return partial(ring_rate, process)
    if isinstance(process, FlashCrowd):
        return partial(flash_rate, process)
    return process.rate_fn


def reference_generate(process, horizon, rng):
    if isinstance(process, SuperposedArrivals):
        return merge_arrivals(
            *[reference_generate(part, horizon, rng) for part in process.processes]
        )
    return reference_thinning(
        reference_rate_fn(process), process.max_rate_per_hour, horizon, rng
    )


def assert_matches_reference(process, horizon, seed):
    rng, oracle = np.random.default_rng(seed), np.random.default_rng(seed)
    got = process.generate(horizon, rng)
    want = reference_generate(process, horizon, oracle)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert rng.random(4).tolist() == oracle.random(4).tolist()
    return got


def ring_spec(scale=1.0):
    return WorkloadSpec.ring(
        peak_rate_per_hour=400.0 * scale,
        n_rings=3,
        ring_delay_hours=0.5,
        attenuation=0.5,
        decay_hours=1.5,
        start_hours=19.0,
    )


def day_spec(scale=1.0):
    """The diurnal + event-ring day the benchmark generates, at ``scale`` x."""
    return WorkloadSpec.superpose(
        [WorkloadSpec.diurnal("child", 120.0 * scale), ring_spec(scale)]
    )


CASES = {
    "diurnal-child": (WorkloadSpec.diurnal("child", 300.0).process(), 48 * HOUR),
    "diurnal-adult": (WorkloadSpec.diurnal("adult", 300.0).process(), 30 * HOUR),
    "flash-inside-base0": (FlashCrowd(900.0, 1.5, 0.0, start_hours=20.0), 24 * HOUR),
    "flash-inside-base": (FlashCrowd(900.0, 1.5, 12.0, start_hours=3.0), 24 * HOUR),
    "flash-past-horizon": (FlashCrowd(900.0, 1.5, 30.0, start_hours=30.0), 24 * HOUR),
    "flash-past-base0": (FlashCrowd(900.0, 1.5, 0.0, start_hours=30.0), 24 * HOUR),
    "ring": (ring_spec(5.0).process(), 24 * HOUR),
    "day": (day_spec(10.0).process(), 24 * HOUR),
    "lambda": (
        NonHomogeneousPoisson(lambda t: 40.0 + 30.0 * np.sin(t / 5000.0), 70.0),
        24 * HOUR,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
@pytest.mark.parametrize("seed", [2001, 7])
def test_generate_equals_per_candidate_loop(name, seed):
    process, horizon = CASES[name]
    assert_matches_reference(process, horizon, seed)


CHUNKED = {
    "diurnal-adult": CASES["diurnal-adult"][0],
    "flash-inside-base": CASES["flash-inside-base"][0],
    "ring": ring_spec(1.0).process(),
    "lambda": CASES["lambda"][0],
}


@pytest.mark.parametrize("chunk", [1, 2, 7])
@pytest.mark.parametrize("name", sorted(CHUNKED))
def test_chunk_boundaries_do_not_change_the_stream(monkeypatch, name, chunk):
    monkeypatch.setattr(arrivals, "THINNING_CHUNK", chunk)
    assert len(assert_matches_reference(CHUNKED[name], 20 * HOUR, 4242)) > 0


def test_horizon_shorter_than_first_gap():
    process = NonHomogeneousPoisson(lambda t: 1.0, max_rate_per_hour=1.0)
    got = assert_matches_reference(process, 1e-9, 3)
    assert got.shape == (0,)


def test_bound_violation_names_the_reference_candidate():
    def rate_fn(t):
        return 5.0 if t < 1000.0 else 50.0

    process = NonHomogeneousPoisson(rate_fn, max_rate_per_hour=10.0)
    with pytest.raises(WorkloadError) as expected:
        reference_thinning(rate_fn, 10.0, 10 * HOUR, np.random.default_rng(11))
    with pytest.raises(WorkloadError) as raised:
        process.generate(10 * HOUR, np.random.default_rng(11))
    assert str(raised.value) == str(expected.value)
    assert "outside [0, 10.0]" in str(raised.value)


def rate_probe_times():
    """10^5 spread times plus every hour, hour midpoint, premiere and ring
    ignition of :data:`FAMILIES`, and the floats either side of each
    premiere and ignition."""
    rng = np.random.default_rng(5)
    spread = rng.uniform(-2 * HOUR, 60 * HOUR, size=100_000)
    midpoints = (np.arange(-24, 72) + 0.5) * HOUR
    hours = np.arange(-24, 72) * HOUR
    breakpoints = np.array([0.0, 3.0, 19.0, 19.5, 20.0, 20.5, 30.0]) * HOUR
    near = np.concatenate(
        [np.nextafter(breakpoints, -np.inf), np.nextafter(breakpoints, np.inf)]
    )
    return np.concatenate([spread, midpoints, hours, breakpoints, near])


FAMILIES = {
    "diurnal-child": DiurnalArrivals(child_daytime_profile(300.0)),
    "diurnal-adult": DiurnalArrivals(adult_evening_profile(77.7)),
    "flash": FlashCrowd(900.0, 1.5, 12.0, start_hours=3.0),
    "flash-base0": FlashCrowd(900.0, 0.7, 0.0, start_hours=20.0),
    "ring": ring_spec(3.0).process(),
    "ring-base": EventRings(600.0, 4, 0.5, 0.8, 1.0, 25.0, start_hours=19.0),
}


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_family_rates_equal_scalar_formula(name):
    process = FAMILIES[name]
    times = rate_probe_times()
    formula = reference_rate_fn(process)
    want = np.array([formula(t) for t in times.tolist()])
    assert np.array_equal(process.rates(times), want)
    for t in times[-40:].tolist():
        assert process.rate_at(t) == formula(t)


def test_diurnal_profile_rate_at_is_its_rates():
    profile = child_daytime_profile(300.0)
    times = rate_probe_times()[:1000]
    assert [profile.rate_at(t) for t in times.tolist()] == profile.rates(times).tolist()
