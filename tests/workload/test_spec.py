"""Tests for repro.workload.spec: the grammar, digests, and coercions.

Covers the nonstationary-workload contract end to end: table-driven
parsing (valid and malformed specs), label round-trips, cross-process
digest stability (the property the digest-keyed trace cache and
checkpoint keys rest on), `as_workload` coercions, plus hypothesis
properties of the arrival processes the specs materialize (NHPP thinning
counts against the integrated rate; FlashCrowd / MMPP / EventRings mean
rates against their closed forms).
"""

import inspect
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.experiments.adaptive import default_day_workload
from repro.units import HOUR
from repro.workload import (
    WORKLOAD_GRAMMAR,
    EventRings,
    FlashCrowd,
    MMPPArrivals,
    NonHomogeneousPoisson,
    PoissonArrivals,
    SuperposedArrivals,
    WorkloadSpec,
    as_workload,
    parse_workload,
)
from repro.workload.arrivals import DeterministicArrivals, TraceArrivals
from repro.workload.spec import _KIND_TABLE, _canonical

# ---------------------------------------------------------------------------
# Grammar: valid specs
# ---------------------------------------------------------------------------

VALID_SPECS = [
    ("40", "poisson", 40.0),
    ("40.5", "poisson", 40.5),
    ("poisson:40", "poisson", 40.0),
    ("deterministic:interval=90", "deterministic", HOUR / 90),
    ("deterministic:interval=90,offset=5", "deterministic", HOUR / 90),
    ("diurnal:child,peak=120", "diurnal", None),
    ("diurnal:adult,peak=80", "diurnal", None),
    ("flash:peak=400,decay=1.5", "flash", None),
    ("flash:peak=400,decay=1.5,base=10,start=19", "flash", None),
    ("mmpp:rates=20|200,sojourn=600|60", "mmpp", None),
    ("ring:peak=300,rings=3,delay=0.5,atten=0.5,decay=1.0", "ring", None),
    ("ring:peak=300,rings=2,delay=0.25,atten=0.8,decay=2.0,base=5,start=18", "ring", None),
    ("diurnal:child,peak=100+flash:peak=300,decay=1", "superpose", None),
    ("10+20+30", "superpose", 60.0),
]


@pytest.mark.parametrize("text,kind,mean", VALID_SPECS)
def test_valid_specs_parse(text, kind, mean):
    spec = parse_workload(text)
    assert spec.kind == kind
    assert spec.mean_rate_per_hour > 0
    if mean is not None:
        assert spec.mean_rate_per_hour == pytest.approx(mean)


def test_trace_spec_parses_from_file(tmp_path):
    path = tmp_path / "times.txt"
    path.write_text("# recorded arrivals\n0.5\n3.25\n\n9.0\n")
    spec = parse_workload(f"trace:{path}")
    assert spec.kind == "trace"
    assert spec._get("times") == (0.5, 3.25, 9.0)


# ---------------------------------------------------------------------------
# Grammar: malformed specs → ConfigurationError carrying the grammar
# ---------------------------------------------------------------------------

MALFORMED_SPECS = [
    "",
    "   ",
    "bogus:1",
    "poisson:",
    "poisson:abc",
    "poisson:-5",
    "0",
    "-3",
    "deterministic:interval=0",
    "deterministic:offset=5",
    "deterministic:interval=90,unknown=1",
    "diurnal:goth,peak=100",
    "diurnal:child",
    "diurnal:child,peak=bogus",
    "flash:peak=400",
    "flash:decay=1.5",
    "flash:peak=400,decay=0",
    "flash:peak=400,decay=1.5,start=-2",
    "mmpp:rates=20|200",
    "mmpp:rates=20|200,sojourn=600",
    "mmpp:rates=20|x,sojourn=600|60",
    "ring:peak=300",
    "ring:peak=300,rings=0,delay=0.5,atten=0.5,decay=1.0",
    "ring:peak=300,rings=3,delay=0.5,atten=1.5,decay=1.0",
    "trace:/nonexistent/arrivals.txt",
    "40+",
    "+40",
]


@pytest.mark.parametrize("text", MALFORMED_SPECS)
def test_malformed_specs_raise_with_grammar(text):
    with pytest.raises(ConfigurationError) as excinfo:
        parse_workload(text)
    assert "workload spec grammar" in str(excinfo.value)


def _grammar_line(kind):
    lines = [line.strip() for line in WORKLOAD_GRAMMAR.splitlines()]
    return next(line for line in lines if line.startswith(f"{kind}:"))


@pytest.mark.parametrize("kind", sorted(_KIND_TABLE))
def test_grammar_names_every_table_kind_and_key(kind):
    """WORKLOAD_GRAMMAR is written by hand; it must not drift from the table."""
    line = _grammar_line(kind)
    for position, param in enumerate(_KIND_TABLE[kind][1]):
        if param.key.isupper():  # a bare value leads the kind's parameters
            assert position == 0
            assert line.startswith(f"{kind}:{param.key}")
        else:
            assert f"{param.key}=" in line


@pytest.mark.parametrize("kind", sorted(_KIND_TABLE))
def test_constructor_signature_matches_table(kind):
    """Each constructor takes the table's params, in order, with its defaults."""
    signature = inspect.signature(getattr(WorkloadSpec, kind))
    assert [
        (name, None if parameter.default is inspect.Parameter.empty else parameter.default)
        for name, parameter in signature.parameters.items()
    ] == [(param.name, param.default) for param in _KIND_TABLE[kind][1]]


def test_trace_file_with_garbage_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0\nnot-a-number\n")
    with pytest.raises(ConfigurationError):
        parse_workload(f"trace:{path}")


# ---------------------------------------------------------------------------
# Labels round-trip (except trace, whose label is a summary)
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text", [text for text, kind, _ in VALID_SPECS if kind != "trace"]
)
def test_label_round_trips(text):
    spec = parse_workload(text)
    assert parse_workload(spec.label()) == spec


def test_trace_label_is_a_summary():
    spec = WorkloadSpec.trace([1.0, 2.0, 3.0])
    assert spec.label() == "trace:3pts"


# ---------------------------------------------------------------------------
# Digests: canonical, order-insensitive in source text, process-stable
# ---------------------------------------------------------------------------

def test_digest_ignores_parameter_spelling():
    assert (
        parse_workload("flash:decay=1.5,peak=400").digest()
        == parse_workload("flash:peak=400.0,decay=1.50").digest()
    )


def test_digest_distinguishes_kinds_and_values():
    specs = {parse_workload(text) for text, _, _ in VALID_SPECS}
    digests = {spec.digest() for spec in specs}
    assert len(digests) == len(specs)
    # "40" and "poisson:40" are the same spec, so they share one digest.
    assert parse_workload("40").digest() == parse_workload("poisson:40").digest()


def test_digest_stable_across_processes(tmp_path):
    """The cache/checkpoint key must not depend on hash randomization."""
    specs = [
        "diurnal:child,peak=120+flash:peak=400,decay=1.5,start=19",
        "mmpp:rates=20|200,sojourn=600|60",
    ]
    trace_path = tmp_path / "trace.txt"
    trace_path.write_text("0.25\n1.5\n7.75\n")
    specs.append(f"trace:{trace_path}")
    script = (
        "import sys\n"
        "from repro.workload.spec import parse_workload\n"
        "for text in sys.argv[1:]:\n"
        "    print(parse_workload(text).digest())\n"
    )
    local = [parse_workload(text).digest() for text in specs]
    for _ in range(2):
        result = subprocess.run(
            [sys.executable, "-c", script, *specs],
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.split() == local


# ---------------------------------------------------------------------------
# Identity pins: digests name RNG streams and cache keys, so they must not move
# ---------------------------------------------------------------------------

def _day(scale):
    """The adaptive study's day at ``scale`` x its rates, built the way
    ``default_day_workload`` and the benchmark's 100x day build it."""
    return WorkloadSpec.superpose(
        [
            WorkloadSpec.diurnal("child", 120.0 * scale),
            WorkloadSpec.ring(
                peak_rate_per_hour=400.0 * scale,
                n_rings=3,
                ring_delay_hours=0.5,
                attenuation=0.5,
                decay_hours=1.5,
                start_hours=19.0,
            ),
        ]
    )


def _day_params(diurnal_peak, ring_peak):
    return (
        (
            "parts",
            (
                WorkloadSpec(
                    "diurnal", (("profile", "child"), ("peak_rate_per_hour", diurnal_peak))
                ),
                WorkloadSpec(
                    "ring",
                    (
                        ("peak_rate_per_hour", ring_peak),
                        ("n_rings", 3),
                        ("ring_delay_hours", 0.5),
                        ("attenuation", 0.5),
                        ("decay_hours", 1.5),
                        ("base_rate_per_hour", 0.0),
                        ("start_hours", 19.0),
                    ),
                ),
            ),
        ),
    )


#: (spec string, digest, label, params) for every VALID_SPECS entry.
SPEC_PINS = [
    ("40", "60fed959b548054a342495558324402f913371d9419b9b30fe0bf9e12f498966",
     "poisson:40", (("rate_per_hour", 40.0),)),
    ("40.5", "228dbc38d2e23e22011f83528237d91b0df26e748a03c6dcbed42639b4b80c47",
     "poisson:40.5", (("rate_per_hour", 40.5),)),
    ("poisson:40", "60fed959b548054a342495558324402f913371d9419b9b30fe0bf9e12f498966",
     "poisson:40", (("rate_per_hour", 40.0),)),
    ("deterministic:interval=90",
     "def09b85978a5f26855d31f604cd4e29114adfa36c32dddbf199bc12a8c77225",
     "deterministic:interval=90", (("interval", 90.0), ("offset", 0.0))),
    ("deterministic:interval=90,offset=5",
     "b739a1cf82c0202b5586824dbac35bf6a7ad246265091831b7584f464bfc7b3f",
     "deterministic:interval=90,offset=5", (("interval", 90.0), ("offset", 5.0))),
    ("diurnal:child,peak=120",
     "b062607fe3c4f678fbccc2ff22555d49734247a9a7565987d9b6f8d63747160a",
     "diurnal:child,peak=120", (("profile", "child"), ("peak_rate_per_hour", 120.0))),
    ("diurnal:adult,peak=80",
     "4759ec2f6f6dba9a3746c6575d623f3e59308c725e3401b7492730fe0d2e9372",
     "diurnal:adult,peak=80", (("profile", "adult"), ("peak_rate_per_hour", 80.0))),
    ("flash:peak=400,decay=1.5",
     "ab3fede69f1551db59c0688cc265f30ad0ab8bbfbde9de661158aa5ee64063d5",
     "flash:peak=400,decay=1.5",
     (("peak_rate_per_hour", 400.0), ("decay_hours", 1.5),
      ("base_rate_per_hour", 0.0), ("start_hours", 0.0))),
    ("flash:peak=400,decay=1.5,base=10,start=19",
     "a213e6635df77dfa72597db2649f628d92ad9365fa0218d96a35fbfa875b9685",
     "flash:peak=400,decay=1.5,base=10,start=19",
     (("peak_rate_per_hour", 400.0), ("decay_hours", 1.5),
      ("base_rate_per_hour", 10.0), ("start_hours", 19.0))),
    ("mmpp:rates=20|200,sojourn=600|60",
     "28acd3c7492ec97667a521ef4073507884761f90e78fe9c6a08054e10eb838c0",
     "mmpp:rates=20|200,sojourn=600|60",
     (("rates_per_hour", (20.0, 200.0)), ("mean_sojourn", (600.0, 60.0)))),
    ("ring:peak=300,rings=3,delay=0.5,atten=0.5,decay=1.0",
     "893d6bfaaaab11185e65005425cb812f52e8ce7fa90aa66d618294b46a3edab6",
     "ring:peak=300,rings=3,delay=0.5,atten=0.5,decay=1",
     (("peak_rate_per_hour", 300.0), ("n_rings", 3), ("ring_delay_hours", 0.5),
      ("attenuation", 0.5), ("decay_hours", 1.0), ("base_rate_per_hour", 0.0),
      ("start_hours", 0.0))),
    ("ring:peak=300,rings=2,delay=0.25,atten=0.8,decay=2.0,base=5,start=18",
     "33c3b4c1e921c8725c6cd88436a121bd19555ea164348a25cc86beb61b0f5806",
     "ring:peak=300,rings=2,delay=0.25,atten=0.8,decay=2,base=5,start=18",
     (("peak_rate_per_hour", 300.0), ("n_rings", 2), ("ring_delay_hours", 0.25),
      ("attenuation", 0.8), ("decay_hours", 2.0), ("base_rate_per_hour", 5.0),
      ("start_hours", 18.0))),
    ("diurnal:child,peak=100+flash:peak=300,decay=1",
     "54bf9f661979d80ec176545f95edee702c8e441179ddbe924b0b55c1c4c38470",
     "diurnal:child,peak=100+flash:peak=300,decay=1",
     (("parts", (
         WorkloadSpec("diurnal", (("profile", "child"), ("peak_rate_per_hour", 100.0))),
         WorkloadSpec("flash", (("peak_rate_per_hour", 300.0), ("decay_hours", 1.0),
                                ("base_rate_per_hour", 0.0), ("start_hours", 0.0))),
     )),)),
    ("10+20+30", "ccf94ce9d3482f53dad0d744faf5361eae32a5d1c261c392a488db52a491db66",
     "poisson:10+poisson:20+poisson:30",
     (("parts", tuple(
         WorkloadSpec("poisson", (("rate_per_hour", rate),)) for rate in (10.0, 20.0, 30.0)
     )),)),
]


def _assert_identity(spec, digest, label, params):
    assert spec.digest() == digest
    assert spec.label() == label
    assert spec.params == params
    # == ignores 1 vs 1.0; the canonical encoding does not.
    assert _canonical(spec.params) == _canonical(params)


def test_spec_pins_cover_every_valid_spec():
    assert [text for text, *_ in SPEC_PINS] == [text for text, _, _ in VALID_SPECS]


@pytest.mark.parametrize("text,digest,label,params", SPEC_PINS)
def test_parsed_spec_identity_is_pinned(text, digest, label, params):
    _assert_identity(parse_workload(text), digest, label, params)


@pytest.mark.parametrize(
    "spec,digest,label,params",
    [
        (
            default_day_workload(),
            "de906ba4f7cdf3917df6ec30f4e54f57307ba24af22208fc818fea5af7551789",
            "diurnal:child,peak=120+ring:peak=400,rings=3,delay=0.5,atten=0.5,"
            "decay=1.5,start=19",
            _day_params(120.0, 400.0),
        ),
        (
            default_day_workload(quick=True),
            "53558e45a5366e14be385c9d91dd31df36b622e3294eebcf4b6605066b2444c1",
            "diurnal:child,peak=60+ring:peak=200,rings=3,delay=0.5,atten=0.5,"
            "decay=1.5,start=19",
            _day_params(60.0, 200.0),
        ),
        (
            _day(100.0),
            "dd6fec85a3b7f37816f1ea0506b73c9391a3b5827b44cd11f0c29bf234c23273",
            "diurnal:child,peak=12000+ring:peak=40000,rings=3,delay=0.5,atten=0.5,"
            "decay=1.5,start=19",
            _day_params(12000.0, 40000.0),
        ),
    ],
    ids=["day", "quick-day", "100x-day"],
)
def test_day_identity_is_pinned(spec, digest, label, params):
    _assert_identity(spec, digest, label, params)


def test_the_100x_day_scales_the_study_day():
    assert default_day_workload() == _day(1.0)
    assert default_day_workload(quick=True) == _day(0.5)


@pytest.mark.parametrize(
    "process,digest,label",
    [
        (PoissonArrivals(40.0),
         "60fed959b548054a342495558324402f913371d9419b9b30fe0bf9e12f498966",
         "poisson:40"),
        (DeterministicArrivals(90.0, 5.0),
         "b739a1cf82c0202b5586824dbac35bf6a7ad246265091831b7584f464bfc7b3f",
         "deterministic:interval=90,offset=5"),
        (FlashCrowd(400.0, 1.5, 10.0, 19.0),
         "a213e6635df77dfa72597db2649f628d92ad9365fa0218d96a35fbfa875b9685",
         "flash:peak=400,decay=1.5,base=10,start=19"),
        (MMPPArrivals([20, 200], [600, 60]),
         "28acd3c7492ec97667a521ef4073507884761f90e78fe9c6a08054e10eb838c0",
         "mmpp:rates=20|200,sojourn=600|60"),
        (EventRings(300.0, 3, 0.5, 0.5, 1.0, 5.0, 18.0),
         "00d3a845efaf729398dc81d1e0b51c0cfebf26613c71d8df504c2435652e65cc",
         "ring:peak=300,rings=3,delay=0.5,atten=0.5,decay=1,base=5,start=18"),
        (TraceArrivals([1.0, 2.0, 3.5]),
         "00a4c7d1961ee095376ebaddec34f1387690e4f3d99286b3423a544228610211",
         "trace:3pts"),
    ],
    ids=["poisson", "deterministic", "flash", "mmpp", "ring", "trace"],
)
def test_as_workload_identity_is_pinned(process, digest, label):
    spec = as_workload(process)
    assert spec.digest() == digest
    assert spec.label() == label
    assert type(spec.process()) is type(process)


# ---------------------------------------------------------------------------
# as_workload coercions
# ---------------------------------------------------------------------------

def test_as_workload_accepts_numbers_strings_specs_and_processes():
    forty = WorkloadSpec.poisson(40.0)
    assert as_workload(40) == forty
    assert as_workload(40.0) == forty
    assert as_workload("poisson:40") == forty
    assert as_workload(forty) is forty
    assert as_workload(PoissonArrivals(40.0)) == forty
    assert as_workload(DeterministicArrivals(90.0, 5.0)) == WorkloadSpec.deterministic(
        90.0, 5.0
    )
    assert as_workload(FlashCrowd(400.0, 1.5)).kind == "flash"
    assert as_workload(MMPPArrivals([20, 200], [600, 60])).kind == "mmpp"
    assert as_workload(TraceArrivals([1.0, 2.0])).kind == "trace"


def test_as_workload_event_rings_not_swallowed_by_flash():
    """EventRings subclasses NonHomogeneousPoisson like FlashCrowd; the
    coercion must dispatch on the most specific type."""
    rings = EventRings(300.0, 3, 0.5, 0.5, 1.0)
    assert as_workload(rings).kind == "ring"


def test_as_workload_rejects_bools_and_opaque_processes():
    with pytest.raises((ConfigurationError, TypeError)):
        as_workload(True)
    with pytest.raises(ConfigurationError) as excinfo:
        as_workload(NonHomogeneousPoisson(lambda t: 5.0, 10.0))
    assert "WorkloadSpec" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Materialization: process() types and superposition
# ---------------------------------------------------------------------------

def test_process_types():
    assert isinstance(parse_workload("40").process(), PoissonArrivals)
    assert isinstance(
        parse_workload("diurnal:child,peak=100").process(), NonHomogeneousPoisson
    )
    assert isinstance(parse_workload("flash:peak=100,decay=1").process(), FlashCrowd)
    assert isinstance(
        parse_workload("mmpp:rates=10|50,sojourn=60|60").process(), MMPPArrivals
    )
    assert isinstance(
        parse_workload("ring:peak=100,rings=2,delay=0.5,atten=0.5,decay=1").process(),
        EventRings,
    )
    composite = parse_workload("20+flash:peak=100,decay=1").process()
    assert isinstance(composite, SuperposedArrivals)
    assert len(composite.processes) == 2


# ---------------------------------------------------------------------------
# Hypothesis: thinning counts track the integrated rate
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    peak=st.floats(200.0, 2000.0),
    decay=st.floats(0.5, 3.0),
)
def test_nhpp_window_counts_match_integrated_rate(seed, peak, decay):
    """Counts in a window are Poisson(∫λ); check a 6-sigma envelope."""
    process = FlashCrowd(peak, decay)
    horizon = 4 * decay * 3600.0
    times = process.generate(horizon, np.random.default_rng(seed))
    expected = process.expected_requests(horizon)
    sigma = max(np.sqrt(expected), 1.0)
    assert abs(len(times) - expected) < 6.0 * sigma
    # Window counts: the first decay-constant worth of time holds
    # (1 - e^-1) of a pure surge's mass; same envelope.
    window_expected = process.expected_requests(decay * 3600.0)
    window_count = int(np.searchsorted(times, decay * 3600.0))
    assert abs(window_count - window_expected) < 6.0 * max(
        np.sqrt(window_expected), 1.0
    )


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    low=st.floats(5.0, 50.0),
    high=st.floats(200.0, 800.0),
)
def test_mmpp_mean_rate_between_state_rates(seed, low, high):
    process = MMPPArrivals([low, high], [900.0, 900.0])
    horizon = 20 * 3600.0
    times = process.generate(horizon, np.random.default_rng(seed))
    hourly = len(times) / 20.0
    assert low * 0.25 <= hourly <= high * 1.25


def test_mmpp_spec_mean_rate_is_sojourn_weighted():
    spec = WorkloadSpec.mmpp([30.0, 300.0], [1800.0, 600.0])
    expected = (30.0 * 1800.0 + 300.0 * 600.0) / 2400.0
    assert spec.mean_rate_per_hour == pytest.approx(expected)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_event_rings_counts_match_closed_form(seed):
    process = EventRings(600.0, 3, 0.5, 0.5, 1.0, base_rate_per_hour=10.0)
    horizon = 12 * 3600.0
    times = process.generate(horizon, np.random.default_rng(seed))
    expected = process.expected_requests(horizon)
    assert abs(len(times) - expected) < 6.0 * np.sqrt(expected)


def test_event_rings_rate_peaks_at_ignitions():
    process = EventRings(600.0, 3, 0.5, 0.5, 1.0)
    for ring, ignition in enumerate(process.ignition_seconds()):
        jump = process.rate_at(ignition) - process.rate_at(ignition - 1e-6)
        assert jump == pytest.approx(600.0 * 0.5**ring, rel=1e-6)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_superposition_count_is_sum_of_parts(seed):
    """Superposed expected counts add; check the composite against it."""
    spec = parse_workload("diurnal:child,peak=120+flash:peak=400,decay=1.5")
    horizon = 24 * 3600.0
    times = spec.process().generate(horizon, np.random.default_rng(seed))
    expected = spec.mean_rate_per_hour * 24.0
    assert abs(len(times) - expected) < 6.0 * np.sqrt(expected)
    assert np.all(np.diff(times) >= 0)
