"""Chunked NHPP thinning equals the per-candidate loop bit for bit.

The oracle is :mod:`tests.workload.nhpp_reference`: the literal thinning
loop and the scalar rate formulas.  Each case compares the trace and the
generator's end state: its whole state, the buffered 32-bit half included,
and the next uniforms drawn after it.  ``PCG64`` generators take the
raw-word path; the cases at the end pin its slow ziggurat words, buffer
seams, derived tables and the bit generators that keep the scalar loop.

The scalar reference is slow, so each stream it walks is cached for the
module, keyed by everything it depends on: several cases compare
different chunk sizes or code paths against one stream.
"""

from functools import lru_cache, partial

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.units import HOUR
from repro.workload import arrivals, pcg64, recheck
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


def same_state(a, b):
    """Bit-generator states equal, key by key (MT19937 keeps an array)."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_state(a[k], b[k]) for k in a)
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@lru_cache(maxsize=None)
def reference_stream(process, horizon, seed, bit_generator, buffered):
    """The reference trace, the generator's end state and its next uniforms."""
    oracle = np.random.Generator(bit_generator(seed))
    if buffered:
        oracle.integers(0, 10, dtype=np.uint32)
    want = reference_generate(process, horizon, oracle)
    return want, oracle.bit_generator.state, oracle.random(4).tolist()


def assert_matches_reference(process, horizon, seed, bit_generator=np.random.PCG64,
                             buffered=False):
    rng = np.random.Generator(bit_generator(seed))
    if buffered:
        rng.integers(0, 10, dtype=np.uint32)
    got = process.generate(horizon, rng)
    want, state, uniforms = reference_stream(process, horizon, seed, bit_generator, buffered)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert same_state(rng.bit_generator.state, state)
    assert rng.random(4).tolist() == uniforms
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


@pytest.mark.parametrize("name", ["day", "lambda"])
def test_buffered_32_bit_half_survives(name):
    process, horizon = CASES[name]
    rng = np.random.default_rng(99)
    rng.integers(0, 10, dtype=np.uint32)
    assert rng.bit_generator.state["has_uint32"] == 1
    assert_matches_reference(process, horizon, 99, buffered=True)


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


@lru_cache(maxsize=None)
def walk_reference(seed, scale, count, state=None):
    """The first ``count`` candidates of the reference loop on a PCG64 at
    ``seed``, or at ``state`` if given: per candidate its time, its gap's
    first word and how many words the gap read, counted by stepping the
    generator's LCG."""
    bit_generator = np.random.PCG64(seed) if state is None else pcg64_at(state)(0)
    rng = np.random.Generator(bit_generator)
    inc = bit_generator.state["state"]["inc"]
    t, word, walked = 0.0, 0, []
    for _ in range(count):
        before = bit_generator.state["state"]["state"]
        t += float(rng.exponential(scale))
        after = bit_generator.state["state"]["state"]
        width = 0
        while before != after:
            before = (before * pcg64.PCG64_MULTIPLIER + inc) % (1 << 128)
            width += 1
        walked.append((t, word, width))
        rng.random()
        word += width + 1
    return walked


#: A constant-rate process: every candidate's keep test is one uniform.
FLAT = NonHomogeneousPoisson(lambda t: 45.0, max_rate_per_hour=90.0)
FLAT_SCALE = 1.0 / (90.0 / HOUR)


@pytest.mark.parametrize("which", [0, 1, 5])
def test_horizons_around_a_slow_word(which):
    walked = walk_reference(2001, FLAT_SCALE, 3000)
    slow = [i for i, (_, _, width) in enumerate(walked) if width > 1 and i > 0]
    i = slow[which]
    times = [t for t, _, _ in walked]
    horizons = [
        times[i - 1],  # crossing on the fast gap just before the slow one
        np.nextafter(times[i], -np.inf),  # crossing on the slow gap
        times[i],  # ends exactly on the slow gap's time
        np.nextafter(times[i], np.inf),  # slow gap inside, crossing after it
        times[i + 1],
    ]
    for horizon in horizons:
        got = assert_matches_reference(FLAT, float(horizon), 2001)
        assert len(got) <= i + 1


def seam_straddles(walked, size):
    """How many slow gaps read words past the end of the raw-word buffer
    they start in, with buffers of ``size`` words laid out as the PCG64
    path lays them: a buffer ends before the first gap that starts past
    it, or that starts on its last word and is fast."""
    base, straddles = 0, 0
    for _, word, width in walked:
        if word >= base + size or (word == base + size - 1 and width == 1):
            base = word
        straddles += word + width > base + size and width > 1
    return straddles


@pytest.mark.parametrize("chunk", [1, 2, 7])
def test_slow_gaps_straddle_buffer_seams(monkeypatch, chunk):
    monkeypatch.setattr(arrivals, "THINNING_CHUNK", chunk)
    walked = walk_reference(4242, FLAT_SCALE, 800)
    assert seam_straddles(walked, arrivals.pcg64_buffer_words()) > 0
    assert_matches_reference(FLAT, walked[-1][0], 4242)


@lru_cache(maxsize=None)
def first_slow_seed():
    for seed in range(1000):
        if walk_reference(seed, FLAT_SCALE, 1)[0][2] > 1:
            return seed
    raise AssertionError("no seed in 0..999 starts on a slow word")


@pytest.mark.parametrize("buffered", [False, True])
def test_first_word_slow(buffered):
    seed = first_slow_seed()
    assert_matches_reference(FLAT, 10 * HOUR, seed, buffered=buffered)
    assert_matches_reference(FLAT, 1e-9, seed, buffered=buffered)


class PCG64Subclass(np.random.PCG64):
    pass


def forbid(*args, **kwargs):
    raise AssertionError("this path must not run")


@pytest.mark.parametrize(
    "bit_generator", [np.random.MT19937, np.random.Philox, np.random.PCG64DXSM, PCG64Subclass]
)
def test_other_bit_generators_take_the_scalar_loop(monkeypatch, bit_generator):
    monkeypatch.setattr(pcg64, "thinning_candidates", forbid)
    process, horizon = CASES["day"]
    assert_matches_reference(process, horizon, 2001, bit_generator=bit_generator)


def test_pcg64_takes_the_raw_word_path(monkeypatch):
    monkeypatch.setattr(arrivals, "_scalar_candidates", forbid)
    assert_matches_reference(*CASES["ring"], 7)


def test_ziggurat_tables_from_installed_numpy():
    tables = pcg64.derive_ziggurat()
    assert tables is not None, "the installed numpy's ziggurat did not derive"
    ke, we, fe, tail = tables
    assert ke[1] == 0 and ke[0] > 0
    cached_ke, cached_we, cached_fe, cached_tail = pcg64.ziggurat_tables()
    assert np.array_equal(ke, cached_ke) and np.array_equal(we, cached_we)
    assert np.array_equal(fe, cached_fe)
    assert tail == cached_tail and 7.0 < tail < 8.0

    # Step-counted truth on 10^5 words: a state whose next word is ``w``
    # is ``w`` stepped back once; a draw is fast iff it reads one word.
    probe = np.random.PCG64(17)
    draw = np.random.Generator(probe).standard_exponential
    inc = probe.state["state"]["inc"]
    inverse = pow(pcg64.PCG64_MULTIPLIER, -1, 1 << 128)
    words = np.random.default_rng(3).integers(0, 2**64, size=100_000, dtype=np.uint64)
    words[:256] = (np.arange(256, dtype=np.uint64) << 3) | (ke[:256] - 1) << 11
    for n, word in enumerate(words.tolist()):
        previous = ((word - inc) * inverse) % (1 << 128)
        probe.state = {"bit_generator": "PCG64", "state": {"state": previous, "inc": inc},
                       "has_uint32": 0, "uinteger": 0}
        if n < 1000:
            assert int(probe.random_raw()) == word
            probe.state = {"bit_generator": "PCG64",
                           "state": {"state": previous, "inc": inc},
                           "has_uint32": 0, "uinteger": 0}
        value = draw()
        fast = probe.state["state"]["state"] == word
        ri, layer = word >> 11, (word >> 3) & 0xFF
        assert fast == (ri < int(ke[layer])), hex(word)
        if fast:
            assert value == float(ri) * we[layer], hex(word)


def test_failed_derivation_falls_back_to_the_scalar_loop(monkeypatch):
    monkeypatch.setattr(pcg64, "PCG64_MULTIPLIER", pcg64.PCG64_MULTIPLIER + 2)
    assert pcg64.derive_ziggurat() is None
    monkeypatch.setattr(pcg64, "ziggurat_tables", lambda: None)
    monkeypatch.setattr(pcg64, "thinning_candidates", forbid)
    assert_matches_reference(*CASES["ring"], 2001)


#: The ``inc`` of the generators the slow-path cases start at chosen states.
INC = np.random.PCG64(0).state["state"]["inc"]
INVERSE = pow(pcg64.PCG64_MULTIPLIER, -1, 1 << 128)


def pcg64_at(state):
    """A ``bit_generator`` for :func:`assert_matches_reference`: a
    ``PCG64`` at ``state``, whatever the seed."""
    def make(_seed):
        bit_generator = np.random.PCG64(0)
        bit_generator.state = {"bit_generator": "PCG64",
                               "state": {"state": state, "inc": INC},
                               "has_uint32": 0, "uinteger": 0}
        return bit_generator
    return make


def draw_kind(words, at):
    """What numpy does with a draw starting at ``words[at]``: ``fast``,
    ``tail``, or the raw-word path's ``accept``, ``reject`` or
    ``undecided`` for a slow word of layers 1-255."""
    tables = pcg64.ziggurat_tables()
    ri, layer = words[at] >> 11, (words[at] >> 3) & 0xFF
    if ri < int(tables[0][layer]):
        return "fast"
    if layer == 0:
        return "tail"
    decided, accepted = pcg64._decide(
        np.array([ri], dtype=np.uint64), np.array([layer], dtype=np.uint64),
        np.array([words[at + 1]], dtype=np.uint64), tables,
    )
    return "undecided" if not decided[0] else "accept" if accepted[0] else "reject"


#: The kinds of draw a rejection may restart into, by name.
CHAINED = {"fast": ("fast",), "slow": ("accept", "reject"), "tail": ("tail",)}


@lru_cache(maxsize=None)
def chain_start(then):
    """A ``PCG64`` state whose stream opens with a decided rejected slow
    word, then, two words on, a draw of kind ``then``: ``fast``, ``slow``
    for a decided slow word, accepted or rejected, or ``tail``.  The word two
    on is chosen (a state below ``2**64`` outputs itself) and varied until
    the words before it fit."""
    ke = pcg64.ziggurat_tables()[0]
    for n in range(1 << 20):
        layer = 0 if then == "tail" else 1 + n % 255
        ri = n if then == "fast" else int(ke[layer]) + n
        state = (ri << 11) | (layer << 3) | (n & 7)
        for _ in range(3):
            state = ((state - INC) * INVERSE) % (1 << 128)
        words = pcg64_at(state)(0).random_raw(4).tolist()
        if draw_kind(words, 0) == "reject" and draw_kind(words, 2) in CHAINED[then]:
            return state
    raise AssertionError(f"no rejected word followed by {then}")


@pytest.mark.parametrize("then", ["fast", "slow"])
def test_rejected_slow_word_restarts_the_draw(then):
    state = chain_start(then)
    words = pcg64_at(state)(0).random_raw(4).tolist()
    assert draw_kind(words, 0) == "reject"
    assert draw_kind(words, 2) in CHAINED[then]
    got = assert_matches_reference(FLAT, 10 * HOUR, 0, bit_generator=pcg64_at(state))
    assert len(got) > 0


@lru_cache(maxsize=None)
def tail_start(at):
    """A ``PCG64`` state whose stream has a draw start on a tail word at
    word ``at``.  The tail word is chosen (a state below ``2**64`` outputs
    itself) and varied until the reference's draws start on it."""
    ke = pcg64.ziggurat_tables()[0]
    for n in range(1 << 16):
        state = ((int(ke[0]) + n) << 11) | (n & 7)  # layer 0, slow: the tail
        for _ in range(at + 1):
            state = ((state - INC) * INVERSE) % (1 << 128)
        if any(word == at for _, word, _ in walk_reference(0, 1.0, at + 1, state)):
            return state
    raise AssertionError(f"no draw starts on a tail word at word {at}")


def record_calls(monkeypatch, module, name):
    """A list that grows by one entry per call of ``module.name``."""
    calls = []
    original = getattr(module, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_mid_buffer_tail_word_is_decoded_without_a_redraw(monkeypatch):
    state = tail_start(9)
    assert draw_kind(pcg64_at(state)(0).random_raw(11).tolist(), 9) == "tail"
    redraws = record_calls(monkeypatch, pcg64, "_redraw")
    tails = record_calls(monkeypatch, pcg64, "_tail_draw")
    assert_matches_reference(FLAT, 10 * HOUR, 0, bit_generator=pcg64_at(state))
    assert redraws == [] and len(tails) >= 1


#: A draw never starts on a buffer's second word (its first word's draw
#: reads it), so a tail there cannot open a gap.
SEAM_CASES = [
    (case, chunk)
    for case in ["last-word", "second-to-last", "after-rejection", "first-after-a-half"]
    for chunk in [2, 3, 4, 7, 64]
    if (case, chunk) not in {("last-word", 2), ("second-to-last", 3)}
]


@pytest.mark.parametrize("case, chunk", SEAM_CASES)
def test_tail_words_at_buffer_seams(monkeypatch, case, chunk):
    # A tail word needs the next two words: on a buffer's last two words it
    # is redrawn, further in it is decoded in the buffer.
    monkeypatch.setattr(arrivals, "THINNING_CHUNK", chunk)
    buffered = case == "first-after-a-half"
    if case == "last-word":
        state = tail_start(chunk - 1)
    elif case == "second-to-last":
        state = tail_start(chunk - 2)
    elif case == "after-rejection":
        state = chain_start("tail")
    else:  # the stream's first word, after the word a buffered half takes
        state = ((tail_start(0) - INC) * INVERSE) % (1 << 128)
    assert_matches_reference(FLAT, 10 * HOUR, 0, bit_generator=pcg64_at(state),
                             buffered=buffered)


@pytest.mark.parametrize("chunk, then", [(3, "fast"), (3, "slow"), (4, "slow")])
def test_rejection_chain_straddles_a_buffer_seam(monkeypatch, chunk, then):
    # The first buffer holds words 0..chunk-1.  Word 0's test is decided in
    # it; the draw it restarts at word 2 reads word 3 and, when slow, its
    # gap's uniform or next draw is word 4: past the buffer's end.
    monkeypatch.setattr(arrivals, "THINNING_CHUNK", chunk)
    state = chain_start(then)
    assert (3 if then == "fast" else 4) >= chunk
    assert_matches_reference(FLAT, 10 * HOUR, 0, bit_generator=pcg64_at(state))


@pytest.mark.parametrize("chunk", [2, 3, 7, 64])
def test_small_buffers_with_a_buffered_half(monkeypatch, chunk):
    monkeypatch.setattr(arrivals, "THINNING_CHUNK", chunk)
    assert_matches_reference(FLAT, 20 * HOUR, 99, buffered=True)


def test_every_slow_word_redrawn_is_still_exact(monkeypatch):
    monkeypatch.setattr(pcg64, "DECISION_MARGIN", float("inf"))
    words = np.random.PCG64(5).random_raw(10_000)
    ke = pcg64.ziggurat_tables()[0]
    slow = np.flatnonzero((words[:-1] >> 11) >= ke[(words[:-1] >> 3) & 0xFF])
    decided, _ = pcg64._decide(words[slow] >> 11, (words[slow] >> 3) & 0xFF,
                               words[slow + 1], pcg64.ziggurat_tables())
    assert len(slow) > 0 and not decided.any()
    assert_matches_reference(*CASES["day"], 7)
    assert_matches_reference(*CASES["ring"], 2001)


def test_probed_top_layer_we_equals_step_counted_draws():
    """Every layer-1 word is slow, so ``we[1]`` is probed from an accepted
    draw; every accepted layer-1 draw of 200, found by stepping the LCG
    (it reads two words), is ``float(ri) * we[1]``."""
    ke, we = pcg64.ziggurat_tables()[:2]
    assert ke[1] == 0 and we[1] > 0
    probe = np.random.PCG64(0)
    draw = np.random.Generator(probe).standard_exponential
    rng = np.random.default_rng(8)
    accepted = 0
    for ri in rng.integers(1, 1 << 53, size=200).tolist():
        word = (ri << 11) | (1 << 3)
        previous = ((word - INC) * INVERSE) % (1 << 128)
        probe.state = {"bit_generator": "PCG64", "state": {"state": previous, "inc": INC},
                       "has_uint32": 0, "uinteger": 0}
        value = draw()
        after = probe.state["state"]["state"]
        if after == (word * pcg64.PCG64_MULTIPLIER + INC) % (1 << 128):
            accepted += 1
            assert value == float(ri) * we[1], hex(word)
    assert accepted > 20


def nudge_top_layer(probe_tables):
    def probed(probe):
        ke, we = probe_tables(probe)
        we[1] = np.nextafter(we[1], np.inf)
        return ke, we
    return probed


def shift_heights(layer_heights):
    def heights(we):
        fe = layer_heights(we)
        fe[1:-1] = fe[2:].copy()  # each layer reads its neighbour's edge
        return fe
    return heights


def nudge_tail(probe_tail):
    def probed(probe, ke):
        return np.nextafter(probe_tail(probe, ke), np.inf)
    return probed


@pytest.mark.parametrize("table", ["fe", "we1", "tail"])
def test_wrong_tables_fail_the_self_check(monkeypatch, table):
    if table == "fe":
        monkeypatch.setattr(pcg64, "_layer_heights", shift_heights(pcg64._layer_heights))
    elif table == "we1":
        monkeypatch.setattr(pcg64, "_probe_tables", nudge_top_layer(pcg64._probe_tables))
    else:  # the tail constant one ulp off
        monkeypatch.setattr(pcg64, "_probe_tail", nudge_tail(pcg64._probe_tail))
    assert pcg64.derive_ziggurat() is None
    monkeypatch.setattr(pcg64, "ziggurat_tables", pcg64.derive_ziggurat)
    monkeypatch.setattr(pcg64, "thinning_candidates", forbid)
    assert_matches_reference(*CASES["ring"], 2001)


# The ring and flash families take their rates from ``np.exp`` and recheck
# with ``math_exp`` only the candidates near a threshold or a bound
# (:mod:`repro.workload.recheck`).

RECHECKED = ["day", "ring", "flash-inside-base0", "flash-inside-base",
             "flash-past-horizon", "flash-past-base0"]


def count_calls(monkeypatch, family, method, sizes):
    original = getattr(family, method)

    def counted(self, times, *args):
        sizes[method] += len(times)
        return original(self, times, *args)

    monkeypatch.setattr(family, method, counted)


@pytest.mark.parametrize("name", RECHECKED)
def test_every_candidate_rechecked_is_still_exact(monkeypatch, name):
    # A margin of 2 puts every rate within it of the upper bound.
    monkeypatch.setattr(recheck, "RATE_MARGIN", 2.0)
    monkeypatch.setattr(recheck, "MIN_CANDIDATES", 1)
    sizes = {"rates": 0, "_np_exp_rates": 0}
    for family in (EventRings, FlashCrowd):
        for method in sizes:
            count_calls(monkeypatch, family, method, sizes)
    assert_matches_reference(*CASES[name], 2001)
    assert sizes["_np_exp_rates"] > 0
    assert sizes["rates"] == sizes["_np_exp_rates"]


def test_np_exp_off_by_ulps_keeps_math_exp(monkeypatch):
    assert recheck.np_exp_agrees()
    exp = np.exp
    monkeypatch.setattr(np, "exp", lambda x: np.nextafter(np.nextafter(
        np.nextafter(exp(x), np.inf), np.inf), np.inf))
    assert not recheck.np_exp_agrees.__wrapped__()
    monkeypatch.undo()
    monkeypatch.setattr(recheck, "np_exp_agrees", lambda: False)
    for family in (EventRings, FlashCrowd):
        monkeypatch.setattr(family, "_np_exp_rates", forbid)
    assert_matches_reference(*CASES["day"], 7)
    assert_matches_reference(*CASES["flash-inside-base"], 7)


def test_lowered_ring_bound_names_the_reference_candidate():
    rings = ring_spec(5.0).process()
    rings.max_rate_per_hour *= 0.7
    with pytest.raises(WorkloadError) as expected:
        reference_thinning(partial(ring_rate, rings), rings.max_rate_per_hour,
                           24 * HOUR, np.random.default_rng(11))
    with pytest.raises(WorkloadError) as raised:
        rings.generate(24 * HOUR, np.random.default_rng(11))
    assert str(raised.value) == str(expected.value)


@pytest.mark.parametrize("name", ["flash", "flash-base0", "ring", "ring-base"])
def test_np_exp_rates_within_the_bound_of_exact(name):
    process = FAMILIES[name]
    times = np.sort(rate_probe_times())
    exact = process.rates(times)
    assert np.all(np.abs(process._np_exp_rates(times) - exact)
                  <= recheck.error_bound(process.rate_terms) * exact)


@pytest.mark.parametrize("name", ["flash", "ring-base"])
def test_uniforms_between_the_two_thresholds_are_decided_exactly(name):
    # Each uniform sits at the lower of the exact and the np.exp threshold,
    # so wherever the two differ the np.exp rate alone decides wrong.
    process = FAMILIES[name]
    times = np.sort(np.random.default_rng(9).uniform(0, 30 * HOUR, 50_000))
    exact = process.rates(times) / process.max_rate_per_hour
    approximate = process._np_exp_rates(times) / process.max_rate_per_hour
    assert np.count_nonzero(exact != approximate) > 100
    draws = np.minimum(exact, approximate)
    assert np.array_equal(process._thin(times, draws), times[draws < exact])


def test_too_many_terms_keep_the_exact_path():
    rings = EventRings(600.0, 500, 0.01, 1.0, 1.0)
    assert 10 * recheck.error_bound(rings.rate_terms) > recheck.RATE_MARGIN
    times = np.linspace(0.0, HOUR, 100)
    assert recheck.thin(rings, times, np.full(100, 0.5)) is None
