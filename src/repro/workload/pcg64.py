"""Exact bulk draws from the raw words of numpy's ``PCG64``.

:meth:`repro.workload.arrivals.NonHomogeneousPoisson.generate` draws, per
thinning candidate, one ``exponential`` gap and one ``random()`` uniform.
On a ``PCG64`` generator, a uniform is one 64-bit word, and an exponential
is one word on the ziggurat's fast path and more on its slow path.  This
module rebuilds that interleaved order from raw words in array
operations, slow path included: a slow word's accept/reject test is
decided from the word after it wherever the answer is certain, and a tail
word's draw is computed from the word after it, inside the buffer.  Only a
slow word on a buffer's last two words (or a rejection chain that reaches
its last word) and a near tie are redrawn by a scalar call.  The generator
is left in the state the scalar loop would have left, bit for bit.  The
ziggurat's tables and its tail constant are derived from the installed
numpy on first use and checked against scalar draws of sampled slow and
tail words; when the derivation or the check fails, callers keep the
scalar loop.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, List, NamedTuple, Optional, Tuple

import numpy as np

#: The 128-bit LCG multiplier of numpy's ``PCG64``.
PCG64_MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = (1 << 128) - 1
#: ``next_double``'s scale: a uniform is ``(word >> 11) * 2**-53``.
_UNIFORM_SCALE = 1.0 / 9007199254740992.0
#: A slow word is decided from its uniform only when the two sides of
#: numpy's acceptance test differ by more than this share of the right
#: side: far above the rounding by which the derived ``fe`` and ``np.exp``
#: may differ from numpy's, and far below the smallest gap seen on 87k
#: slow words of layers 1-255 (2.6e-7).
DECISION_MARGIN = 1e-9
#: Slow words of each layer the derivation's self-check replays; layer 1,
#: where every word is slow and ``we[1]`` is probed, gets more.
_CHECKED_PER_LAYER, _CHECKED_TOP_LAYER = 8, 64
#: Tail words the self-check replays with uniforms drawn at random, and
#: with each of the smallest and largest uniforms, where ``log1p(-U)`` is
#: steepest.
_CHECKED_TAIL, _CHECKED_TAIL_EDGE = 32, 8

# How a slow word's draw ends: accepted, as a tail draw, by a scalar
# redraw, or rejected and restarted two words on.  A word that is not slow
# is fast.
_FAST, _ACCEPT, _TAIL, _REDRAW, _REJECT = 0, 1, 2, 3, 4


class Tables(NamedTuple):
    """The installed numpy's exponential ziggurat (:func:`derive_ziggurat`)."""

    ke: np.ndarray  #: per layer, the smallest slow ``ri``
    we: np.ndarray  #: per layer, the width a word's ``ri`` is scaled by
    fe: np.ndarray  #: per layer, the curve's height at the layer's edge
    tail: float  #: ``ziggurat_exp_r``: a tail draw is ``tail - log1p(-U)``


def _xsl_rr(state: int) -> int:
    """The 64-bit word ``PCG64`` outputs from a 128-bit state."""
    word = (state >> 64) ^ (state & 0xFFFFFFFFFFFFFFFF)
    rot = state >> 122
    return ((word >> rot) | (word << (64 - rot))) & 0xFFFFFFFFFFFFFFFF


class _Probe:
    """A ``PCG64`` set to chosen states, drawing one standard exponential.

    A state below ``2**64`` outputs itself, so :meth:`draw` of a word
    starts from the state one LCG step before the state ``word``.
    """

    def __init__(self, bit_generator: np.random.PCG64):
        self.bit_generator = bit_generator
        self.inc = bit_generator.state["state"]["inc"]
        self.inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
        self.exponential = np.random.Generator(bit_generator).standard_exponential

    def step(self, state: int) -> int:
        return (state * PCG64_MULTIPLIER + self.inc) & _MASK128

    def draw_from(self, state: int, inc: Optional[int] = None) -> Tuple[float, int]:
        """A draw's value and the state after it, starting at ``state``."""
        inc = self.inc if inc is None else inc
        self.bit_generator.state = {"bit_generator": "PCG64",
                                    "state": {"state": state, "inc": inc},
                                    "has_uint32": 0, "uinteger": 0}
        value = self.exponential()
        return value, self.bit_generator.state["state"]["state"]

    def draw(self, word: int) -> Tuple[float, int]:
        """A draw whose first word is ``word``: it read only ``word`` iff
        the state after it is ``word``, and one more iff ``step(word)``."""
        return self.draw_from(((word - self.inc) * self.inverse) & _MASK128)

    def draw_pair(self, first: int, second: int) -> Tuple[float, int]:
        """A draw whose first two words are ``first`` and ``second``: the
        increment is chosen so that one LCG step takes the state ``first``
        to the state ``second``, and each outputs itself.  It read both
        and no more iff the state after it is ``second``."""
        inc = (second - first * PCG64_MULTIPLIER) & _MASK128
        return self.draw_from(((first - inc) * self.inverse) & _MASK128, inc)


def _probe_tables(probe: _Probe) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(ke, we)`` found by probes, or None (see :func:`derive_ziggurat`)."""
    ke = np.zeros(256, dtype=np.uint64)
    we = np.zeros(256, dtype=np.float64)
    for layer in range(256):
        low, high = 0, 1 << 53
        while low < high:
            mid = (low + high) // 2
            word = (mid << 11) | (layer << 3)
            if probe.draw(word)[1] == word:
                low = mid + 1
            else:
                high = mid
        ke[layer] = low
        if low > 1:
            we[layer] = probe.draw((1 << 11) | (layer << 3))[0]
            word = ((low - 1) << 11) | (layer << 3)
            value, after = probe.draw(word)
            if after != word or value != float(low - 1) * we[layer]:
                return None
        elif layer:
            # No fast word past ri = 0: ``we`` is the value of a slow word
            # at ri = 1 that is accepted, so its draw reads two words.
            for spare in range(8):
                word = (1 << 11) | (layer << 3) | spare
                value, after = probe.draw(word)
                if after == probe.step(word):
                    we[layer] = value
                    break
            else:
                return None
    if ke[0] <= 1:
        return None
    return ke, we


def _probe_tail(probe: _Probe, ke: np.ndarray) -> Optional[float]:
    """``ziggurat_exp_r``: the draw of a tail word followed by a word whose
    uniform is 0, so that ``log1p(-U)`` is ``-0.0``; None if layer 0 has
    no slow word or that draw does not read exactly the two words."""
    if int(ke[0]) >= 1 << 53:
        return None
    value, after = probe.draw_pair(int(ke[0]) << 11, 0)
    return value if after == 0 else None


def _layer_heights(we: np.ndarray) -> np.ndarray:
    """``fe``, the curve's height at each layer's edge: ``exp(-x)`` at
    ``x = we * 2**53``, and 1 for layer 0."""
    fe = np.exp(-we * 9007199254740992.0)
    fe[0] = 1.0
    return fe


def _test_sides(fe: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per layer, the slope and base of the left side of numpy's acceptance
    test, ``(fe[l-1] - fe[l]) * U + fe[l]``; layer 0, the tail, which has
    no test (:func:`_tail_draw`), gets a base of NaN."""
    slopes = np.zeros_like(fe)
    slopes[1:] = fe[:-1] - fe[1:]
    bases = fe.copy()
    bases[0] = np.nan
    return slopes, bases


#: :func:`_classify`'s verdict by where the relative difference of the two
#: sides falls: below ``-DECISION_MARGIN``, within it, above it, or NaN
#: (which sorts last) for a tail word.
_BY_SIDE = np.array([_ACCEPT, _REDRAW, _REJECT, _TAIL], dtype=np.int8)


def _classify(
    negative_x: np.ndarray, slopes: np.ndarray, bases: np.ndarray, uniforms: np.ndarray
) -> np.ndarray:
    """``_ACCEPT``, ``_REJECT``, ``_REDRAW`` or ``_TAIL`` per slow word of
    value ``x``.

    numpy accepts a slow word of layer ``l >= 1`` iff
    ``(fe[l-1] - fe[l]) * U + fe[l] < exp(-x)``, with ``U`` the next
    word's uniform (:func:`_test_sides` gives the slope and base).  A word
    is decided iff the two sides differ by more than
    :data:`DECISION_MARGIN` of the right side.
    """
    lhs = slopes * uniforms + bases
    rhs = np.exp(negative_x)
    lhs -= rhs
    lhs /= rhs
    sides = np.array((-DECISION_MARGIN, DECISION_MARGIN, np.inf))
    return _BY_SIDE.take(sides.searchsorted(lhs))


def _decide(
    ri: np.ndarray, layers: np.ndarray, uniform_words: np.ndarray, tables: Tables
) -> Tuple[np.ndarray, np.ndarray]:
    """``(decided, accepted)`` for slow words, given the words after them:
    :func:`_classify` of ``x = float(ri) * we[l]`` and the next word's
    uniform; a tail word is never decided."""
    layers = layers.astype(np.intp, copy=False)
    slopes, bases = _test_sides(tables.fe)
    kinds = _classify(ri.astype(np.float64) * -tables.we.take(layers), slopes.take(layers),
                      bases.take(layers), (uniform_words >> 11) * _UNIFORM_SCALE)
    return (kinds != _REDRAW) & (kinds != _TAIL), kinds == _ACCEPT


def _tail_draw(tail: float, uniform: float) -> float:
    """The standard exponential of a tail word, given the next word's
    uniform: numpy draws ``ziggurat_exp_r - log1p(-U)`` with the C
    ``log1p`` that :func:`math.log1p` calls."""
    return tail - math.log1p(-uniform)


def _replays_slow_words(probe: _Probe, tables: Tables) -> bool:
    """Whether :func:`_decide` and the gap formula agree with scalar draws
    on sampled slow words of layers 1-255.

    An accepted word must read two words and draw ``float(ri) * we[l]``;
    a rejected one must draw exactly what a draw starting two words on
    draws, ending in the same state.
    """
    ke, we = tables.ke, tables.we
    layers = np.concatenate([np.full(_CHECKED_TOP_LAYER, 1),
                             np.repeat(np.arange(1, 256), _CHECKED_PER_LAYER)])
    layers = layers[ke[layers] < 1 << 53].astype(np.uint64)
    rng = np.random.default_rng(0)
    ri = rng.integers(ke[layers], 1 << 53, dtype=np.uint64)
    spare = rng.integers(0, 8, size=len(layers), dtype=np.uint64)
    words = ((ri << np.uint64(11)) | (layers << np.uint64(3)) | spare).tolist()
    steps = [probe.step(word) for word in words]
    decided, accepted = _decide(
        ri, layers, np.array([_xsl_rr(s) for s in steps], dtype=np.uint64), tables
    )
    for n in np.flatnonzero(decided).tolist():
        value, after = probe.draw(words[n])
        if accepted[n]:
            if after != steps[n] or value != float(int(ri[n])) * we[int(layers[n])]:
                return False
        elif (value, after) != probe.draw_from(steps[n]):
            return False
    return True


def _replays_tail_words(probe: _Probe, tables: Tables) -> bool:
    """Whether :func:`_tail_draw` agrees with scalar draws of sampled tail
    words: each must read two words and draw ``tail - log1p(-U)``, with
    ``U`` drawn at random, near 0 and near 1."""
    rng = np.random.default_rng(1)
    edge = np.arange(_CHECKED_TAIL_EDGE, dtype=np.uint64)
    uniform_ri = np.concatenate([rng.integers(0, 1 << 53, size=_CHECKED_TAIL, dtype=np.uint64),
                                 edge, np.uint64((1 << 53) - 1) - edge])
    n = len(uniform_ri)
    ri = rng.integers(int(tables.ke[0]), 1 << 53, size=n, dtype=np.uint64)
    firsts = ((ri << np.uint64(11)) | rng.integers(0, 8, size=n, dtype=np.uint64)).tolist()
    seconds = ((uniform_ri << np.uint64(11))
               | rng.integers(0, 1 << 11, size=n, dtype=np.uint64)).tolist()
    uniforms = (uniform_ri * _UNIFORM_SCALE).tolist()
    for first, second, uniform in zip(firsts, seconds, uniforms):
        if probe.draw_pair(first, second) != (_tail_draw(tables.tail, uniform), second):
            return False
    return True


def derive_ziggurat() -> Optional[Tables]:
    """The installed numpy's exponential ziggurat, or None.

    ``standard_exponential`` reads one word ``w``; with ``ri = w >> 11`` and
    ``layer = (w >> 3) & 0xFF`` it returns ``x = float(ri) * we[layer]``
    and reads nothing more iff ``ri < ke[layer]``; otherwise the word is
    slow and :func:`_decide` states what numpy does with it.  Each ``ke``
    and ``we`` entry is found by probes.  A probe sets a ``PCG64`` one LCG
    step before the state ``w``, for a chosen word ``w``: a state below
    ``2**64`` outputs itself, so the next word is ``w``.  It draws once,
    and is fast iff the state is then ``w``.  ``ke[layer]`` is bisected
    over ``ri`` in ``[0, 2**53]`` and ``we[layer]`` is the draw at
    ``ri = 1``; a layer with ``ke <= 1`` (layer 1, where every word is
    slow) takes ``we`` from an accepted slow draw at ``ri = 1``.  The tail
    constant is the draw of a slow layer-0 word followed by a word whose
    uniform is 0 (:func:`_probe_tail`).  ``fe`` cannot be probed bit for
    bit; it is ``exp(-we * 2**53)``, with ``fe[0] = 1``, and is only used
    where :data:`DECISION_MARGIN` makes the answer certain.  Returns None
    if the generator's step or output differ from
    :data:`PCG64_MULTIPLIER` and XSL-RR, if ``ke[0] <= 1``, if a layer's
    largest fast word does not draw ``float(ri) * we``, if the tail
    cannot be probed, or if sampled slow or tail words do not replay
    (:func:`_replays_slow_words`, :func:`_replays_tail_words`).
    """
    bit_generator = np.random.PCG64(0)
    inc = bit_generator.state["state"]["inc"]
    start = bit_generator.state["state"]["state"]
    word = int(bit_generator.random_raw())
    stepped = bit_generator.state["state"]["state"]
    if stepped != (start * PCG64_MULTIPLIER + inc) & _MASK128 or word != _xsl_rr(stepped):
        return None
    probe = _Probe(bit_generator)
    found = _probe_tables(probe)
    if found is None:
        return None
    ke, we = found
    tail = _probe_tail(probe, ke)
    if tail is None:
        return None
    tables = Tables(ke, we, _layer_heights(we), tail)
    if not (_replays_slow_words(probe, tables) and _replays_tail_words(probe, tables)):
        return None
    for table in tables[:3]:
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=None)
def ziggurat_tables() -> Optional[Tables]:
    """:func:`derive_ziggurat`, once per process, on first use."""
    return derive_ziggurat()


def _redraw(generator: np.random.Generator, skip: int) -> Tuple[float, int, float]:
    """A scalar draw ``skip`` words on from the word ``generator``'s
    ``PCG64`` is at (``skip`` may be negative: ``advance`` works modulo the
    period): its standard exponential, the words it read, counted by
    stepping the LCG between two state reads, and the uniform of the word
    after them."""
    bit_generator = generator.bit_generator
    bit_generator.advance(skip & _MASK128)
    state = bit_generator.state["state"]
    before, inc = state["state"], state["inc"]
    x = generator.standard_exponential()
    after = bit_generator.state["state"]["state"]
    width = 0
    while before != after:
        before = (before * PCG64_MULTIPLIER + inc) & _MASK128
        width += 1
    return x, width, (int(bit_generator.random_raw()) >> 11) * _UNIFORM_SCALE


def _slow_above(ke: np.ndarray) -> np.ndarray:
    """Per layer, the largest fast word: a word is slow iff it is above it.

    ``ri >= ke`` iff ``word >= ke << 11``, so the bound is ``(ke << 11) -
    1``.  Two layers need care: ``ke = 0`` (every word slow) takes 0, below
    every word of a layer >= 1; ``ke = 2**53`` (no word slow) wraps to
    ``2**64 - 1``, above every word.
    """
    return np.where(ke > 0, (ke << np.uint64(11)) - np.uint64(1), np.uint64(0))


def thinning_candidates(
    horizon: float,
    scale: float,
    bit_generator: np.random.PCG64,
    tables: Tables,
    size: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Thinning candidates ``(times, uniforms)`` drawn from raw words.

    Rebuilds the scalar draw order (per candidate ``exponential(scale)``
    then ``random()``, no uniform after the gap that crosses the horizon)
    on buffers of ``size >= 2`` words, each starting where a gap starts.
    Every word of a buffer gets the value ``x`` of a draw that ends on it
    and the uniform after that draw.  A fast word is a whole draw, ``x =
    float(ri) * we``, and the next word its uniform.  A slow word is
    classified from the word after it (:func:`_classify`): an accepted one
    is a draw by the same formula, with its uniform two words on; a tail
    word is one too, ``x`` computed from the next word's uniform
    (:func:`_tail_draw`); a rejected one restarts the draw two words on,
    which may be fast or slow again, so a gap that starts on it is the
    draw of its chain's last word.  Only a slow word on the buffer's last
    two words, a chain that reaches its last word, or a near tie is
    redrawn, by a private ``PCG64`` moved there, the words it read counted
    by stepping the LCG, and its uniform the word after them.  A buffer
    ends before a gap that starts past it, or that starts on its last word
    and needs a uniform from the next.  Times are ``scale * x`` (as
    ``-x * -scale``), cumsummed from the running time, the same
    sequential adds as ``t += gap``.  At the crossing, ``bit_generator``
    takes the 128-bit state the scalar loop would have left, keeping its
    buffered 32-bit half.

    A buffer classifies all its slow words at once; only the gaps that
    start on a slow word (about 180 of a buffer's 8,000 candidates) are
    walked in Python, one pass over the slow words.  A gap starts on a
    slow word iff the word is at or past the end of the last slow gap and
    has that end's parity, since words of the other parity in between are
    fast gaps' uniforms.  Between two slow gaps the candidates are a plain
    stride-2 run, so candidate ``i``'s draw ends on word ``2 * i`` moved
    on by the extra words of the slow gaps before it: one ``np.repeat`` of
    their running sum.  A word's low 11 bits index 2,048-entry copies of
    the layer tables, so that no pass splits out the layer.  Callers keep
    the scalar loop for any bit generator but ``PCG64`` itself and when
    :func:`derive_ziggurat` fails.
    """
    # Per value of a word's low 11 bits (its layer and 3 spare bits).
    above = np.repeat(_slow_above(tables.ke), 8)
    negative_widths = np.repeat(-tables.we, 8)
    slopes, bases = (np.repeat(side, 8) for side in _test_sides(tables.fe))
    tail = tables.tail
    state = bit_generator.state
    # A private generator reads each buffer and draws each redraw, moved
    # there by ``advance`` modulo the period; ``at`` is its word.
    reader = np.random.PCG64(0)
    reader.state = {"bit_generator": "PCG64", "state": dict(state["state"]),
                    "has_uint32": 0, "uinteger": 0}
    redraws = np.random.Generator(reader)
    low = np.empty(size, dtype=np.intp)
    ri = np.empty(size, dtype=np.uint64)
    # Per word: ``-x`` of a draw that ends on it, and the uniform after that
    # draw at ``uniform_of[word + 1]`` (``after_draw``), which is the next
    # word's own uniform until accepted words are resolved.  The last slot
    # takes a redraw's uniform at the buffer's last word.
    negative_x = np.empty(size, dtype=np.float64)
    uniform_of = np.zeros(size + 1, dtype=np.float64)
    after_draw = uniform_of[1:]
    word_kinds = np.empty(size, dtype=np.int8)
    all_fast = bytes(size)
    evens = np.arange(0, size + 2, 2)
    t = 0.0
    while True:
        raw = reader.random_raw(size)
        at = size
        np.bitwise_and(raw.view(np.int64), 0x7FF, out=low)
        slow = (raw > above.take(low)).nonzero()[0]
        np.right_shift(raw, 11, out=ri)
        ri_float = ri.view(np.int64).astype(np.float64)
        np.multiply(ri_float, negative_widths.take(low), out=negative_x)
        np.multiply(ri_float, _UNIFORM_SCALE, out=uniform_of[:size])
        # ``runs`` of candidates, each ending on a slow gap's draw but the
        # last, and the ``offsets`` their draws are moved on by.
        runs: List[int] = []
        offsets = [0]
        add_run, add_offset = runs.append, offsets.append
        p = offset = 0  # the word the next gap starts on
        kind_of = all_fast  # per word, how a draw starting on it ends
        redrawn = {}  # the word after each redrawn gap, by its draw's word
        if len(slow):
            # A slow word whose test or uniform would lie past the buffer is
            # redrawn, as is a draw that reaches the buffer's last word.
            bits = low.take(slow)
            kinds = _classify(negative_x.take(slow), slopes.take(bits), bases.take(bits),
                              after_draw.take(slow))
            kinds[slow.searchsorted(size - 2):] = _REDRAW
            word_kinds.fill(_FAST)
            word_kinds[slow] = kinds
            word_kinds[size - 1] = _REDRAW
            kind_of = word_kinds.tobytes()
            accepted = slow[kinds <= _TAIL]
            after_draw[accepted] = uniform_of.take(accepted + 2)
            for s in slow.tolist():
                if s < p or (s ^ p) & 1:
                    continue
                link, kind = s, kind_of[s]
                if kind == _REJECT:
                    while kind == _REJECT:
                        link += 2
                        kind = kind_of[link]
                    add_run((s - p) >> 1)
                    offset += link - s
                    add_offset(offset)
                    p = link
                    if kind == _FAST:
                        continue
                if kind == _ACCEPT:
                    n = link + 3
                elif kind == _TAIL:
                    # ``uniform_of`` no longer holds the next word's uniform.
                    test = int(raw[link + 1]) >> 11
                    negative_x[link] = -_tail_draw(tail, test * _UNIFORM_SCALE)
                    n = link + 3
                else:
                    x, width, after_draw[link] = _redraw(redraws, link - at)
                    negative_x[link] = -x
                    n = at = redrawn[link] = link + width + 1
                add_run(((link - p) >> 1) + 1)
                offset += n - link - 2
                add_offset(offset)
                p = n
        rest = max(size - p, 0) // 2
        add_run(rest)
        count = (p - offset) // 2 + rest
        following = p + 2 * rest  # where the next buffer starts
        draws = np.array(offsets, dtype=np.intp).repeat(runs)
        draws += evens[:count]
        times = negative_x.take(draws)
        times *= -scale
        uniforms = after_draw.take(draws)
        times[0] += t
        times.cumsum(out=times)
        crossing = int(times.searchsorted(horizon))
        if crossing < count:
            # The words read up to the end of the crossing gap's draw.
            word = int(draws[crossing])
            kind = kind_of[word]
            read = (word + 1 if kind == _FAST else redrawn[word] - 1 if kind == _REDRAW
                    else word + 2)
            reader.advance((read - at) & _MASK128)
            state["state"] = reader.state["state"]
            bit_generator.state = state
            if crossing:
                yield times[:crossing], uniforms[:crossing]
            return
        yield times, uniforms
        t = float(times[-1])
        if following != at:
            reader.advance((following - at) & _MASK128)
