"""Exact bulk draws from the raw words of numpy's ``PCG64``.

:meth:`repro.workload.arrivals.NonHomogeneousPoisson.generate` draws, per
thinning candidate, one ``exponential`` gap and one ``random()`` uniform.
On a ``PCG64`` generator, a uniform is one 64-bit word, and an exponential
is one word on the ziggurat's fast path and more on its slow path.  This
module rebuilds that interleaved order from raw words in array
operations, slow path included: a slow word's accept/reject test is
decided from the word after it wherever the answer is certain, and only
the words it cannot decide (tail words, near ties, words at a buffer's
end) are redrawn by a scalar call.  The generator is left in the state the
scalar loop would have left, bit for bit.  The ziggurat's tables are
derived from the installed numpy on first use and checked against scalar
draws of sampled slow words; when the derivation or the check fails,
callers keep the scalar loop.
"""

from __future__ import annotations

import functools
from typing import Iterator, List, Optional, Tuple

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

# How a gap's draw ends at a word: on the fast path, on an accepted or a
# rejected slow word (the draw restarts two words on), or by a scalar redraw.
_FAST, _ACCEPT, _REJECT, _REDRAW = 0, 1, 2, 3

Tables = Tuple[np.ndarray, np.ndarray, np.ndarray]


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

    def draw_from(self, state: int) -> Tuple[float, int]:
        """A draw's value and the state after it, starting at ``state``."""
        self.bit_generator.state = {"bit_generator": "PCG64",
                                    "state": {"state": state, "inc": self.inc},
                                    "has_uint32": 0, "uinteger": 0}
        value = self.exponential()
        return value, self.bit_generator.state["state"]["state"]

    def draw(self, word: int) -> Tuple[float, int]:
        """A draw whose first word is ``word``: it read only ``word`` iff
        the state after it is ``word``, and one more iff ``step(word)``."""
        return self.draw_from(((word - self.inc) * self.inverse) & _MASK128)


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


def _layer_heights(we: np.ndarray) -> np.ndarray:
    """``fe``, the curve's height at each layer's edge: ``exp(-x)`` at
    ``x = we * 2**53``, and 1 for layer 0."""
    fe = np.exp(-we * 9007199254740992.0)
    fe[0] = 1.0
    return fe


def _decide(
    ri: np.ndarray, layers: np.ndarray, uniform_words: np.ndarray, tables: Tables
) -> Tuple[np.ndarray, np.ndarray]:
    """``(decided, accepted)`` for slow words, given the words after them.

    numpy accepts a slow word of layer ``l >= 1`` iff
    ``(fe[l-1] - fe[l]) * U + fe[l] < exp(-x)``, with ``x = ri * we[l]``
    and ``U`` the next word's uniform; layer 0 is the tail.  A word is
    decided iff its layer is not 0 and the two sides differ by more than
    :data:`DECISION_MARGIN` of the right side.
    """
    _, we, fe = tables
    layers = layers.astype(np.intp, copy=False)
    x = ri.astype(np.float64) * we.take(layers)
    uniforms = (uniform_words >> 11) * _UNIFORM_SCALE
    heights = fe.take(layers)
    lhs = (fe.take(layers - 1) - heights) * uniforms + heights
    rhs = np.exp(-x)
    decided = (layers > 0) & (np.abs(lhs - rhs) > DECISION_MARGIN * rhs)
    return decided, lhs < rhs


def _replays_slow_words(probe: _Probe, tables: Tables) -> bool:
    """Whether :func:`_decide` and the gap formula agree with scalar draws
    on sampled slow words of layers 1-255.

    An accepted word must read two words and draw ``float(ri) * we[l]``;
    a rejected one must draw exactly what a draw starting two words on
    draws, ending in the same state.
    """
    ke, we, _ = tables
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


def derive_ziggurat() -> Optional[Tables]:
    """``(ke, we, fe)`` of the installed numpy's exponential ziggurat, or None.

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
    slow) takes ``we`` from an accepted slow draw at ``ri = 1``.  ``fe``
    cannot be probed bit for bit; it is ``exp(-we * 2**53)``, with
    ``fe[0] = 1``, and is only used where :data:`DECISION_MARGIN` makes
    the answer certain.  Returns None if the generator's step or output
    differ from :data:`PCG64_MULTIPLIER` and XSL-RR, if ``ke[0] <= 1``, if
    a layer's largest fast word does not draw ``float(ri) * we``, or if
    sampled slow words do not replay (:func:`_replays_slow_words`).
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
    tables = (ke, we, _layer_heights(we))
    if not _replays_slow_words(probe, tables):
        return None
    for table in tables:
        table.flags.writeable = False
    return tables


@functools.lru_cache(maxsize=None)
def ziggurat_tables() -> Optional[Tables]:
    """:func:`derive_ziggurat`, once per process, on first use."""
    return derive_ziggurat()


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
    A fast word is one gap and the next word its uniform.  A slow word is
    decided from the word after it (:func:`_decide`): an accepted one is
    the gap, with its uniform two words on; a rejected one restarts the
    draw two words on, which may be fast or slow again.  Either way the
    gap is ``scale * x`` of the word that ends the chain, the fast
    formula.  Only a word the buffer cannot decide (a tail word, a near
    tie, a chain link whose test or uniform would read past the buffer) is
    redrawn, by a private ``PCG64`` moved there, the words it read counted
    by stepping the LCG, and its uniform the word after them; that walker
    moves only at a redraw and at a buffer's end.  A buffer ends before a
    gap that starts past it, or that starts on its last word and needs a
    uniform from the next.  Times are a cumsum seeded with the running
    time, the same sequential adds as ``t += gap``.  At the crossing,
    ``bit_generator`` takes the 128-bit state the scalar loop would have
    left, keeping its buffered 32-bit half.

    Each buffer resolves every slow word's chain at once in array
    operations: the draw that ends it, how, and the words it reads.  Only
    the gaps that start on a slow word (about 180 of a buffer's 8,000
    candidates) are then walked in Python: the gap after one starts on the
    first slow word at or past its end with the end's parity, since words
    of the other parity in between are fast gaps' uniforms.  Between two
    of them the candidates are a plain stride-2 run, so candidate ``i``
    starts on word ``2 * i`` moved on by the extra words of the slow gaps
    before it: one ``np.repeat`` of their running sum.  Layers are
    ``intp``, so that the table gathers need no index conversion.  Callers
    keep the scalar loop for any bit generator but ``PCG64`` itself and
    when :func:`derive_ziggurat` fails.
    """
    ke, we, _ = tables
    above = _slow_above(ke)
    state = bit_generator.state
    inc = state["state"]["inc"]
    # ``walker`` only steps forward, to each redraw and to the start of
    # each buffer; ``reader`` reads each buffer from the walker's state.
    walker, reader = np.random.PCG64(0), np.random.PCG64(0)
    walker.state = {"bit_generator": "PCG64", "state": dict(state["state"]),
                    "has_uint32": 0, "uinteger": 0}
    exponential = np.random.Generator(walker).exponential
    layers = np.empty(size, dtype=np.intp)
    evens = np.arange(0, size + 2, 2)
    picked = np.empty(len(evens), dtype=np.intp)
    word_kinds = np.empty(size, dtype=np.int8)
    # Slow words are looked up by ``word + parity * block``: even ones
    # first, then odd ones, each run closed by a sentinel.
    block = 2 * size + 4
    sentinels = np.array([block - 1, 2 * block - 1])
    t = 0.0
    while True:
        buffer_state = walker.state
        reader.state = buffer_state
        raw = reader.random_raw(size)
        np.right_shift(raw.view(np.int64), 3, out=layers)
        np.bitwise_and(layers, 0xFF, out=layers)
        slow = np.flatnonzero(raw > above.take(layers))
        n_slow = len(slow)
        kinds = np.full(n_slow, _REDRAW, dtype=np.int8)
        # A decided word's test and its gap's uniform lie inside the buffer.
        inside = slow[: int(np.searchsorted(slow, size - 2))]
        if len(inside):
            decided, accepted = _decide(
                raw[inside] >> 11, layers[inside], raw[inside + 1], tables)
            kinds[: len(inside)] = np.where(
                decided, np.where(accepted, _ACCEPT, _REJECT), _REDRAW)
        path: List[int] = []  # the slow words gaps start on, in order
        redrawn: List[int] = []  # positions in ``path`` redrawn
        redrawn_gaps: List[float] = []
        redrawn_uniforms: List[int] = []  # their uniforms' words
        walked = 0  # the walker's word
        if n_slow:
            # Each slow word's chain, were a gap to start on it: its last draw
            # (``links``), how that ends, and the words it reads (``widths``;
            # a redraw's are counted when it is drawn).  A rejection restarts
            # two words on, where the draw may be slow again, fast, or at the
            # buffer's last word and so in need of a redraw.
            word_kinds.fill(_FAST)
            word_kinds[slow] = kinds
            word_kinds[size - 1] = _REDRAW
            links, ends_how = slow.copy(), kinds.copy()
            chained = np.flatnonzero(kinds == _REJECT)
            while len(chained):
                links[chained] += 2
                ends_how[chained] = how = word_kinds.take(links[chained])
                chained = chained[how == _REJECT]
            widths = links - slow + np.where(ends_how == _ACCEPT, 2, 1)
            after = slow + widths + 1
            # The gap after a slow word's gap starts on the first slow word at
            # or past its end with the end's parity (words of the other parity
            # are fast gaps' uniforms), or none: ``n_slow``.
            keys = np.concatenate((slow + (slow & 1) * block, sentinels))
            order = keys.argsort()
            keys = keys.take(order)
            np.minimum(order, n_slow, out=order)
            following = order.take(np.searchsorted(keys, after + (after & 1) * block)).tolist()
            how_list = ends_how.tolist()
            k = int(order[0])
            while k < n_slow:
                path.append(k)
                if how_list[k] != _REDRAW:
                    k = following[k]
                    continue
                q = int(slow[k])
                walker.advance(int(links[k]) - walked)
                before = walker.state["state"]["state"]
                redrawn_gaps.append(exponential(scale))
                after_state = walker.state["state"]["state"]
                width = int(links[k]) - q
                while before != after_state:
                    before = (before * PCG64_MULTIPLIER + inc) & _MASK128
                    width += 1
                redrawn_uniforms.append(int(walker.random_raw()))
                redrawn.append(len(path) - 1)
                widths[k] = width
                links[k] = q  # any word: the redrawn gap replaces its value
                walked = q + width + 1
                target = walked + (walked & 1) * block
                k = int(order[np.searchsorted(keys, target)]) if walked < size else n_slow
        # Candidate ``i`` starts on word ``2 * i`` moved on by the extra
        # words of the slow gaps before it: ``offsets`` per run of
        # candidates, each run ending on a slow gap but the last.
        path = np.array(path, dtype=np.intp)
        runs = np.empty(len(path) + 1, dtype=np.intp)
        offsets = np.zeros(len(path) + 1, dtype=np.intp)
        p = 0
        if len(path):
            starts = slow.take(path)
            wide = widths.take(path)
            ends = starts + wide + 1
            p = int(ends[-1])
            runs[0] = starts[0]
            np.subtract(starts[1:], ends[:-1], out=runs[1:-1])
            runs >>= 1
            runs += 1
            np.cumsum(wide - 1, out=offsets[1:])
        runs[-1] = rest = max(size - p, 0) // 2
        special = np.cumsum(runs[:-1]) - 1  # the candidates on slow words
        count = int(special[-1]) + 1 + rest if len(path) else rest
        walker.advance(p + 2 * rest - walked)
        start = np.repeat(offsets, runs)
        start += evens[:count]
        gap_words = raw.take(start)
        uniform_words = raw[1:].take(start, mode="clip")
        if len(path):
            gap_words[special] = raw.take(links.take(path))
            uniform_words[special] = raw.take(np.minimum(starts + wide, size - 1))
        gap_layers = np.right_shift(gap_words.view(np.int64), 3, out=picked[:count])
        np.bitwise_and(gap_layers, 0xFF, out=gap_layers)
        gaps = scale * ((gap_words >> 11).astype(np.float64) * we.take(gap_layers))
        uniforms = (uniform_words >> 11) * _UNIFORM_SCALE
        if redrawn:
            at_redraws = special.take(redrawn)
            gaps[at_redraws] = redrawn_gaps
            uniforms[at_redraws] = (
                np.array(redrawn_uniforms, dtype=np.uint64) >> 11) * _UNIFORM_SCALE
        gaps[0] += t
        times = np.cumsum(gaps, out=gaps)
        crossing = int(np.searchsorted(times, horizon))
        if crossing < count:
            at = int(np.searchsorted(special, crossing))
            read = int(start[crossing]) + (
                int(wide[at]) if at < len(path) and special[at] == crossing else 1)
            reader.state = buffer_state
            reader.advance(read)
            state["state"] = reader.state["state"]
            bit_generator.state = state
            if crossing:
                yield times[:crossing], uniforms[:crossing]
            return
        yield times, uniforms
        t = float(times[-1])
