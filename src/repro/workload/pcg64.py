"""Exact bulk draws from the raw words of numpy's ``PCG64``.

:meth:`repro.workload.arrivals.NonHomogeneousPoisson.generate` draws, per
thinning candidate, one ``exponential`` gap and one ``random()`` uniform.
On a ``PCG64`` generator, a uniform is one 64-bit word, and an exponential
is one word on the ziggurat's fast path and more on its slow path.  This
module rebuilds that interleaved order from raw words in array
operations, redraws each slow word with a scalar call, and leaves the
generator in the state the scalar loop would have left, bit for bit.  The
ziggurat's tables are derived from the installed numpy on first use; when
the derivation fails, callers keep the scalar loop.
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


def _xsl_rr(state: int) -> int:
    """The 64-bit word ``PCG64`` outputs from a 128-bit state."""
    word = (state >> 64) ^ (state & 0xFFFFFFFFFFFFFFFF)
    rot = state >> 122
    return ((word >> rot) | (word << (64 - rot))) & 0xFFFFFFFFFFFFFFFF


def derive_ziggurat() -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """``(ke, we)`` of the installed numpy's exponential ziggurat, or None.

    ``standard_exponential`` reads one word ``w``; with ``ri = w >> 11`` and
    ``layer = (w >> 3) & 0xFF`` it returns ``float(ri) * we[layer]`` and
    reads nothing more iff ``ri < ke[layer]``, and otherwise reads at least
    one more word.  Each table entry is found by probes.  A probe sets a
    ``PCG64`` one LCG step before the state ``w``, for a chosen word ``w``:
    a state below ``2**64`` outputs itself, so the next word is ``w``.  It
    draws once, and is fast iff the state is then ``w``.  ``ke[layer]`` is
    bisected over ``ri`` in ``[0, 2**53]`` and ``we[layer]`` is the draw at
    ``ri = 1``; a layer with ``ke <= 1`` never uses its ``we``, which is
    left 0.  Returns None if the generator's step or output differ from
    :data:`PCG64_MULTIPLIER` and XSL-RR, if ``ke[0]`` is 0, or if a
    layer's largest fast word does not draw ``float(ri) * we``.
    """
    probe = np.random.PCG64(0)
    inc = probe.state["state"]["inc"]
    start = probe.state["state"]["state"]
    word = int(probe.random_raw())
    stepped = probe.state["state"]["state"]
    if stepped != (start * PCG64_MULTIPLIER + inc) & _MASK128 or word != _xsl_rr(stepped):
        return None
    inverse = pow(PCG64_MULTIPLIER, -1, 1 << 128)
    draw = np.random.Generator(probe).standard_exponential

    def probe_word(ri: int, layer: int) -> Tuple[bool, float]:
        target = (ri << 11) | (layer << 3)
        previous = ((target - inc) * inverse) & _MASK128
        probe.state = {"bit_generator": "PCG64",
                       "state": {"state": previous, "inc": inc},
                       "has_uint32": 0, "uinteger": 0}
        value = draw()
        return probe.state["state"]["state"] == target, value

    ke = np.zeros(256, dtype=np.uint64)
    we = np.zeros(256, dtype=np.float64)
    for layer in range(256):
        low, high = 0, 1 << 53
        while low < high:
            mid = (low + high) // 2
            if probe_word(mid, layer)[0]:
                low = mid + 1
            else:
                high = mid
        ke[layer] = low
        if low > 1:
            we[layer] = probe_word(1, layer)[1]
            fast, value = probe_word(low - 1, layer)
            if not fast or value != float(low - 1) * we[layer]:
                return None
    if ke[0] == 0:
        return None
    ke.flags.writeable = we.flags.writeable = False
    return ke, we


@functools.lru_cache(maxsize=None)
def ziggurat_tables() -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """:func:`derive_ziggurat`, once per process, on first use."""
    return derive_ziggurat()


def thinning_candidates(
    horizon: float,
    scale: float,
    bit_generator: np.random.PCG64,
    tables: Tuple[np.ndarray, np.ndarray],
    size: int,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Thinning candidates ``(times, uniforms)`` drawn from raw words.

    Rebuilds the scalar draw order (per candidate ``exponential(scale)``
    then ``random()``, no uniform after the gap that crosses the horizon)
    on buffers of ``size >= 2`` words, each starting where a gap starts.
    A word whose exponential is on the ziggurat's fast path is one gap and
    the next word its uniform.  At a slow word the draw is redone by a
    private ``PCG64`` moved there, the words it read are counted by
    stepping the LCG, and its uniform is the word after them.  A buffer
    ends before a gap that starts past it, or that starts on its last word
    and needs a uniform from the next.  Times are a cumsum seeded with the
    running time, the same sequential adds as ``t += gap``.  At the
    crossing, ``bit_generator`` takes the 128-bit state the scalar loop
    would have left, keeping its buffered 32-bit half.
    """
    ke, we = tables
    state = bit_generator.state
    inc = state["state"]["inc"]
    # ``walker`` only steps forward: it sits where the next gap or slow
    # word starts; ``reader`` reads each buffer from the walker's state.
    walker, reader = np.random.PCG64(0), np.random.PCG64(0)
    walker.state = {"bit_generator": "PCG64", "state": dict(state["state"]),
                    "has_uint32": 0, "uinteger": 0}
    exponential = np.random.Generator(walker).exponential
    t = 0.0
    while True:
        buffer_state = walker.state
        reader.state = buffer_state
        raw = reader.random_raw(size)
        slow = np.flatnonzero((raw >> 11) >= ke[(raw >> 3) & 0xFF])
        redrawn: List[int] = []  # candidates whose gap was redrawn
        redrawn_gaps: List[float] = []
        redrawn_uniforms: List[int] = []  # their uniforms' words
        redrawn_widths: List[int] = []  # the words their gaps read
        p = count = 0  # the walker's word, and the candidates before it
        for q in slow.tolist():
            if q < p or (q - p) & 1:
                continue  # a uniform's word, or one a redraw read
            count += (q - p) // 2
            walker.advance(q - p)
            before = walker.state["state"]["state"]
            redrawn_gaps.append(exponential(scale))
            after = walker.state["state"]["state"]
            width = 0
            while before != after:
                before = (before * PCG64_MULTIPLIER + inc) & _MASK128
                width += 1
            redrawn_uniforms.append(int(walker.random_raw()))
            redrawn.append(count)
            redrawn_widths.append(width)
            count += 1
            p = q + width + 1
            if p >= size:
                break
        rest = max(size - p, 0) // 2
        count += rest
        walker.advance(2 * rest)
        widths = np.ones(count, dtype=np.int64)
        widths[redrawn] = redrawn_widths
        start = np.zeros(count, dtype=np.int64)
        np.cumsum(widths[:-1] + 1, out=start[1:])
        gap_words = raw[start]
        gaps = scale * ((gap_words >> 11).astype(np.float64) * we[(gap_words >> 3) & 0xFF])
        gaps[redrawn] = redrawn_gaps
        uniform_words = raw[np.minimum(start + 1, size - 1)]
        uniform_words[redrawn] = np.array(redrawn_uniforms, dtype=np.uint64)
        uniforms = (uniform_words >> 11) * _UNIFORM_SCALE
        gaps[0] += t
        times = np.cumsum(gaps, out=gaps)
        crossing = int(np.searchsorted(times, horizon))
        if crossing < count:
            reader.state = buffer_state
            reader.advance(int(start[crossing] + widths[crossing]))
            state["state"] = reader.state["state"]
            bit_generator.state = state
            if crossing:
                yield times[:crossing], uniforms[:crossing]
            return
        yield times, uniforms
        t = float(times[-1])
