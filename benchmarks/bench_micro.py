"""Micro-benchmarks of the hot paths.

Section 3 discusses DHB's scheduling cost: "each incoming request will
result in the separate scheduling of 99 possible new segment instances.
Fortunately ... the actual complexity of the task will be greatly reduced at
high arrival rates because most of the segment instances required by a
particular request would have been already scheduled."  These benches
measure exactly that, plus the other constructive hot paths.
"""

import time
from operator import add

import numpy as np

from repro.core.dhb import DHBProtocol
from repro.edge.cache import allocate_prefixes
from repro.edge.node import EdgeNode, EdgeTier
from repro.edge.scenario import preset_hierarchy
from repro.edge.shaping import PolicyShaper, TrafficClass
from repro.experiments.adaptive import default_day_workload
from repro.protocols.base import verify_static_map
from repro.protocols.npb import pagoda_map
from repro.protocols.stream_tapping import StreamTappingProtocol
from repro.runtime.seeds import arrival_trace
from repro.sim.slotted import SlottedSimulation
from repro.smoothing.packing import pack_video
from repro.video.matrix import matrix_like_video
from repro.workload import pcg64
from repro.workload.arrivals import PoissonArrivals, pcg64_buffer_words
from repro.workload.popularity import ZipfCatalog
from repro.workload.spec import WorkloadSpec


def test_dhb_request_handling_cold(benchmark):
    """Request admission into a lightly loaded 99-segment schedule."""

    def admit_batch():
        protocol = DHBProtocol(n_segments=99)
        for slot in range(0, 2000, 40):  # sparse: little sharing
            protocol.handle_request(slot)
        return protocol.schedule.total_instances

    instances = benchmark(admit_batch)
    assert instances > 0


def test_dhb_request_handling_saturated(benchmark):
    """The paper's point: saturated requests mostly hit the sharing check."""

    def admit_batch():
        protocol = DHBProtocol(n_segments=99)
        for slot in range(2000):  # one request per slot
            protocol.handle_request(slot)
        return protocol.schedule.total_instances

    instances = benchmark(admit_batch)
    # Nearly every segment is shared: far fewer instances than 2000 * 99.
    assert instances < 2000 * 12


def test_sparse_slotted_driver(benchmark):
    """The slotted driver over a mostly empty trace (dhb_kernel's sparse leg).

    DHB with n = 99 at 15 requests/hour over 750 h: ~37k slots of 72.7 s,
    about one in four occupied.  Admission is cheap here, so this times the
    driver's own upkeep: the bulk load reads and folds of each block of
    occupied slots, one release per block and the chunked wait fold.
    """
    d = 7200.0 / 99
    slots = int(750 * 3600.0 / d)
    trace = arrival_trace(2001, 15.0, 750.0)

    def simulate():
        protocol = DHBProtocol(n_segments=99)
        return SlottedSimulation(protocol, d, slots, slots // 20).run(trace)

    result = benchmark(simulate)
    assert result.columnar and 10_000 < result.n_requests < 12_000


def test_saturated_slotted_driver(benchmark):
    """The slotted driver at saturation (dhb_kernel's saturated leg, cut
    to 50 h).

    DHB with n = 99 at 5,000 requests/hour: 2,475 slots of 72.7 s, each
    occupied, ~100 requests per slot.  Every slot costs one fused Figure-6
    admission (~H(99) placements) and its share of the per-block upkeep.
    """
    d = 7200.0 / 99
    slots = int(50 * 3600.0 / d)
    trace = arrival_trace(2001, 5000.0, 50.0)

    def simulate():
        protocol = DHBProtocol(n_segments=99)
        result = SlottedSimulation(protocol, d, slots, slots // 20).run(trace)
        return protocol, result

    protocol, result = benchmark(simulate)
    assert slots == 2475 and result.columnar
    assert (result.n_requests, protocol.requests_admitted) == (238_420, 250_845)
    assert protocol.schedule.total_instances == 13_316


def test_pagoda_packing(benchmark):
    """Constructing the six-stream NPB map (the Figures 7/8 substrate)."""
    result = benchmark(lambda: pagoda_map(6, n_segments=99))
    assert result.n_segments == 99


def test_pagoda_full_map_verified(benchmark):
    """Building and verifying the full six-stream NPB map (203 segments).

    Its last stream repeats only every 7,927,920 slots, so any step that
    expands the map to its hyperperiod dominates this bench.
    """

    def build_and_verify():
        static_map = pagoda_map(6)
        verify_static_map(static_map)
        return static_map

    assert benchmark(build_and_verify).n_segments == 203


def test_matrix_trace_generation(benchmark):
    """Synthesising + calibrating the 8170-second VBR trace."""
    video = benchmark.pedantic(matrix_like_video, rounds=1, iterations=1)
    assert video.duration == 8170.0


def test_workahead_packing(benchmark):
    """The DHB-c/d smoothing computation over the full trace."""
    video = matrix_like_video()
    packed = benchmark(lambda: pack_video(video, 60.0))
    assert packed.n_segments > 100


def test_stream_tapping_request_handling(benchmark):
    """Per-request cost of the latest-transmitter map under a busy tapping group."""
    times = PoissonArrivals(500.0).generate(
        4 * 3600.0, np.random.default_rng(0)
    )

    def serve_all():
        protocol = StreamTappingProtocol(7200.0, expected_rate_per_hour=500.0)
        total = 0.0
        for t in times:
            for start, end in protocol.handle_request(float(t)):
                total += end - start
        return total

    busy = benchmark.pedantic(serve_all, rounds=1, iterations=1)
    assert busy > 0


def test_poisson_generation(benchmark):
    """Workload generation throughput (vectorised)."""
    rng = np.random.default_rng(1)
    result = benchmark(lambda: PoissonArrivals(1000.0).generate(100 * 3600.0, rng))
    assert len(result) > 50_000


def test_nhpp_day_generation(benchmark):
    """Thinned diurnal + event-ring day (the adaptive study's, at 1x).

    About 14.6k thinning candidates, 2.4k kept, drawn from raw ``PCG64``
    words in array operations: slow ziggurat words are decided, and tail
    words drawn, from the word after them; only a slow word on a buffer's
    last two words or a near tie is redrawn by a scalar call.  One rate
    evaluation per chunk.  The ziggurat tables are derived on the first
    call in a process, so the first round includes that one-off cost.
    """
    process = default_day_workload().process()
    rng = np.random.default_rng(1)
    result = benchmark(lambda: process.generate(24 * 3600.0, rng))
    assert len(result) > 2000


def _day_at(scale):
    """:func:`default_day_workload`'s shape at ``scale`` x its rates."""
    return WorkloadSpec.superpose([
        WorkloadSpec.diurnal("child", 120.0 * scale),
        WorkloadSpec.ring(peak_rate_per_hour=400.0 * scale, n_rings=3, ring_delay_hours=0.5,
                          attenuation=0.5, decay_hours=1.5, start_hours=19.0),
    ])


def test_nhpp_day_generation_100x(benchmark):
    """The same day at 100x, as the ``day`` benchmark workload generates it.

    About 1.46M thinning candidates in 182 raw-word buffers of 16,384,
    242k kept: per-buffer decoding (:func:`test_nhpp_day_decode_100x`
    alone) and per-chunk thinning decide the time, not the per-call
    overhead the 1x bench sees.  As at 1x, only a slow word on a buffer's
    last two words or a near tie is redrawn by a scalar call.  The ring's
    rates come from ``np.exp``, rechecked exactly only near a threshold.
    """
    process = _day_at(100.0).process()
    result = benchmark(lambda: process.generate(24 * 3600.0, np.random.default_rng(4242)))
    assert len(result) == 242_225


def test_nhpp_day_decode_100x(benchmark):
    """The decoding half of :func:`test_nhpp_day_generation_100x`.

    ``thinning_candidates`` alone over the 100x day's two components, as
    ``generate`` calls it, with nothing thinned: all 1.46M candidates of
    the day, drawn from raw ``PCG64`` words.
    """
    parts = _day_at(100.0).process().processes
    tables = pcg64.ziggurat_tables()

    def decode():
        bit_generator = np.random.default_rng(4242).bit_generator
        candidates = 0
        for part in parts:
            scale = 1.0 / (part.max_rate_per_hour / 3600.0)
            for times, _ in pcg64.thinning_candidates(
                24 * 3600.0, scale, bit_generator, tables, pcg64_buffer_words()
            ):
                candidates += len(times)
        return candidates

    assert benchmark(decode) == 1_456_766


def _wrr_loop(shares, m):
    """``m`` picks of the per-request weighted round-robin loop."""
    credits, picks = [0.0] * len(shares), []
    for _ in range(m):
        credits = list(map(add, credits, shares))
        top = max(credits)
        best = credits.index(top)
        credits[best] = top - 1.0
        picks.append(best)
    return picks


def test_shaper_picks_with_weights_past_the_history(benchmark):
    """Class picks for 5000:3000, Σ weights above ``HISTORY_PICKS``.

    100k picks in runs of 1-5,000, as an edge node asks for them.  No
    lag fits the history kept, so the shaper hands out the recurrence's
    own picks; it must take at most the per-request loop's time (best of
    five, interleaved, with 10% for timer noise).
    """
    classes = (TrafficClass("a", weight=5000, uplink_share=0.6),
               TrafficClass("b", weight=3000, uplink_share=0.4))
    runs = np.random.default_rng(2).integers(1, 5_001, 40)
    runs[-1] += 100_000 - runs.sum()
    shares = [5000 / 8000, 3000 / 8000]

    def shape_all():
        shaper = PolicyShaper(classes)
        return np.concatenate([shaper._picks(int(n)) for n in runs])

    picks = benchmark(shape_all)
    assert picks.tolist() == _wrr_loop(shares, 100_000)
    best = {shape_all: float("inf"), _wrr_loop: float("inf")}
    for _ in range(5):
        for run in best:
            start = time.perf_counter()
            run() if run is shape_all else run(shares, 100_000)
            best[run] = min(best[run], time.perf_counter() - start)
    assert best[shape_all] <= 1.1 * best[_wrr_loop], best


def _edge_tier(scenario, catalog):
    """A fresh tier of the scenario's edges, as ``run_hierarchy`` builds it."""
    nodes = [
        EdgeNode(
            spec,
            allocate_prefixes(
                scenario.prefix_policy,
                catalog.probabilities,
                spec.cache_segments,
                scenario.n_segments,
            ),
            PolicyShaper(scenario.classes, spec.uplink_streams),
            scenario.slot_duration,
        )
        for spec in scenario.topology.edges
    ]
    return EdgeTier(nodes)


def _decide_in_chunks(tier, counts, titles, chunk=64):
    """Decide every slot's arrivals ``chunk`` slots per call; return the
    ``(prefix, defer)`` arrays of the whole run."""
    firsts = np.concatenate(([0], np.cumsum(counts)))
    decided = [
        tier.decide(
            slot,
            counts[slot:slot + chunk],
            titles[firsts[slot]:firsts[min(slot + chunk, len(counts))]],
        )
        for slot in range(0, len(counts), chunk)
    ]
    return (
        np.concatenate([prefix for prefix, _ in decided]),
        np.concatenate([defer for _, defer in decided]),
    )


def test_edge_tier_admission_indebted(benchmark):
    """Chunked edge decisions on a permanently indebted uplink.

    The stock hierarchy's two edges (8 titles, 60 segments, 25 % cache,
    16-stream uplinks) take 20k Zipf arrivals at the 100x day's ~56 per
    slot, decided 64 slots per :meth:`EdgeTier.decide` call as the cluster
    loop does.  Each prefix costs 10-60 tokens against ~11 earned per slot,
    so after the first burst every hit is deferred: the regime of the day
    workload's edge tier, where the shaper decides every hit in array
    operations.
    """
    scenario = preset_hierarchy()
    catalog = ZipfCatalog(scenario.topology.n_titles, scenario.zipf_theta)
    titles = catalog.assign(20_000, np.random.default_rng(1))
    per_slot = 56
    counts = np.full(-(-len(titles) // per_slot), per_slot)
    counts[-1] -= counts.sum() - len(titles)

    def admit_all():
        prefix, defer = _decide_in_chunks(_edge_tier(scenario, catalog), counts, titles)
        joins = (prefix > 0) & (prefix < scenario.n_segments)
        return int(np.count_nonzero(joins & (defer > 0)))

    deferred = benchmark(admit_all)
    assert deferred > 0.99 * len(titles)


def test_edge_tier_admission_idle(benchmark):
    """Chunked edge decisions on an uplink that idles between hits.

    The quick hierarchy's two edges (6 titles, 30 segments, 25 % cache,
    12-stream uplinks) take ~10k Zipf arrivals, Poisson 0.25 per slot over 40k slots,
    decided 64 slots per :meth:`EdgeTier.decide` call: a handful of hits
    per node call.  Each class earns its prefix costs back within a few
    slots, so its bucket is back at capacity before its next hit and the
    clamp binds at nearly every refill: the regime of the quick presets,
    where the shaper meters each class with its per-draw loop.
    """
    scenario = preset_hierarchy(quick=True)
    catalog = ZipfCatalog(scenario.topology.n_titles, scenario.zipf_theta)
    rng = np.random.default_rng(1)
    counts = rng.poisson(0.25, 40_000)
    titles = catalog.assign(int(counts.sum()), rng)

    def admit_all():
        tier = _edge_tier(scenario, catalog)
        prefix, defer = _decide_in_chunks(tier, counts, titles)
        hits = prefix > 0
        return int(np.count_nonzero(hits)), int(np.count_nonzero(hits & (defer == 0)))

    hits, undeferred = benchmark(admit_all)
    assert hits > 0.5 * len(titles)
    # Only best-effort hits on the top title (20 tokens against a
    # 14.4-token bucket) wait; every other hit finds its class's bucket
    # full enough.
    assert undeferred > 0.8 * hits
