#!/usr/bin/env python
"""The paper's motivating scenario: demand that swings with the time of day.

"Child-oriented fare will always be in higher demand during the day and
early evening hours than at night ... No conventional distribution protocols
can effectively handle the distribution of these videos."

This example simulates 48 hours of a child-oriented title whose request rate
follows a daytime-peaked profile (idle overnight, ~120 requests/hour at
peak), under three protocols:

* NPB — the best fixed broadcast schedule: great at the peak, pure waste at
  4 am;
* stream tapping — great at 4 am, overloaded at the peak;
* DHB — tracks both regimes, which is the paper's whole point.

It prints per-4-hour-bucket average bandwidths so the time-of-day effect is
visible directly.
"""

from typing import List

from repro import DHBProtocol, RandomStreams, StreamTappingProtocol
from repro.analysis.tables import format_simple_table
from repro.protocols.npb import pagoda_streams_for_segments
from repro.sim.continuous import ContinuousSimulation
from repro.sim.slotted import SlottedSimulation
from repro.units import HOUR, TWO_HOURS
from repro.workload.diurnal import DiurnalArrivals, child_daytime_profile

N_SEGMENTS = 99
DAYS = 2
PEAK_RATE = 120.0


def bucket_means(series: List[int], slots_per_bucket: int) -> List[float]:
    """Average of each consecutive bucket of per-slot loads."""
    means = []
    for start in range(0, len(series) - slots_per_bucket + 1, slots_per_bucket):
        bucket = series[start : start + slots_per_bucket]
        means.append(sum(bucket) / len(bucket))
    return means


def main() -> None:
    profile = child_daytime_profile(peak_rate_per_hour=PEAK_RATE)
    horizon = DAYS * 24 * HOUR
    process = DiurnalArrivals(profile)
    times = process.generate(horizon, RandomStreams(7).get("arrivals"))
    print(
        f"{len(times)} requests over {DAYS} days "
        f"(profile mean {profile.mean_rate_per_hour:.0f}/h, peak {PEAK_RATE:.0f}/h)"
    )

    slot = TWO_HOURS / N_SEGMENTS
    slots = int(horizon / slot)

    dhb = DHBProtocol(n_segments=N_SEGMENTS)
    dhb_run = SlottedSimulation(dhb, slot, slots, warmup_slots=0, keep_series=True).run(
        times
    )

    tapping = StreamTappingProtocol(duration=TWO_HOURS)  # online rate estimate
    tap_run = ContinuousSimulation(tapping, horizon).run(times)

    npb_streams = pagoda_streams_for_segments(N_SEGMENTS)

    slots_per_bucket = int(4 * HOUR / slot)
    dhb_buckets = bucket_means(dhb_run.series, slots_per_bucket)
    rows = []
    for index, dhb_mean in enumerate(dhb_buckets):
        start_hour = (index * 4) % 24
        mid = (index * 4 + 2) * HOUR
        rows.append(
            [
                f"day {index * 4 // 24 + 1} {start_hour:02d}:00-{start_hour + 4:02d}:00",
                f"{profile.rate_at(mid):.0f}",
                f"{dhb_mean:.2f}",
                f"{npb_streams:.2f}",
            ]
        )
    print()
    print(format_simple_table(
        ["window", "req/h", "DHB streams", "NPB streams"], rows
    ))
    print()
    print(f"whole-run averages: DHB {dhb_run.mean_streams:.2f} streams, "
          f"NPB {npb_streams} streams (always), "
          f"stream tapping {tap_run.mean_streams:.2f} streams")
    print("DHB idles with the audience at night and stays below NPB at the peak;")
    print("tapping matches DHB overnight but pays dearly for zero-delay at noon.")


if __name__ == "__main__":
    main()
