#!/usr/bin/env python
"""Capacity planning for a multi-video VOD server.

Uses the Zipf catalog popularity model to split an aggregate request stream
across a catalog of titles, then picks, per title, the cheaper of DHB and
stream tapping at that title's individual rate — the deployment decision the
paper's flexibility argument enables ("a dynamic protocol ... can be easily
tailored to the specific bandwidth requirements of any given video").

Also demonstrates the client-bandwidth-limited DHB extension (the paper's
future-work item) and what its receive cap costs the server.

Run:  python examples/capacity_planning.py
"""

from repro import BandwidthLimitedDHB, DHBProtocol
from repro.analysis.tables import format_simple_table
from repro.analysis.theory import patching_cost_rate
from repro.experiments.config import SweepConfig
from repro.experiments.runner import arrivals_for_rate, measure_protocol
from repro.units import HOUR, TWO_HOURS
from repro.workload.popularity import ZipfCatalog

N_SEGMENTS = 99
CATALOG = 20
TOTAL_RATE = 400.0  # aggregate requests/hour across the catalog


def main() -> None:
    catalog = ZipfCatalog(n_videos=CATALOG, theta=1.0)
    config = SweepConfig().quick(rates_per_hour=(1.0,))  # per-title rates vary

    rows = []
    total_streams = 0.0
    for rank in range(CATALOG):
        rate = catalog.rate_for(rank, TOTAL_RATE)
        per_title = config.replace(rates_per_hour=(max(rate, 0.2),))
        arrivals = arrivals_for_rate(per_title, per_title.rates_per_hour[0])
        dhb_point = measure_protocol(
            DHBProtocol(n_segments=N_SEGMENTS),
            per_title,
            per_title.rates_per_hour[0],
            arrival_times=arrivals,
        )
        tapping_estimate = patching_cost_rate(rate / HOUR, TWO_HOURS)
        choice = "DHB" if dhb_point.mean_bandwidth <= tapping_estimate else "tapping"
        chosen = min(dhb_point.mean_bandwidth, tapping_estimate)
        total_streams += chosen
        if rank < 8 or rank == CATALOG - 1:
            rows.append(
                [
                    f"#{rank + 1}",
                    f"{rate:.1f}",
                    f"{dhb_point.mean_bandwidth:.2f}",
                    f"{tapping_estimate:.2f}",
                    choice,
                ]
            )
    print(f"catalog of {CATALOG} titles, {TOTAL_RATE:g} requests/hour total, "
          f"Zipf(1.0) popularity")
    print(format_simple_table(
        ["title", "req/h", "DHB streams", "tapping est.", "pick"], rows
    ))
    print(f"\nprovisioned server bandwidth (cheaper protocol per title): "
          f"{total_streams:.1f} streams")

    # Client receive-cap extension: what does limiting the STB cost?
    rate = catalog.rate_for(0, TOTAL_RATE)
    per_title = config.replace(rates_per_hour=(rate,))
    arrivals = arrivals_for_rate(per_title, rate)
    rows = []
    for cap_label, protocol in [
        ("unlimited", DHBProtocol(n_segments=N_SEGMENTS)),
        ("cap 3", BandwidthLimitedDHB(n_segments=N_SEGMENTS, client_cap=3)),
        ("cap 2", BandwidthLimitedDHB(n_segments=N_SEGMENTS, client_cap=2)),
    ]:
        point = measure_protocol(protocol, per_title, rate, arrival_times=arrivals)
        rows.append([cap_label, f"{point.mean_bandwidth:.2f}", f"{point.max_bandwidth:.0f}"])
    print(f"\nclient receive-cap extension on the most popular title "
          f"({rate:.0f} req/h):")
    print(format_simple_table(["client cap", "mean streams", "max streams"], rows))
    print("the cap trades a little server bandwidth for a bounded set-top box,")
    print("the direction the paper's future work points at.")


if __name__ == "__main__":
    main()
