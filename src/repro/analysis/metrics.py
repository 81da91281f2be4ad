"""Result records shared by the experiment harness.

The paper's figures are families of (request rate → bandwidth) series, one
per protocol.  :class:`BandwidthPoint` is one measured point;
:class:`ProtocolSeries` is one curve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..errors import ConfigurationError


@dataclass(frozen=True)
class BandwidthPoint:
    """One measured operating point of one protocol.

    Attributes
    ----------
    rate_per_hour:
        Request arrival rate λ (the x-axis of Figures 7–9).
    mean_bandwidth:
        Average server bandwidth.  Units: streams of the consumption rate
        for Figures 7/8; bytes/second for Figure 9.
    max_bandwidth:
        Peak server bandwidth over the measured window (Figure 8's y-axis).
    mean_wait:
        Average client waiting time in seconds.
    n_requests:
        Requests measured (after warmup); 0 for purely analytic points.
    """

    rate_per_hour: float
    mean_bandwidth: float
    max_bandwidth: float
    mean_wait: float = 0.0
    n_requests: int = 0


@dataclass
class ProtocolSeries:
    """One protocol's curve across a rate sweep.

    Attributes
    ----------
    protocol:
        Display name ("DHB Protocol", "Stream Tapping", ...).
    points:
        Measured points, in sweep order.
    """

    protocol: str
    points: List[BandwidthPoint] = field(default_factory=list)

    def add(self, point: BandwidthPoint) -> None:
        """Append one measured point."""
        self.points.append(point)

    @property
    def rates(self) -> List[float]:
        """The swept arrival rates."""
        return [p.rate_per_hour for p in self.points]

    @property
    def means(self) -> List[float]:
        """Mean bandwidth per point."""
        return [p.mean_bandwidth for p in self.points]

    @property
    def maxima(self) -> List[float]:
        """Peak bandwidth per point."""
        return [p.max_bandwidth for p in self.points]


def series_by_name(series: List[ProtocolSeries]) -> Dict[str, ProtocolSeries]:
    """Index a list of series by protocol name.

    Raises on duplicate names — a sweep must not measure one protocol twice
    under the same label.
    """
    indexed: Dict[str, ProtocolSeries] = {}
    for entry in series:
        if entry.protocol in indexed:
            raise ConfigurationError(f"duplicate series {entry.protocol!r}")
        indexed[entry.protocol] = entry
    return indexed
