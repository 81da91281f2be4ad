"""Catalog popularity models.

VOD request studies conventionally model per-video popularity with a Zipf
distribution: the *i*-th most popular of ``n`` videos attracts a fraction
proportional to ``1 / i**theta`` of the requests.  The paper's figures are
per-video, but its motivation — some videos are in heavy demand, most are
not — is exactly a Zipf catalog, so multi-video examples and tests use this
model to split an aggregate arrival rate across titles.
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..errors import WorkloadError


class ZipfCatalog:
    """Zipf(θ) popularity over a catalog of ``n_videos`` titles.

    Parameters
    ----------
    n_videos:
        Catalog size.
    theta:
        Zipf skew; 1.0 is the classic video-rental fit, 0.0 is uniform.

    Examples
    --------
    >>> catalog = ZipfCatalog(n_videos=3, theta=0.0)
    >>> [round(p, 3) for p in catalog.probabilities]
    [0.333, 0.333, 0.333]
    """

    def __init__(self, n_videos: int, theta: float = 1.0):
        if n_videos < 1:
            raise WorkloadError(f"catalog needs >= 1 video, got {n_videos}")
        if theta < 0:
            raise WorkloadError(f"theta must be >= 0, got {theta}")
        self.n_videos = int(n_videos)
        self.theta = float(theta)
        weights = np.array([1.0 / (rank**theta) for rank in range(1, n_videos + 1)])
        self._probabilities = weights / weights.sum()

    @property
    def probabilities(self) -> List[float]:
        """Per-video request probabilities, most popular first."""
        return [float(p) for p in self._probabilities]

    def rate_for(self, video_rank: int, total_rate_per_hour: float) -> float:
        """Arrival rate (per hour) attracted by the video of ``video_rank``.

        Ranks are 0-based with 0 the most popular title.
        """
        if not 0 <= video_rank < self.n_videos:
            raise WorkloadError(
                f"rank {video_rank} outside catalog of {self.n_videos}"
            )
        if total_rate_per_hour < 0:
            raise WorkloadError("total rate must be >= 0")
        return float(self._probabilities[video_rank]) * total_rate_per_hour

    def assign(self, n_requests: int, rng: np.random.Generator) -> np.ndarray:
        """Draw a video rank for each of ``n_requests`` requests."""
        if n_requests < 0:
            raise WorkloadError("n_requests must be >= 0")
        return rng.choice(self.n_videos, size=n_requests, p=self._probabilities)
