"""Synthetic MPEG-style VBR trace generation.

We cannot ship the DVD trace the paper analysed, so we synthesise one with
the structure real MPEG video exhibits (and that the paper's references [1]
Beran et al. and [9] Garrett & Willinger document):

* a periodic **GOP structure** — large I frames, medium P frames, small B
  frames, repeating e.g. ``IBBPBBPBBPBB`` at 24 frames/second;
* **scene-level modulation** — frame sizes within a scene share an activity
  level; scene changes redraw that level from a lognormal distribution and
  scene lengths are themselves random, which produces the slowly decaying
  autocorrelation (long-range-dependence-like behaviour) measured in real
  traces;
* **frame-level noise** — multiplicative lognormal jitter per frame.

The generator is fully determined by a :class:`numpy.random.Generator`, so a
given seed always yields byte-identical traces.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..errors import VideoModelError
from .vbr import VBRVideo


@dataclass(frozen=True)
class MPEGConfig:
    """Parameters of the synthetic MPEG trace generator.

    Frame-size means are expressed in bytes; the defaults approximate a DVD
    MPEG-2 encode at a mean rate in the 600–700 KB/s range before
    calibration.

    Attributes
    ----------
    fps:
        Frames per second (24 for film material).
    gop_pattern:
        Frame-type sequence of one group of pictures.
    i_mean, p_mean, b_mean:
        Mean frame sizes (bytes) for I, P and B frames at activity 1.0.
    frame_jitter_sigma:
        Sigma of the per-frame lognormal jitter.
    scene_sigma:
        Sigma of the lognormal scene-activity multiplier.
    scene_mean_length:
        Mean scene length in seconds (geometrically distributed).
    act_envelope:
        Slow, deterministic pacing multipliers applied over equal-length
        "acts" of the film (linearly interpolated).  Real features are not
        rate-stationary — action-heavy acts run well above the mean for many
        minutes — and this nonstationarity is exactly what makes work-ahead
        smoothing (DHB-c/d) profitable: the binding prefix of the cumulative
        consumption curve sits mid-film above the long-run average.  The
        default profile opens *quiet* (titles and establishing scenes run
        far below the mean bit rate — this is what lets the paper's second
        segment be broadcast only "every three slots"), peaks in the second
        act, and tails off.
    """

    fps: int = 24
    gop_pattern: str = "IBBPBBPBBPBB"
    i_mean: float = 60_000.0
    p_mean: float = 28_000.0
    b_mean: float = 12_000.0
    frame_jitter_sigma: float = 0.15
    scene_sigma: float = 0.12
    scene_mean_length: float = 8.0
    act_envelope: Tuple[float, ...] = (0.40, 1.15, 1.25, 1.08, 0.95, 0.70)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.VideoModelError` on bad parameters."""
        if self.fps < 1:
            raise VideoModelError(f"fps must be >= 1, got {self.fps}")
        if not self.gop_pattern or set(self.gop_pattern) - set("IPB"):
            raise VideoModelError(f"bad GOP pattern {self.gop_pattern!r}")
        if "I" not in self.gop_pattern:
            raise VideoModelError("GOP pattern needs at least one I frame")
        for label, value in (
            ("i_mean", self.i_mean),
            ("p_mean", self.p_mean),
            ("b_mean", self.b_mean),
        ):
            if value <= 0:
                raise VideoModelError(f"{label} must be > 0, got {value}")
        if self.frame_jitter_sigma < 0 or self.scene_sigma < 0:
            raise VideoModelError("sigmas must be >= 0")
        if self.scene_mean_length <= 0:
            raise VideoModelError("scene_mean_length must be > 0")
        if not self.act_envelope or any(a <= 0 for a in self.act_envelope):
            raise VideoModelError("act_envelope needs positive multipliers")


def generate_mpeg_trace(
    duration_seconds: int,
    rng: np.random.Generator,
    config: MPEGConfig = MPEGConfig(),
    name: str = "synthetic-mpeg",
) -> VBRVideo:
    """Generate a seeded synthetic MPEG VBR video of ``duration_seconds``.

    Returns a :class:`~repro.video.vbr.VBRVideo` whose per-second byte counts
    aggregate the synthetic frame sizes.

    Examples
    --------
    >>> import numpy as np
    >>> video = generate_mpeg_trace(60, np.random.default_rng(7))
    >>> video.duration
    60.0
    """
    config.validate()
    if duration_seconds < 1:
        raise VideoModelError(f"duration must be >= 1 s, got {duration_seconds}")

    n_frames = duration_seconds * config.fps
    type_means = {"I": config.i_mean, "P": config.p_mean, "B": config.b_mean}
    pattern = np.array([type_means[c] for c in config.gop_pattern])
    base_sizes = np.resize(pattern, n_frames)

    # Scene-level activity: piecewise-constant lognormal multiplier with
    # geometrically distributed scene lengths (in whole seconds).
    activity = np.empty(n_frames)
    frame = 0
    while frame < n_frames:
        scene_seconds = int(rng.geometric(1.0 / config.scene_mean_length))
        scene_frames = min(scene_seconds * config.fps, n_frames - frame)
        # Mean-one lognormal: exp(N(-sigma^2/2, sigma)).
        level = float(
            rng.lognormal(-config.scene_sigma**2 / 2.0, config.scene_sigma)
        )
        activity[frame : frame + scene_frames] = level
        frame += scene_frames

    jitter = rng.lognormal(
        -config.frame_jitter_sigma**2 / 2.0, config.frame_jitter_sigma, size=n_frames
    )
    # Act-level pacing: interpolate the envelope over the film's run time.
    act_points = np.asarray(config.act_envelope, dtype=float)
    frame_positions = np.linspace(0.0, len(act_points) - 1.0, n_frames)
    envelope = np.interp(frame_positions, np.arange(len(act_points)), act_points)
    frame_sizes = base_sizes * activity * jitter * envelope

    per_second = frame_sizes.reshape(duration_seconds, config.fps).sum(axis=1)
    return VBRVideo(per_second, name=name)
