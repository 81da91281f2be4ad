"""Tests for repro.video.mpeg."""

import numpy as np
import pytest

from repro.errors import VideoModelError
from repro.video.mpeg import MPEGConfig, generate_mpeg_trace


def mean_frame_size(config):
    """Expected frame size (bytes) at activity 1.0, averaged over the GOP."""
    sizes = {"I": config.i_mean, "P": config.p_mean, "B": config.b_mean}
    return sum(sizes[c] for c in config.gop_pattern) / len(config.gop_pattern)


def test_trace_has_requested_duration(rng):
    video = generate_mpeg_trace(120, rng)
    assert video.duration == 120.0


def test_trace_is_reproducible():
    a = generate_mpeg_trace(60, np.random.default_rng(5))
    b = generate_mpeg_trace(60, np.random.default_rng(5))
    assert np.allclose(a.bytes_per_second, b.bytes_per_second)


def test_mean_rate_near_configured(rng):
    config = MPEGConfig()
    video = generate_mpeg_trace(2000, rng, config)
    # Lognormal jitter/scene multipliers are mean-one and the act envelope
    # averages near its own mean, so the realised mean should be within a
    # modest factor of the nominal GOP rate.
    envelope_mean = sum(config.act_envelope) / len(config.act_envelope)
    assert video.average_bandwidth == pytest.approx(
        mean_frame_size(config) * config.fps * envelope_mean, rel=0.2
    )


def test_trace_is_strictly_positive(rng):
    video = generate_mpeg_trace(500, rng)
    assert float(np.min(video.bytes_per_second)) > 0


def test_quiet_opening(rng):
    config = MPEGConfig()
    video = generate_mpeg_trace(3000, rng, config)
    trace = np.asarray(video.bytes_per_second)
    opening = float(trace[:120].mean())
    overall = float(trace.mean())
    assert opening < 0.75 * overall  # the default envelope opens quiet


def test_gop_structure_means():
    config = MPEGConfig()
    assert config.i_mean > config.p_mean > config.b_mean
    expected = (config.i_mean + 3 * config.p_mean + 8 * config.b_mean) / 12
    assert mean_frame_size(config) == pytest.approx(expected)


def test_config_validation(rng):
    with pytest.raises(VideoModelError):
        generate_mpeg_trace(0, rng)
    with pytest.raises(VideoModelError):
        MPEGConfig(fps=0).validate()
    with pytest.raises(VideoModelError):
        MPEGConfig(gop_pattern="XYZ").validate()
    with pytest.raises(VideoModelError):
        MPEGConfig(gop_pattern="PBB").validate()  # no I frame
    with pytest.raises(VideoModelError):
        MPEGConfig(i_mean=0.0).validate()
    with pytest.raises(VideoModelError):
        MPEGConfig(frame_jitter_sigma=-0.1).validate()
    with pytest.raises(VideoModelError):
        MPEGConfig(scene_mean_length=0.0).validate()
    with pytest.raises(VideoModelError):
        MPEGConfig(act_envelope=()).validate()
    with pytest.raises(VideoModelError):
        MPEGConfig(act_envelope=(1.0, 0.0)).validate()


def test_scene_level_autocorrelation(rng):
    # Scene modulation should make adjacent seconds more similar than
    # distant ones.
    video = generate_mpeg_trace(3000, rng)
    trace = np.asarray(video.bytes_per_second, dtype=float)
    trace = trace / trace.mean() - 1.0
    lag1 = float(np.corrcoef(trace[:-1], trace[1:])[0, 1])
    lag100 = float(np.corrcoef(trace[:-100], trace[100:])[0, 1])
    assert lag1 > 0.3
    assert lag1 > lag100
