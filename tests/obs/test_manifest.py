"""Tests for repro.obs.manifest."""

import json
import subprocess

from repro.obs.manifest import (
    MANIFEST_SCHEMA,
    ManifestRecorder,
    RunManifest,
    current_git_sha,
    peak_rss_bytes,
    source_repo_root,
)


class TestRunManifest:
    def test_round_trip_dict(self):
        manifest = RunManifest(
            experiment="fig7",
            protocols=["DHB Protocol"],
            params={"seed": 2001, "rates_per_hour": [2.0, 50.0]},
            seed=2001,
            git_sha="abc123",
            duration_seconds=1.5,
        )
        assert RunManifest.from_dict(manifest.to_dict()) == manifest

    def test_round_trip_json(self):
        manifest = RunManifest(experiment="sweep", seed=7)
        clone = RunManifest.from_dict(json.loads(manifest.to_json()))
        assert clone == manifest
        assert clone.schema == MANIFEST_SCHEMA

    def test_write(self, tmp_path):
        path = tmp_path / "manifest.json"
        RunManifest(experiment="bench").write(path)
        assert json.loads(path.read_text())["experiment"] == "bench"


class TestManifestRecorder:
    def test_fills_provenance_on_exit(self):
        with ManifestRecorder("fig9", protocols=["UD"], seed=3) as recorder:
            assert recorder.manifest.started_at  # stamped on entry
        manifest = recorder.manifest
        assert manifest.experiment == "fig9"
        assert manifest.protocols == ["UD"]
        assert manifest.seed == 3
        assert manifest.duration_seconds >= 0.0
        assert manifest.python_version
        assert manifest.numpy_version
        assert manifest.platform

    def test_round_trips_after_recording(self):
        with ManifestRecorder("fig7", params={"n_segments": 99}) as recorder:
            pass
        clone = RunManifest.from_dict(json.loads(recorder.manifest.to_json()))
        assert clone == recorder.manifest
        assert clone.params == {"n_segments": 99}


class TestProvenanceHelpers:
    def test_git_sha_in_this_repo(self):
        sha = current_git_sha()
        expected = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True
        ).stdout.strip()
        assert sha == expected

    def test_git_sha_outside_a_repo(self, tmp_path):
        assert current_git_sha(tmp_path) is None

    def test_peak_rss_positive_on_posix(self):
        peak = peak_rss_bytes()
        assert peak is None or peak > 1024 * 1024  # at least a megabyte

    def test_source_repo_root_is_the_tracking_checkout(self):
        # The test suite runs from the project checkout, which tracks the
        # package source, so the root resolves and carries HEAD.
        root = source_repo_root()
        assert root is not None
        assert current_git_sha(root) == current_git_sha()

    def test_source_repo_root_rejects_untracked_file(self, tmp_path):
        untracked = tmp_path / "module.py"
        untracked.write_text("")
        assert source_repo_root(untracked) is None

    def test_recorder_sha_comes_from_the_source_checkout(self):
        with ManifestRecorder("sweep") as recorder:
            pass
        assert recorder.manifest.git_sha == current_git_sha(source_repo_root())

    def test_recorder_records_no_sha_for_untracked_source(self, tmp_path, monkeypatch):
        # Simulate a pip-installed copy inside an unrelated enclosing repo:
        # the source is not tracked, so provenance must be None, not the
        # SHA of whatever repository surrounds site-packages (or the cwd).
        import repro.obs.manifest as manifest_module

        monkeypatch.setattr(
            manifest_module, "source_repo_root", lambda source=None: None
        )
        with ManifestRecorder("sweep") as recorder:
            pass
        assert recorder.manifest.git_sha is None
