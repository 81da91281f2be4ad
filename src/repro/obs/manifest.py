"""Run manifests: a machine-readable record of what ran, where, at what cost.

A :class:`RunManifest` pins down everything needed to interpret (or rerun)
a measurement: the experiment name, the protocols and sweep parameters,
the workload seed, the git revision and interpreter/numpy versions that
produced it, plus the wall-clock duration and peak resident set size of
the run.  The CLI writes one next to every ``--metrics-out`` document, and
the observed sweep attaches one to every result.

:class:`ManifestRecorder` is the usual way to build one::

    with ManifestRecorder("fig7", protocols=["dhb"], seed=2001) as rec:
        ...  # run the experiment
    rec.manifest.write("run.json")
"""

from __future__ import annotations

import json
import pathlib
import platform
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from typing import Any, Dict, List, Optional, Sequence, Union

#: Manifest schema version, bumped on breaking field changes.
MANIFEST_SCHEMA = 1


def current_git_sha(cwd: Union[str, pathlib.Path, None] = None) -> Optional[str]:
    """The repository's HEAD commit, or ``None`` outside a git checkout.

    Never raises: a missing ``git`` binary, a non-repo directory, or a
    timeout all degrade to ``None`` — manifests must not fail runs.
    """
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd is not None else None,
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def source_repo_root(
    source: Union[str, pathlib.Path, None] = None
) -> Optional[pathlib.Path]:
    """The git work tree that actually *tracks* ``source``, or ``None``.

    ``source`` defaults to this module's file, i.e. the installed package
    itself.  A pip-installed copy can sit inside an unrelated repository
    (site-packages under someone's dotfiles checkout, say), where a bare
    ``git rev-parse HEAD`` would stamp manifests with the SHA of a repo
    that never produced this code.  The enclosing work tree is therefore
    only trusted when ``git ls-files`` confirms it tracks the source file;
    otherwise callers should record no SHA at all.
    """
    path = pathlib.Path(source if source is not None else __file__).resolve()
    try:
        proc = subprocess.run(
            ["git", "-C", str(path.parent), "ls-files", "--error-unmatch", path.name],
            capture_output=True,
            text=True,
            timeout=5.0,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return path.parent if proc.returncode == 0 else None


def peak_rss_bytes() -> Optional[int]:
    """Peak resident set size of this process in bytes, if measurable.

    Uses ``resource.getrusage``; ``ru_maxrss`` is kilobytes on Linux and
    bytes on macOS.  Returns ``None`` on platforms without ``resource``.
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - windows
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macos
        return int(peak)
    return int(peak) * 1024


@dataclass
class RunManifest:
    """Provenance and cost record of one run.

    Attributes
    ----------
    experiment:
        What ran ("fig7", "sweep", a bench name, ...).
    protocols:
        Display labels of the protocols measured.
    params:
        The run parameters (typically the sweep config as a dict).
    seed:
        The workload seed, when one drove the run.
    git_sha:
        HEAD commit of the producing checkout (``None`` outside git).
    python_version / numpy_version / platform:
        The software that produced the numbers.
    started_at:
        UTC wall-clock start, ISO 8601.
    duration_seconds:
        Wall-clock cost of the run.
    peak_rss_bytes:
        Peak resident set size (``None`` where unmeasurable).
    """

    experiment: str
    protocols: List[str] = field(default_factory=list)
    params: Dict[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None
    git_sha: Optional[str] = None
    python_version: str = ""
    numpy_version: str = ""
    platform: str = ""
    started_at: str = ""
    duration_seconds: float = 0.0
    peak_rss_bytes: Optional[int] = None
    schema: int = MANIFEST_SCHEMA

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (JSON-safe)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, state: Dict[str, Any]) -> "RunManifest":
        """Rebuild a manifest from :meth:`to_dict` output."""
        return cls(**state)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """Serialize to a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def write(self, path: Union[str, pathlib.Path]) -> None:
        """Write the manifest as JSON to ``path``."""
        pathlib.Path(path).write_text(self.to_json() + "\n")


class ManifestRecorder:
    """Context manager that fills a :class:`RunManifest` around a run.

    On entry it stamps the start time; on exit it records the duration,
    peak RSS, git SHA, and interpreter/numpy versions.  The manifest is
    available (and complete) as :attr:`manifest` after the ``with`` block.

    ``repo_root`` pins the directory the git SHA is resolved in; when
    omitted, the SHA comes from the checkout that tracks the package
    source (:func:`source_repo_root`), and is ``None`` when no repository
    does — never from whatever unrelated repo happens to enclose an
    installed copy or the caller's working directory.
    """

    def __init__(
        self,
        experiment: str,
        protocols: Sequence[str] = (),
        params: Optional[Dict[str, Any]] = None,
        seed: Optional[int] = None,
        repo_root: Union[str, pathlib.Path, None] = None,
    ):
        self.manifest = RunManifest(
            experiment=experiment,
            protocols=list(protocols),
            params=dict(params or {}),
            seed=seed,
        )
        self._repo_root = repo_root
        self._start = 0.0

    def __enter__(self) -> "ManifestRecorder":
        self.manifest.started_at = datetime.now(timezone.utc).isoformat()
        self._start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.manifest.duration_seconds = time.perf_counter() - self._start
        self.manifest.peak_rss_bytes = peak_rss_bytes()
        root = self._repo_root if self._repo_root is not None else source_repo_root()
        self.manifest.git_sha = current_git_sha(root) if root is not None else None
        self.manifest.python_version = platform.python_version()
        self.manifest.platform = platform.platform()
        try:
            import numpy
        except ImportError:  # pragma: no cover - numpy is a hard dependency
            self.manifest.numpy_version = ""
        else:
            self.manifest.numpy_version = numpy.__version__
