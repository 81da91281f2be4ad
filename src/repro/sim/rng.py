"""Named, independently seeded random streams.

Reproducibility discipline: every stochastic component of a simulation draws
from its *own* generator, derived deterministically from a single experiment
seed and a stream name.  Adding a new consumer of randomness therefore never
perturbs the draws seen by existing consumers — sweeps stay comparable across
library versions and protocol variants (common random numbers).
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from ..errors import ConfigurationError

#: The repository-wide default experiment seed (the paper's publication year).
DEFAULT_SEED = 2001


class RandomStreams:
    """A factory of named, reproducible :class:`numpy.random.Generator` objects.

    Parameters
    ----------
    seed:
        Experiment-level seed.  Two :class:`RandomStreams` built from the same
        seed hand out identical streams for identical names.

    Examples
    --------
    >>> streams = RandomStreams(seed=42)
    >>> arrivals = streams.get("arrivals")
    >>> video = streams.get("video")
    >>> arrivals is streams.get("arrivals")
    True
    >>> draw = float(RandomStreams(42).get("arrivals").random())
    >>> draw == float(RandomStreams(42).get("arrivals").random())
    True
    """

    def __init__(self, seed: int):
        if not isinstance(seed, (int, np.integer)):
            raise ConfigurationError(f"seed must be an integer, got {seed!r}")
        self._seed = int(seed)
        self._streams: Dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The experiment-level seed this factory was built from."""
        return self._seed

    def get(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use.

        The generator is seeded from ``(seed, name)`` via
        :class:`numpy.random.SeedSequence`, so distinct names yield
        statistically independent streams.
        """
        if not name:
            raise ConfigurationError("stream name must be a non-empty string")
        if name not in self._streams:
            entropy = [self._seed] + [ord(ch) for ch in name]
            self._streams[name] = np.random.default_rng(np.random.SeedSequence(entropy))
        return self._streams[name]

    def spawn(self, name: str) -> "RandomStreams":
        """Derive a child factory (e.g. one per replication) from this one."""
        child_seed = int(self.get(f"spawn:{name}").integers(0, 2**63 - 1))
        return RandomStreams(child_seed)
