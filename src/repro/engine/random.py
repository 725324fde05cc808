"""Seeded random-number streams for reproducible simulations.

Every stochastic element of a simulation (arrival process, each stage's
service-time distribution, path selection, straggler placement...) draws
from its own named stream. Streams are spawned from a single root seed
via :class:`numpy.random.SeedSequence`, so

* the whole simulation is reproducible from one integer seed, and
* adding a new consumer does not perturb the draws seen by existing
  consumers (streams are independent, not interleaved).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Sequence

import numpy as np


class RandomStreams:
    """Factory of named, independent :class:`numpy.random.Generator` streams."""

    def __init__(self, seed: int = 0) -> None:
        self._seed = int(seed)
        self._root = np.random.SeedSequence(self._seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        """The root seed this container was built from."""
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for *name*, creating it on first use.

        The child seed is derived from the root seed and a stable hash
        of the name, so the same ``(seed, name)`` pair always yields the
        same stream regardless of creation order.
        """
        generator = self._streams.get(name)
        if generator is None:
            # Stable, order-independent derivation: fold the name's bytes
            # into spawn keys understood by SeedSequence.
            name_key = [b for b in name.encode("utf-8")]
            child = np.random.SeedSequence(self._seed, spawn_key=tuple(name_key))
            generator = np.random.default_rng(child)
            self._streams[name] = generator
        return generator

    def __contains__(self, name: str) -> bool:
        return name in self._streams

    def fork(self, salt: str) -> "RandomStreams":
        """A new container whose streams are independent of this one's.

        Used to give repetitions of an experiment (e.g. the parallel
        BigHouse instances, or the per-point runs of a load sweep)
        decorrelated randomness while staying reproducible.
        """
        mixed = np.random.SeedSequence(
            self._seed, spawn_key=tuple(salt.encode("utf-8"))
        )
        return RandomStreams(int(mixed.generate_state(1)[0]))


def cumulative_weights(weights: Sequence[float]) -> list:
    """The normalised cumulative distribution of *weights*, as a list
    for :func:`weighted_index` — built once, at construction."""
    cdf = np.asarray(weights, dtype=float).cumsum()
    return (cdf / cdf[-1]).tolist()


def weighted_index(rng: np.random.Generator, cdf: list) -> int:
    """Draw an index with the probabilities behind *cdf*.

    Exactly what ``rng.choice(len(cdf), p=...)`` does for one draw —
    one ``rng.random()`` and a right-side search of the normalised CDF
    — so the index and the stream state match it, at a fraction of
    its per-call validation cost.
    """
    return bisect_right(cdf, rng.random())
