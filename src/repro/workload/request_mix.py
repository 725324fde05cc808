"""Request-type mixes and payload sizes.

The 2-tier validation sends requests whose "value sizes are
exponentially distributed" (paper SSIV-A); memcached distinguishes read
and write paths; the social network serves different RPC types. A
:class:`RequestMix` couples type names, their probabilities, and a
per-type payload-size distribution.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from ..distributions import Deterministic, Distribution
from ..engine.random import cumulative_weights, weighted_index
from ..errors import WorkloadError


class RequestType:
    """One request class: name, weight, and payload size distribution."""

    def __init__(
        self,
        name: str,
        weight: float,
        size: Union[float, Distribution, None] = None,
    ) -> None:
        if not name:
            raise WorkloadError("request type needs a name")
        if weight < 0:
            raise WorkloadError(f"weight must be >= 0, got {weight!r}")
        self.name = name
        self.weight = float(weight)
        if size is None:
            self.size: Distribution = Deterministic(0.0)
        elif isinstance(size, Distribution):
            self.size = size
        else:
            self.size = Deterministic(float(size))

    def __repr__(self) -> str:
        return f"RequestType({self.name!r}, w={self.weight:g})"


class RequestMix:
    """Weighted mix of request types."""

    def __init__(self, types: Sequence[RequestType]) -> None:
        if not types:
            raise WorkloadError("request mix needs at least one type")
        names = [t.name for t in types]
        if len(set(names)) != len(names):
            raise WorkloadError(f"duplicate request type names in {names}")
        total = sum(t.weight for t in types)
        if not total > 0:
            raise WorkloadError("request mix weights must sum to > 0")
        self.types = list(types)
        self._probs = np.array([t.weight / total for t in types])
        self._cdf = cumulative_weights(self._probs)

    @classmethod
    def single(
        cls, name: str = "default", size: Union[float, Distribution, None] = None
    ) -> "RequestMix":
        """A mix with just one request type."""
        return cls([RequestType(name, 1.0, size)])

    @classmethod
    def from_weights(
        cls,
        weights: Dict[str, float],
        sizes: Optional[Dict[str, Union[float, Distribution]]] = None,
    ) -> "RequestMix":
        """Build from ``{name: weight}`` (+ optional per-type sizes)."""
        sizes = sizes or {}
        return cls(
            [RequestType(n, w, sizes.get(n)) for n, w in sorted(weights.items())]
        )

    def sample(self, rng: np.random.Generator) -> Tuple[str, float]:
        """Draw (type name, payload bytes) for the next request."""
        rtype = self.types[weighted_index(rng, self._cdf)]
        return rtype.name, max(0.0, rtype.size.sample(rng))

    @property
    def probabilities(self) -> Dict[str, float]:
        return {t.name: float(p) for t, p in zip(self.types, self._probs)}

    def __repr__(self) -> str:
        parts = ", ".join(f"{t.name}:{p:.2f}" for t, p in zip(self.types, self._probs))
        return f"RequestMix({parts})"
