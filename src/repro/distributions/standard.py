"""Parametric distributions and combinators.

The library of "regular distributions" the paper supports for stage
processing times, plus combinators (scale, shift, mixture) used to
express DVFS scaling, network propagation offsets, and probabilistic
path behaviour.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..engine.random import cumulative_weights, weighted_index
from ..errors import DistributionError
from .base import Distribution, require_non_negative, require_positive


class Deterministic(Distribution):
    """Always returns the same value. ``Deterministic(0)`` is a no-op stage."""

    def __init__(self, value: float) -> None:
        self.value = require_non_negative("value", value)

    def sample(self, rng: np.random.Generator) -> float:
        return self.value

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def mean(self) -> float:
        return self.value

    def minimum(self) -> float:
        return self.value

    def __repr__(self) -> str:
        return f"Deterministic({self.value!r})"


class Exponential(Distribution):
    """Exponential with the given *mean* (not rate).

    The workhorse of the paper's validation: both inter-arrival times
    and request value sizes are "exponentially distributed" (SSIV-A), and
    the tail-at-scale study uses exponential service around a 1 ms mean.
    """

    def __init__(self, mean: float) -> None:
        self._mean = require_positive("mean", mean)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self._mean))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.exponential(self._mean, size=n)

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"Exponential(mean={self._mean!r})"


class Uniform(Distribution):
    """Uniform on ``[low, high]``."""

    def __init__(self, low: float, high: float) -> None:
        self.low = require_non_negative("low", low)
        self.high = float(high)
        if self.high < self.low:
            raise DistributionError(
                f"high ({high!r}) must be >= low ({low!r})"
            )

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def minimum(self) -> float:
        return self.low

    def __repr__(self) -> str:
        return f"Uniform({self.low!r}, {self.high!r})"


class LogNormal(Distribution):
    """Log-normal parameterised by the mean and sigma of the underlying normal.

    Heavier-tailed than exponential; a good fit for OS-jittered service
    times and used by the testbed's interference model.
    """

    def __init__(self, mu: float, sigma: float) -> None:
        self.mu = float(mu)
        self.sigma = require_positive("sigma", sigma)

    @classmethod
    def from_mean_cv(cls, mean: float, cv: float) -> "LogNormal":
        """Construct from the distribution's mean and coefficient of variation."""
        mean = require_positive("mean", mean)
        cv = require_positive("cv", cv)
        sigma2 = math.log(1.0 + cv * cv)
        mu = math.log(mean) - sigma2 / 2.0
        return cls(mu, math.sqrt(sigma2))

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.lognormal(self.mu, self.sigma))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.lognormal(self.mu, self.sigma, size=n)

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def __repr__(self) -> str:
        return f"LogNormal(mu={self.mu!r}, sigma={self.sigma!r})"


class Pareto(Distribution):
    """Pareto (Lomax-style, shifted to start at ``scale``).

    ``shape`` must exceed 1 for the mean to exist — enforced, because a
    stage with infinite mean service time deadlocks any queueing model.
    """

    def __init__(self, scale: float, shape: float) -> None:
        self.scale = require_positive("scale", scale)
        self.shape = float(shape)
        if self.shape <= 1.0:
            raise DistributionError(
                f"Pareto shape must be > 1 for a finite mean, got {shape!r}"
            )

    def sample(self, rng: np.random.Generator) -> float:
        # numpy's pareto is the Lomax distribution: scale * (1 + X).
        return float(self.scale * (1.0 + rng.pareto(self.shape)))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * (1.0 + rng.pareto(self.shape, size=n))

    def mean(self) -> float:
        return self.scale * self.shape / (self.shape - 1.0)

    def minimum(self) -> float:
        return self.scale

    def __repr__(self) -> str:
        return f"Pareto(scale={self.scale!r}, shape={self.shape!r})"


class Erlang(Distribution):
    """Erlang-k: sum of *k* independent exponentials (overall mean given).

    Models multi-step deterministic-ish pipelines with tunable variance
    (CV^2 = 1/k).
    """

    def __init__(self, k: int, mean: float) -> None:
        self.k = int(k)
        if self.k < 1:
            raise DistributionError(f"Erlang k must be >= 1, got {k!r}")
        self._mean = require_positive("mean", mean)

    def sample(self, rng: np.random.Generator) -> float:
        return float(rng.gamma(self.k, self._mean / self.k))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.gamma(self.k, self._mean / self.k, size=n)

    def mean(self) -> float:
        return self._mean

    def __repr__(self) -> str:
        return f"Erlang(k={self.k!r}, mean={self._mean!r})"


class Weibull(Distribution):
    """Weibull with the given shape and scale."""

    def __init__(self, shape: float, scale: float) -> None:
        self.shape = require_positive("shape", shape)
        self.scale = require_positive("scale", scale)

    def sample(self, rng: np.random.Generator) -> float:
        return float(self.scale * rng.weibull(self.shape))

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.scale * rng.weibull(self.shape, size=n)

    def mean(self) -> float:
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def __repr__(self) -> str:
        return f"Weibull(shape={self.shape!r}, scale={self.scale!r})"


class Mixture(Distribution):
    """Probabilistic mixture of component distributions.

    Used e.g. for bimodal service times (fast cache hit vs slow disk
    miss) when the split is not modelled as separate execution paths.
    """

    def __init__(
        self,
        components: Sequence[Distribution],
        weights: Sequence[float],
    ) -> None:
        if len(components) == 0:
            raise DistributionError("Mixture needs at least one component")
        if len(components) != len(weights):
            raise DistributionError(
                f"{len(components)} components but {len(weights)} weights"
            )
        total = float(sum(weights))
        if not math.isclose(total, 1.0, rel_tol=1e-9, abs_tol=1e-9):
            raise DistributionError(f"mixture weights must sum to 1, got {total!r}")
        if any(w < 0 for w in weights):
            raise DistributionError("mixture weights must be non-negative")
        self.components = list(components)
        self.weights = np.asarray(weights, dtype=float)
        self._cdf = cumulative_weights(self.weights)

    def sample(self, rng: np.random.Generator) -> float:
        return self.components[weighted_index(rng, self._cdf)].sample(rng)

    def mean(self) -> float:
        return float(
            sum(w * c.mean() for w, c in zip(self.weights, self.components))
        )

    def minimum(self) -> float:
        return min(
            c.minimum()
            for w, c in zip(self.weights, self.components)
            if w > 0
        )

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{w:.3f}*{c!r}" for w, c in zip(self.weights, self.components)
        )
        return f"Mixture({parts})"


class Scaled(Distribution):
    """``factor * inner`` — e.g. DVFS slowdown of a compute-bound stage."""

    def __init__(self, inner: Distribution, factor: float) -> None:
        self.inner = inner
        self.factor = require_positive("factor", factor)

    def sample(self, rng: np.random.Generator) -> float:
        return self.factor * self.inner.sample(rng)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.factor * self.inner.sample_many(rng, n)

    def mean(self) -> float:
        return self.factor * self.inner.mean()

    def minimum(self) -> float:
        return self.factor * self.inner.minimum()

    def __repr__(self) -> str:
        return f"Scaled({self.inner!r}, {self.factor!r})"


class Shifted(Distribution):
    """``inner + offset`` — e.g. a fixed propagation delay plus jitter."""

    def __init__(self, inner: Distribution, offset: float) -> None:
        self.inner = inner
        self.offset = require_non_negative("offset", offset)

    def sample(self, rng: np.random.Generator) -> float:
        return self.offset + self.inner.sample(rng)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.offset + self.inner.sample_many(rng, n)

    def mean(self) -> float:
        return self.offset + self.inner.mean()

    def minimum(self) -> float:
        return self.offset + self.inner.minimum()

    def __repr__(self) -> str:
        return f"Shifted({self.inner!r}, {self.offset!r})"
