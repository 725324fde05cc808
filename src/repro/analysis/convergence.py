"""One stopping rule for replicated measurements: BigHouse's "run
multiple instances until performance metrics converge" (paper SSII),
shared by :class:`repro.bighouse.BigHouseSimulator` and
:func:`repro.experiments.replication.replicate_at_load`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Sequence, Tuple

import numpy as np

from ..errors import SimulationError


@dataclass(frozen=True)
class StoppingRule:
    """Replicate at least *min_count* and at most *max_count* times,
    stopping once the relative standard error of a per-replication
    statistic is under *tolerance*."""

    min_count: int
    max_count: int
    tolerance: float

    def __post_init__(self) -> None:
        if self.min_count < 2:
            raise SimulationError("need >= 2 replications to estimate spread")
        if self.max_count < self.min_count:
            raise SimulationError("max_count < min_count")
        if not 0 < self.tolerance < 1:
            raise SimulationError(
                f"tolerance must be in (0,1), got {self.tolerance!r}"
            )


def replicate(
    rule: StoppingRule,
    run: Callable[[range], Sequence[Any]],
    statistic: Callable[[Any], float],
    round_size: int = 1,
) -> Tuple[List[Any], float, float, bool]:
    """Extend a list of replications in rounds until *rule* stops it.

    ``run(range(i, j))`` returns replications ``i`` to ``j - 1``: the
    first round runs ``min_count`` of them, each later one *round_size*
    (>= 1) more, up to ``max_count``. Returns the shortest prefix that
    converged (all the replications when none did), its statistic's
    mean and standard error, and whether it converged. Every new prefix
    is checked in order, so the prefix does not depend on the round
    size.
    """
    done: List[Any] = []
    values: List[float] = []
    while True:
        checked = max(len(done), rule.min_count - 1)
        stop = len(done) + round_size if done else rule.min_count
        for replication in run(range(len(done), min(stop, rule.max_count))):
            done.append(replication)
            values.append(statistic(replication))
        for n in range(checked + 1, len(done) + 1):
            mean = float(np.mean(values[:n]))
            stderr = float(np.std(values[:n], ddof=1) / np.sqrt(n))
            if mean > 0 and stderr / mean < rule.tolerance:
                return done[:n], mean, stderr, True
        if len(done) >= rule.max_count:
            return done, mean, stderr, False
