"""CPU cores and core sets.

A :class:`CpuCore` runs at most one stage execution at a time and keeps
busy-time accounting for utilisation reports. Cores are grouped into
:class:`CoreSet`s — the unit of allocation: the deployment pins each
microservice instance (or the per-machine network-processing service)
to a dedicated core set, matching the paper's validation methodology
("each thread of every microservice is pinned to a dedicated physical
core").

A core's *frequency* is mutable (DVFS); the power manager adjusts the
frequency of a whole core set (one tier) at a time.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from ..errors import ResourceError
from .dvfs import DvfsLadder


class CpuCore:
    """One hardware thread/core."""

    def __init__(self, core_id: str, ladder: DvfsLadder, frequency: Optional[float] = None) -> None:
        self.core_id = core_id
        self.ladder = ladder
        self.frequency = ladder.clamp(frequency if frequency is not None else ladder.max)
        self.busy = False
        self._busy_since: Optional[float] = None
        self.busy_time = 0.0  # accumulated seconds of occupancy
        # Worker that last ran here (the thread model's context-switch
        # charge reads and sets it); None until the first dispatch.
        self.last_worker_id: Optional[int] = None

    def acquire(self, now: float) -> None:
        """Mark the core busy (caller provides the simulation clock)."""
        if self.busy:
            raise ResourceError(f"core {self.core_id} acquired while busy")
        self.busy = True
        self._busy_since = now

    def release(self, now: float) -> None:
        """Mark the core free and account its busy interval."""
        if not self.busy:
            raise ResourceError(f"core {self.core_id} released while free")
        self.busy = False
        assert self._busy_since is not None
        self.busy_time += now - self._busy_since
        self._busy_since = None

    def set_frequency(self, frequency: float) -> float:
        """Change the operating frequency (snapped to the ladder).

        In-flight executions keep the service time sampled at dispatch;
        the new frequency applies to subsequent dispatches. This matches
        the paper's per-decision-interval actuation granularity.
        """
        self.frequency = self.ladder.clamp(frequency)
        return self.frequency

    def utilization(self, now: float, since: float = 0.0) -> float:
        """Fraction of ``[since, now]`` the core spent busy."""
        if now <= since:
            return 0.0
        busy = self.busy_time
        if self.busy and self._busy_since is not None:
            busy += now - self._busy_since
        return min(1.0, busy / (now - since))

    def __repr__(self) -> str:
        state = "busy" if self.busy else "free"
        return f"<CpuCore {self.core_id} {self.frequency/1e9:.1f}GHz {state}>"


class CoreSet:
    """A group of cores dedicated to one owner (tier instance / netproc).

    Consumers call :meth:`try_acquire`; when nothing is free they simply
    leave their work queued and subscribe to :meth:`on_release`
    notifications, which the owning microservice uses to re-attempt
    dispatch — the event-driven analogue of a thread stalling for CPU.

    :attr:`free_count` is kept by :meth:`try_acquire` and
    :meth:`release` alone (a core belongs to exactly one set), so a
    consumer can tell that no core is free without asking for one.
    Both change the core's state themselves, one call per stage
    execution each way, with the same checks and accounting as
    :meth:`CpuCore.acquire` and :meth:`CpuCore.release`.
    """

    def __init__(self, name: str, cores: List[CpuCore]) -> None:
        if not cores:
            raise ResourceError(f"core set {name!r} needs at least one core")
        self.name = name
        self.cores = list(cores)
        self.free_count = sum(1 for c in self.cores if not c.busy)
        # A tuple, replaced on subscription, so release() can iterate
        # it while a callback subscribes.
        self._release_callbacks: Tuple[Callable[[], None], ...] = ()

    def __len__(self) -> int:
        return len(self.cores)

    def try_acquire(self, now: float) -> Optional[CpuCore]:
        """Grab a free core, or ``None`` if all are busy."""
        if not self.free_count:
            return None
        for core in self.cores:
            if not core.busy:
                core.busy = True
                core._busy_since = now
                self.free_count -= 1
                return core
        return None

    def release(self, core: CpuCore, now: float) -> None:
        """Return *core* to the set and wake subscribers."""
        if not core.busy:
            raise ResourceError(f"core {core.core_id} released while free")
        core.busy = False
        core.busy_time += now - core._busy_since
        core._busy_since = None
        self.free_count += 1
        for callback in self._release_callbacks:
            callback()

    def on_release(self, callback: Callable[[], None]) -> None:
        """Subscribe to be called whenever a core frees up."""
        self._release_callbacks += (callback,)

    def set_frequency(self, frequency: float) -> float:
        """DVFS the whole set; returns the snapped frequency."""
        snapped = 0.0
        for core in self.cores:
            snapped = core.set_frequency(frequency)
        return snapped

    @property
    def frequency(self) -> float:
        """Current frequency (the sets are always stepped together)."""
        return self.cores[0].frequency

    def busy_time(self, now: float) -> float:
        """Accumulated busy seconds of every core in the set, counting
        in-progress executions up to *now*."""
        busy = 0.0
        for core in self.cores:
            busy += core.busy_time
            if core.busy and core._busy_since is not None:
                busy += now - core._busy_since
        return busy

    def utilization(self, now: float, since: float = 0.0) -> float:
        """Mean utilisation across the set's cores."""
        return sum(c.utilization(now, since) for c in self.cores) / len(self.cores)

    def __repr__(self) -> str:
        return (
            f"<CoreSet {self.name} {len(self.cores)} cores "
            f"{self.free_count} free @{self.frequency/1e9:.1f}GHz>"
        )
