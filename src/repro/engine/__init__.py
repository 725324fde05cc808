"""Discrete-event simulation engine (paper SSIII-A).

The engine is deliberately tiny and payload-agnostic: an
:class:`Event` is a timestamped callback, the :class:`EventQueue` is a
binary heap with deterministic tie-breaking and lazy cancellation, and
the :class:`Simulator` advances the clock event by event. Everything
domain-specific (jobs, stages, microservices, dispatchers) lives in the
layers above and communicates solely by scheduling events.
"""

from .event import (
    Event,
    PRIORITY_ADMIN,
    PRIORITY_ARRIVAL,
    PRIORITY_COMPLETION,
    PRIORITY_MONITOR,
)
from .event_queue import EventQueue
from .profiler import EngineProfiler, ProfileEntry
from .random import RandomStreams
from .simulator import GUARD_CHECK_EVERY, RunProgress, Simulator

__all__ = [
    "EngineProfiler",
    "Event",
    "EventQueue",
    "GUARD_CHECK_EVERY",
    "ProfileEntry",
    "RandomStreams",
    "RunProgress",
    "Simulator",
    "PRIORITY_ADMIN",
    "PRIORITY_ARRIVAL",
    "PRIORITY_COMPLETION",
    "PRIORITY_MONITOR",
]
