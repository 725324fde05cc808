"""Per-layer self time, measured from outside the simulator.

The layers are the ``repro`` subpackages in :data:`LAYERS`. A span is
opened on a layer stack at every boundary the benchmark can see
without editing ``src/``:

1. every event handler, through the public ``Simulator.profiler`` hook
   (the tracer is duck-typed: it only needs ``dispatch(fn, args)``);
   the span's layer is the ``repro.<pkg>`` of the module defining the
   handler, so dispatcher lambdas belong to ``topology``;
2. the public cross-layer calls listed in :data:`SPANNED`, patched on
   their classes for the life of the tracer;
3. callbacks handed across layers (:data:`CALLBACKS` and the ``Job``
   completion slots), wrapped where they are handed over so a
   dispatcher callback run by a microservice is booked to
   ``topology``, not ``service``.

Self time is kept by time slicing: at every boundary that changes the
current layer, the wall time since the previous boundary is booked to
the layer that was current. The layer sums therefore equal the traced
interval exactly, and time inside ``sim.run`` outside every span is the
base layer's (``engine``). Patches are installed by ``with
LayerTracer():`` and every class attribute is restored on exit.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Any, Callable, Dict, List, Optional, Tuple

LAYERS = (
    "engine", "workload", "topology", "service", "hardware",
    "distributions", "resilience", "telemetry", "shard",
)

#: (module, class, methods) whose calls open a span of the class's layer.
SPANNED = (
    ("repro.engine.simulator", "Simulator",
     ("schedule", "schedule_at", "schedule_transient", "cancel")),
    ("repro.engine.event_queue", "EventQueue", ("push", "cancel")),
    ("repro.topology.dispatcher", "Dispatcher", ("submit",)),
    ("repro.service.microservice", "Microservice", ("accept", "cancel_job")),
    ("repro.service.connections", "Connection",
     ("on_unblock", "block", "unblock", "waiting", "abandon", "next_seq",
      "deliver_in_order")),
    ("repro.service.connections", "ConnectionPool", ("checkout",)),
    ("repro.hardware.core", "CoreSet", ("try_acquire", "release")),
    ("repro.distributions.buffered", "BufferedSampler", ("sample", "take")),
    ("repro.telemetry.latency", "LatencyRecorder", ("record",)),
    ("repro.resilience.policy", "RetryPolicy", ("allows", "backoff")),
)

#: (module, class, method, positional index, keyword) of callbacks that
#: are wrapped in a span of their own layer where they are handed over.
CALLBACKS = (
    ("repro.topology.dispatcher", "Dispatcher", "submit", 2, "on_complete"),
    ("repro.topology.dispatcher", "Dispatcher", "on_outcome", 1, "listener"),
    ("repro.service.microservice", "Microservice", "on_job_complete", 1,
     "listener"),
    ("repro.service.connections", "Connection", "on_unblock", 1, "callback"),
    ("repro.service.connections", "Connection", "deliver_in_order", 3,
     "deliver"),
    ("repro.hardware.core", "CoreSet", "on_release", 1, "callback"),
    ("repro.service.io", "IoDevice", "submit", 2, "on_done"),
)

#: ``Job`` slots holding callbacks, replaced by wrapping properties.
JOB_SLOTS = ("on_complete", "on_fail", "on_discard")

#: Classes whose instances the tracer keeps, to read their counters
#: after the run (``Simulator`` instances also get the tracer attached
#: as their profiler).
REGISTERED = (
    ("repro.engine.simulator", "Simulator"),
    ("repro.service.microservice", "Microservice"),
    ("repro.topology.dispatcher", "Dispatcher"),
    ("repro.workload.client", "OpenLoopClient"),
)


def _import_class(module: str, name: str) -> type:
    import importlib

    return getattr(importlib.import_module(module), name)


class LayerTracer:
    """Books wall time to layers; use as ``with LayerTracer() as t:``.

    Install, build the world (samplers and callbacks are captured at
    build time, so they must be built patched), then bracket the timed
    region with :meth:`start` and :meth:`stop`.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._saved: List[Tuple[type, str, Any]] = []
        self._layer_of_module: Dict[Optional[str], Optional[str]] = {}
        self.instances: Dict[str, list] = {name: [] for _, name in REGISTERED}
        # Patched methods hold a reference to this counter, so start()
        # clears it in place.
        self.method_calls: Counter = Counter()
        self.start()

    # Accounting ---------------------------------------------------------

    def start(self, base: str = "engine") -> None:
        """Zero every tally and start booking time to *base*."""
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.method_calls.clear()
        self.events = 0
        self.core_hits = 0
        self.draws_taken = 0
        self._stack: List[str] = []
        self._layer = base
        self._mark = self._clock()

    def stop(self) -> None:
        """Book the time since the last boundary to the current layer."""
        now = self._clock()
        self.self_s[self._layer] += now - self._mark
        self._mark = now

    def _enter(self, layer: str) -> None:
        self.calls[layer] += 1
        current = self._layer
        self._stack.append(current)
        if layer != current:
            now = self._clock()
            self.self_s[current] += now - self._mark
            self._mark = now
            self._layer = layer

    def _exit(self) -> None:
        previous = self._stack.pop()
        if previous != self._layer:
            now = self._clock()
            self.self_s[self._layer] += now - self._mark
            self._mark = now
            self._layer = previous

    def layer_of(self, fn: Any) -> Optional[str]:
        """The layer owning *fn*, or ``None`` outside every layer (such
        code is booked to whichever layer called it)."""
        while isinstance(fn, functools.partial):
            fn = fn.func
        module = getattr(fn, "__module__", None)
        try:
            return self._layer_of_module[module]
        except KeyError:
            parts = (module or "").split(".")
            layer = (
                parts[1] if parts[0] == "repro" and len(parts) > 1
                and parts[1] in LAYERS else None
            )
            self._layer_of_module[module] = layer
            return layer

    # Span sources -------------------------------------------------------

    def dispatch(self, fn: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        """The ``Simulator.profiler`` hook: one span per event."""
        self.events += 1
        layer = self.layer_of(fn)
        if layer is None:
            fn(*args)
            return
        self._enter(layer)
        try:
            fn(*args)
        finally:
            self._exit()

    def wrap_callback(self, fn: Optional[Callable[..., Any]]):
        """*fn* wrapped in a span of its own layer (``None`` and
        callables outside every layer pass through unchanged)."""
        layer = None if fn is None else self.layer_of(fn)
        if layer is None:
            return fn
        enter, exit_ = self._enter, self._exit

        def traced(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return traced

    # Patching -----------------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self._restore()

    def _set(self, cls: type, name: str, value: Any) -> None:
        self._saved.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, value)

    def _restore(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

    def _install(self) -> None:
        callbacks = {
            (module, cls, method): (index, keyword)
            for module, cls, method, index, keyword in CALLBACKS
        }
        for module, cls_name, methods in SPANNED:
            cls = _import_class(module, cls_name)
            for method in methods:
                self._set(cls, method, self._spanned(
                    cls, method, callbacks.pop((module, cls_name, method), None)
                ))
        for (module, cls_name, method), arg in callbacks.items():
            cls = _import_class(module, cls_name)
            self._set(cls, method, self._handing_over(cls.__dict__[method], arg))
        job = _import_class("repro.service.job", "Job")
        for slot in JOB_SLOTS:
            self._set(job, slot, self._wrapping_slot(job, job.__dict__[slot]))
        for module, cls_name in REGISTERED:
            cls = _import_class(module, cls_name)
            self._set(cls, "__init__", self._registering(cls, cls.__dict__["__init__"]))

    def _tally(self, key: str) -> Optional[Callable[[Any], None]]:
        """Counts read off a patched call's result, where calls alone
        do not tell."""
        if key == "CoreSet.try_acquire":
            def tally(core):
                if core is not None:
                    self.core_hits += 1
        elif key == "BufferedSampler.take":
            def tally(values):
                self.draws_taken += len(values)
        else:
            tally = None
        return tally

    def _spanned(self, cls: type, method: str, callback_arg):
        """A span around *cls.method*, also wrapping its callback
        argument when it hands one over."""
        original = cls.__dict__[method]
        if callback_arg is not None:
            original = self._handing_over(original, callback_arg)
        layer = self.layer_of(cls)
        key = f"{cls.__name__}.{method}"
        tally = self._tally(key)
        enter, exit_, counts = self._enter, self._exit, self.method_calls

        def spanned(*args, **kwargs):
            counts[key] += 1
            enter(layer)
            try:
                result = original(*args, **kwargs)
            finally:
                exit_()
            if tally is not None:
                tally(result)
            return result

        functools.update_wrapper(spanned, original)
        return spanned

    def _handing_over(self, original, arg: Tuple[int, str]):
        index, keyword = arg
        wrap = self.wrap_callback

        def handing_over(*args, **kwargs):
            if keyword in kwargs:
                kwargs[keyword] = wrap(kwargs[keyword])
            elif len(args) > index:
                args = args[:index] + (wrap(args[index]),) + args[index + 1:]
            return original(*args, **kwargs)

        functools.update_wrapper(handing_over, original)
        return handing_over

    def _wrapping_slot(self, cls: type, slot):
        wrap = self.wrap_callback
        return property(
            lambda obj: slot.__get__(obj, cls),
            lambda obj, fn: slot.__set__(obj, wrap(fn)),
        )

    def _registering(self, cls: type, original):
        instances = self.instances[cls.__name__]
        attach = cls.__name__ == "Simulator"

        def registering(obj, *args, **kwargs):
            original(obj, *args, **kwargs)
            instances.append(obj)
            if attach:
                obj.profiler = self

        functools.update_wrapper(registering, original)
        return registering

    # Read-out -----------------------------------------------------------

    def counters(self) -> Dict[str, float]:
        """Work counts read off the registered model objects."""
        clients = self.instances["OpenLoopClient"]
        dispatchers = self.instances["Dispatcher"]
        services = self.instances["Microservice"]
        return {
            "requests_sent": sum(c.requests_sent for c in clients),
            "attempts": sum(d.attempts_launched for d in dispatchers),
            "ok": sum(d.requests_completed for d in dispatchers),
            "timeouts": sum(d.requests_timed_out for d in dispatchers),
            "retries": sum(d.retries_issued for d in dispatchers),
            "jobs": sum(m.jobs_accepted for m in services),
            "batches": sum(s.invocations for m in services for s in m.stages),
            "pushes": self.method_calls["EventQueue.push"],
            "cancels": self.method_calls["EventQueue.cancel"],
            "core_acquire_attempts": self.method_calls["CoreSet.try_acquire"],
            "core_acquires": self.core_hits,
            "draws": (self.method_calls["BufferedSampler.sample"]
                      + self.draws_taken),
            "events": self.events,
        }
