"""Per-layer attribution for the traced benchmark run, from outside the program.

:func:`install` puts class-level timing wrappers around the public entry
points of each layer (see :func:`_entry_points`), and :func:`restore`
puts the originals back. Nothing in the program changes: the wrappers
are installed by the benchmark process before a pass and removed after
it, so untraced passes run the program exactly as users do.

Each wrapped call is a span. Spans nest on a stack, and a layer's self
time is its span's duration minus the duration of the wrapped spans
inside it. Totals per layer (calls, inclusive seconds, self seconds)
are kept in memory; coarse spans (executor batches, simulation runs,
population builds) are kept as records with their parent, and
:meth:`LayerTracer.dump` writes both out when the benchmark ends.

Cells that a process pool runs in forked workers inherit the wrappers.
A shim around the executor's per-cell call resets the worker's tracer
before the cell and ships its totals back attached to the cell's result;
the batch wrapper merges them in the parent. A cell that runs in a
``repro worker serve`` agent is a separate interpreter and is not traced.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Dict, List

#: Attribute that carries a forked worker's totals back on a result.
_SHIPPED = "_perfbench_layers"

#: Layers recorded as span records (the rest only as totals).
_COARSE = ("experiments.batch", "experiments.cell", "sim.run", "workload.build")


class LayerTracer:
    """In-memory span stack and per-layer totals (see module docstring)."""

    def __init__(self) -> None:
        self.reset()
        self.spans: List[Dict[str, Any]] = []
        self.pass_index = -1

    def reset(self) -> None:
        """Start a fresh set of totals (one per traced pass)."""
        self.stack: List[list] = []
        #: layer -> [calls, inclusive seconds, self seconds]
        self.totals: Dict[str, list] = {}
        #: counter -> value, read from objects after each simulation run
        self.counts: Dict[str, float] = {}

    def add_count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def merge(self, shipped: Dict[str, Any]) -> None:
        """Fold a forked worker's totals into this process's totals."""
        for name, (calls, total, own) in shipped["totals"].items():
            record = self.totals.setdefault(name, [0, 0.0, 0.0])
            record[0] += calls
            record[1] += total
            record[2] += own
        for name, value in shipped["counts"].items():
            self.add_count(name, value)
        self.spans.extend(shipped["spans"])

    def wrap(self, layer: str, function, after=None):
        """A timing wrapper of ``function`` recording spans of ``layer``.

        A call of ``layer`` directly inside another call of ``layer``
        (an override calling ``super()``) belongs to the outer span.
        ``after(tracer, instance, result)`` runs once the call returns,
        outside the timed interval.
        """
        tracer = self
        clock = time.perf_counter
        coarse = layer in _COARSE

        @functools.wraps(function)
        def timed(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1][0] == layer:
                return function(*args, **kwargs)
            frame = [layer, 0.0, len(tracer.spans) if coarse else -1]
            parent = _coarse_parent(stack)
            if coarse:
                tracer.spans.append(None)  # holds the span's place in order
            stack.append(frame)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                record = tracer.totals.get(layer)
                if record is None:
                    record = tracer.totals[layer] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed
                if coarse:
                    pid = os.getpid()
                    tracer.spans[frame[2]] = {
                        "id": f"{pid}-{frame[2]}", "name": layer,
                        "parent": f"{pid}-{parent}" if parent >= 0 else None,
                        "pass": tracer.pass_index,
                        "start": start, "end": start + elapsed,
                    }
            if after is not None:
                after(tracer, args[0], result)
            return result

        return timed

    def dump(self, path: str, summary: Dict[str, Any]) -> None:
        """Write the recorded spans and the per-layer summary as JSON."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            json.dump(
                {"summary": summary,
                 "spans": [span for span in self.spans if span is not None]},
                handle,
            )


def _coarse_parent(stack: List[list]) -> int:
    for frame in reversed(stack):
        if frame[2] >= 0:
            return frame[2]
    return -1


def _after_simulation_run(tracer, simulation, result) -> None:
    """Counters a simulation exposes once it has run (read, not timed)."""
    tracer.add_count("sim.events", simulation.env.dispatched)
    tracer.add_count(
        "web.pages", sum(server.total_pages for server in simulation.cluster)
    )
    info = simulation.engine_info
    tracer.add_count("sim.ff.fast_clients", info["fast_clients"])
    tracer.add_count("sim.ff.fallbacks", sum(info["fallbacks"].values()))


def _merge_shipped(tracer, executor, results) -> None:
    """Fold totals shipped back from forked pool workers into the parent."""
    for result in results:
        shipped = result.__dict__.pop(_SHIPPED, None)
        if shipped is not None:
            tracer.merge(shipped)


def _entry_points():
    """``(layer, owner class, attribute, after-hook)`` for every wrapper."""
    import repro.core.registry  # noqa: F401  (every scheduler and TTL policy)
    import repro.geo.scheduler  # noqa: F401  (the geographic schedulers)
    from repro.core.base import Scheduler
    from repro.core.estimator import MeasuredEstimator, SlidingWindowEstimator
    from repro.core.ttl.base import TtlPolicy
    from repro.dns.authoritative import AuthoritativeDns
    from repro.dns.resolver import ResolutionChain
    from repro.experiments.executor import ParallelExecutor
    from repro.experiments.simulation import Simulation
    from repro.sim.engine import Environment
    from repro.sim.fastforward import FastForwardEnvironment
    from repro.web.monitor import AlarmProtocol
    from repro.web.server import WebServer
    from repro.workload.clients import ClientPopulation
    from repro.workload.fluid import FluidClient
    from repro.workload.shards import ShardClientWake, ShardedClientPopulation
    from repro.workload.trace import TraceDrivenPopulation

    points = [
        ("experiments.batch", ParallelExecutor, "run_simulations", _merge_shipped),
        ("experiments.cell", Simulation, "run", _after_simulation_run),
        ("sim.run", Environment, "run", None),
        ("sim.run", FastForwardEnvironment, "run", None),
        ("sim.ff.drain", FluidClient, "drain", None),
        ("sim.ff.drain", ShardClientWake, "drain", None),
        ("workload.build", ClientPopulation, "__init__", None),
        ("workload.build", ShardedClientPopulation, "__init__", None),
        ("workload.build", TraceDrivenPopulation, "__init__", None),
        ("dns.resolve", ResolutionChain, "resolve", None),
        ("dns.authoritative", AuthoritativeDns, "resolve", None),
        ("web.offer", WebServer, "offer", None),
        ("web.end_window", WebServer, "end_window", None),
        ("web.drain_domain_hits", WebServer, "drain_domain_hits", None),
        ("web.alarm_observe", AlarmProtocol, "observe", None),
        ("core.estimator.collect", MeasuredEstimator, "_collect_once", None),
        ("core.estimator.collect", SlidingWindowEstimator, "_collect_once", None),
    ]
    for base, attribute, layer in (
        (Scheduler, "select", "core.select"),
        (TtlPolicy, "ttl_for", "core.ttl"),
    ):
        for owner in _subclasses(base):
            if attribute in owner.__dict__:
                points.append((layer, owner, attribute, None))
    return points


def _subclasses(base) -> List[type]:
    found, pending = [], list(base.__subclasses__())
    while pending:
        owner = pending.pop()
        found.append(owner)
        pending.extend(owner.__subclasses__())
    return found


def install(tracer: LayerTracer) -> list:
    """Install every wrapper, recording into ``tracer``.

    Returns what :func:`restore` needs to put the originals back.
    """
    import repro.experiments.executor as executor_module

    saved = []
    for layer, owner, attribute, after in _entry_points():
        original = owner.__dict__[attribute]
        saved.append((owner, attribute, original))
        if isinstance(original, classmethod):
            wrapped = classmethod(tracer.wrap(layer, original.__func__))
        else:
            wrapped = tracer.wrap(layer, original, after)
        setattr(owner, attribute, wrapped)

    original_call = executor_module._timed_call
    saved.append((executor_module, "_timed_call", original_call))
    parent = os.getpid()

    def shipping_call(fn, item):
        if os.getpid() == parent:
            return original_call(fn, item)
        tracer.reset()
        tracer.spans = []
        result, elapsed = original_call(fn, item)
        result.__dict__[_SHIPPED] = {
            "totals": tracer.totals,
            "counts": tracer.counts,
            "spans": [span for span in tracer.spans if span is not None],
        }
        return result, elapsed

    executor_module._timed_call = shipping_call
    return saved


def restore(saved: list) -> None:
    """Put back every original that :func:`install` replaced."""
    for owner, attribute, original in reversed(saved):
        setattr(owner, attribute, original)
