"""Closed-loop measurement, result checks and metric derivation."""

from __future__ import annotations

import gc
import json
import pathlib
import resource
import statistics
import time

import calibrate
import layers

HERE = pathlib.Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"

#: Fewest measured passes per phase, however long a pass takes.
MIN_PASSES = 3

median = statistics.median


#: The seed whose stored digests every run checks (the library default).
DEFAULT_SEED = 1


def load_reference(workload: str, seed: int):
    """Stored digests for ``(workload, seed)``, or ``None``."""
    stored = json.loads(REFERENCE_FILE.read_text())
    return stored.get(workload, {}).get(str(seed))


def check_stored(workloads, name, seed, reference, checker) -> None:
    """Check result bits against ``reference.json`` on every run.

    The run's own reference pass is compared when its seed is stored;
    otherwise the default seed's reference pass is run (untimed) and
    compared, so a change to result bits fails any run, whatever seed
    it measures.
    """
    entry = load_reference(name, seed)
    if entry is None:
        seed = DEFAULT_SEED
        entry = load_reference(name, seed)
        reference = workloads[name](seed).reference_pass()
    checker.stored(f"seed {seed} reference path vs stored digests",
                   reference, entry)


class Checker:
    """Counts cells attempted and failed, and exact counts that drift."""

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def stored(self, label, record, entry):
        """Compare a reference-path pass with digests from reference.json."""
        self._compare(label, record, entry["cells"], entry.get("outputs"))

    def _compare(self, label, record, cells, outputs):
        self.attempted += len(record.cells)
        mismatched = sum(
            1 for got, want in zip(record.cells, cells) if got != want
        ) + abs(len(record.cells) - len(cells))
        self.failed += mismatched
        if mismatched:
            self.problems.append(f"{label}: {mismatched} cell digests differ")
        if record.outputs != outputs:
            self.problems.append(f"{label}: figure outputs differ")

    def check(self, label, record):
        """Compare a measured pass with the reference pass."""
        reference = self.reference
        self._compare(label, record, reference.cells, reference.outputs)
        self.same_counts(label, record.counts, reference.counts)

    def same_counts(self, label, counts, expected):
        for name, value in counts.items():
            want = expected.get(name)
            if want is not None and value != want:
                self.problems.append(
                    f"{label}: count {name} drifted ({value} != {want})"
                )

    def failed_pass(self, label, error):
        self.attempted += 1
        self.failed += 1
        self.problems.append(f"{label}: {type(error).__name__}: {error}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


def run_passes(workload, checker, calibrator, seconds, label, before=None,
               after=None):
    """Measured passes until ``seconds`` would be exceeded (closed loop).

    A pass starts only if the previous pass's duration still fits, and
    at least :data:`MIN_PASSES` run. Garbage from the previous pass is
    collected and the host's speed is calibrated before each pass and
    after the last, outside every pass's timing; each record is then
    scaled to reference seconds (see calibrate.py).
    """
    records, failures = [], 0
    calibrations = []
    start = time.perf_counter()
    while True:
        gc.collect()
        calibration = calibrator.measure()
        if before is not None:
            before()
        name = f"{label} pass {len(records) + failures}"
        try:
            record = workload.run_pass()
        except Exception as error:  # a pass that raised is a failed cell
            failures += 1
            checker.failed_pass(name, error)
            if failures >= MIN_PASSES:
                break
            continue
        if after is not None:
            after(record)
        checker.check(name, record)
        records.append(record)
        calibrations.append(calibration)
        elapsed = time.perf_counter() - start
        if len(records) >= MIN_PASSES and elapsed + record.wall_s > seconds:
            break
    if not records:
        raise RuntimeError(f"no {label} pass completed: {checker.problems}")
    calibrations.append(calibrator.measure())
    for record, factor in zip(records, calibrate.factors(calibrations)):
        record.scale(factor)
    return records


def quantile(values, fraction):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    cuts = statistics.quantiles(ordered, n=100, method="inclusive")
    return cuts[round(fraction * 100) - 1]


def own_peak_rss() -> int:
    """This process's peak resident set so far, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mib(own_peak: int) -> float:
    """Largest resident set of this process and of its reaped children.

    ``own_peak`` is this process's, taken before the calibration loop
    first ran in it (see calibrate.py), so the loop's table is not in it.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own_peak, children) / 1024.0


def end_to_end(records, setup_samples, own_peak):
    """The user-visible metrics of untraced passes: name -> (value, unit).

    Times are in reference seconds (see calibrate.py). Every timing is
    a median over passes, so a slow stretch of the host that hits a
    minority of passes does not move it; the cell quantiles are taken
    within each pass first.
    """
    setup = median(setup_samples or [record.setup_s for record in records])
    return {
        "wall_s": (median(record.wall_s for record in records), "s"),
        "setup_s": (setup, "s"),
        "sim_hits_per_s": (
            median(record.counts["workload.hits"]
                   / (record.wall_s - record.setup_s)
                   for record in records),
            "1/s",
        ),
        "cell_s_p50": (
            median(quantile(record.cell_times, 0.5) for record in records), "s",
        ),
        "cell_s_p95": (
            median(quantile(record.cell_times, 0.95) for record in records),
            "s",
        ),
        "peak_rss_mib": (peak_rss_mib(own_peak), "MiB"),
    }


def _show(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def measured_run(workload, checker, calibrator, seconds, own_peak):
    """``--trace 0``: untraced passes only."""
    setup_samples = workload.setup_samples(calibrator)
    records = run_passes(workload, checker, calibrator, seconds, "measured")
    metrics = end_to_end(records, setup_samples, own_peak)
    cells = sum(len(record.cell_times) for record in records)
    raw_wall = median(record.raw_wall_s for record in records)
    notes = [f"{len(records)} measured passes, {cells} cells "
             f"(cell_s: per-pass quantiles over {cells // len(records)} "
             f"cells, median over passes)",
             f"times in reference seconds (see calibrate.py); raw median "
             f"wall {raw_wall:.6g} s"]
    notes += [f"  {name:<18} {_show(value)} {unit}"
              for name, (value, unit) in metrics.items()]
    return metrics, notes


# -- the traced run -------------------------------------------------------

#: Wrapper call counts that must repeat exactly across traced passes.
_EXACT_CALLS = (
    "sim.run", "sim.ff.drain", "web.offer", "web.end_window",
    "web.alarm_observe", "web.drain_domain_hits", "dns.resolve",
    "dns.authoritative", "core.select", "core.ttl", "core.estimator.collect",
    "workload.build", "experiments.cell",
)


def traced_run(workload, checker, calibrator, seconds, trace_path):
    """``--trace 1``: untraced then traced passes; per-layer metrics.

    The end-to-end numbers of this run come from its untraced half only;
    the traced half gives the per-layer numbers, and the difference of
    the two halves' median ``wall_s`` is the tracing overhead.
    """
    untraced = run_passes(workload, checker, calibrator, seconds / 2,
                          "untraced")
    tracer = layers.LayerTracer()

    def before():
        tracer.reset()
        tracer.pass_index += 1

    def after(record):
        calls = {name: total[0] for name, total in tracer.totals.items()}
        record.layers = (
            {name: list(total) for name, total in tracer.totals.items()},
            dict(tracer.counts),
        )
        record.counts.update(
            {f"calls.{name}": calls.get(name, 0) for name in _EXACT_CALLS}
        )
        record.counts.update(
            {f"counter.{name}": value for name, value in tracer.counts.items()}
        )

    saved = layers.install(tracer)
    try:
        traced = run_passes(workload, checker, calibrator, seconds / 2,
                            "traced", before, after)
    finally:
        layers.restore(saved)
    for index, record in enumerate(traced[1:], 1):
        checker.same_counts(f"traced pass {index}", record.counts,
                            traced[0].counts)
    metrics, notes = layer_metrics(untraced, traced)
    tracer.dump(str(trace_path), {
        name: {"value": value, "unit": unit}
        for name, (value, unit, _) in metrics.items()
    })
    lines = [f"{len(untraced)} untraced + {len(traced)} traced passes; "
             f"spans written to {trace_path.relative_to(HERE.parent)}"]
    for name, (value, unit, note) in metrics.items():
        lines.append(f"  {name:<42} {_show(value)} {unit}"
                     + (f"  [{note}]" if note else ""))
    lines += notes
    return {name: (value, unit) for name, (value, unit, _) in metrics.items()}, lines


def layer_metrics(untraced, traced):
    """Per-layer metrics: name -> (value, unit, note)."""
    first = traced[0]
    counts = first.counts
    counters = first.layers[1]

    def calls(layer):
        return first.layers[0].get(layer, [0, 0.0, 0.0])[0]

    def seconds(layer, own=False):
        return median(
            record.layers[0].get(layer, [0, 0.0, 0.0])[2 if own else 1]
            for record in traced
        )

    events = counters.get("sim.events", 0)
    pages = counters.get("web.pages", 0)
    authoritative = counts["dns.authoritative_answers"]
    answers = authoritative + counts["dns.ns_cache_answers"]
    remote = bool(first.dispatch)
    pooled = bool(first.batches)

    def attributable(layer, work):
        """Why a layer's zero wrapper calls are not zero cost, if so."""
        if calls(layer):
            return ""
        if remote:
            return "cells run in worker agents: not traced"
        if work:
            return "inlined, not attributable from outside"
        return ""

    run_seconds = median(
        sum(record.cell_times) - record.setup_s for record in untraced
    )
    busy = [sum(cell for _, _, cell in record.batches) for record in untraced]
    capacity = [sum(wall * slots for wall, slots, _ in record.batches)
                for record in untraced]
    dispatch = [record.dispatch for record in untraced if record.dispatch]
    cells_per_pass = len(first.cell_times)
    untraced_wall = median(record.wall_s for record in untraced)
    traced_wall = median(record.wall_s for record in traced)

    offer_note = attributable("web.offer", pages)
    resolve_note = attributable("dns.resolve", answers)
    authority_note = attributable("dns.authoritative", authoritative)
    no_pool = "" if pooled else "no executor pool in this workload"
    no_fabric = "" if remote else "local workload: no fabric"
    metrics = {
        "sim.events": (events, "count", attributable("sim.run", 0)),
        "sim.ns_per_event": (
            run_seconds / events * 1e9 if events else 0.0, "ns",
            "untraced cell seconds / traced event count",
        ),
        "sim.kernel_self_s": (seconds("sim.run", own=True), "s",
                              "engine dispatch + session kernel"),
        "sim.ff.fast_clients": (counters.get("sim.ff.fast_clients", 0),
                                "count", ""),
        "sim.ff.fallbacks": (counters.get("sim.ff.fallbacks", 0), "count", ""),
        "sim.ff.drains": (calls("sim.ff.drain"), "count", ""),
        "sim.ff.drain_s": (seconds("sim.ff.drain"), "s", ""),
        "web.offer.calls": (calls("web.offer"), "count", offer_note),
        "web.offer.s": (seconds("web.offer"), "s", offer_note),
        "web.monitor.windows": (calls("web.end_window"), "count",
                                "server windows closed"),
        "web.monitor.s": (
            seconds("web.end_window") + seconds("web.alarm_observe"), "s",
            "end_window + AlarmProtocol.observe",
        ),
        "web.alarm_signals": (counts["web.alarm_signals"], "count", ""),
        "dns.resolve.calls": (calls("dns.resolve"), "count", resolve_note),
        "dns.resolve.self_s": (seconds("dns.resolve", own=True), "s",
                               resolve_note),
        "dns.authoritative.calls": (calls("dns.authoritative"), "count",
                                    authority_note),
        "dns.authoritative.self_s": (
            seconds("dns.authoritative", own=True), "s", authority_note,
        ),
        "dns.ns_hit_ratio": (
            (answers - authoritative) / answers if answers else 0.0, "ratio",
            f"{answers - authoritative} NS-cache of {answers} answers",
        ),
        "core.select.calls": (calls("core.select"), "count",
                              attributable("core.select", authoritative)),
        "core.select.s": (seconds("core.select"), "s", ""),
        "core.ttl.calls": (calls("core.ttl"), "count",
                           attributable("core.ttl", authoritative)),
        "core.ttl.s": (seconds("core.ttl"), "s", ""),
        "core.estimator.collect.calls": (
            calls("core.estimator.collect"), "count", "",
        ),
        "core.estimator.collect.s": (seconds("core.estimator.collect"), "s",
                                     ""),
        "workload.build_s": (seconds("workload.build"), "s",
                             attributable("workload.build", 0)),
        "workload.sessions": (counts["workload.sessions"], "count", ""),
        "workload.hits": (counts["workload.hits"], "count", ""),
        "experiments.executor.batches": (
            counts.get("experiments.executor.batches", 0), "count", no_pool,
        ),
        "experiments.executor.busy_frac": (
            median(b / c for b, c in zip(busy, capacity)) if pooled else 0.0,
            "ratio", no_pool or "cell seconds / (batch wall x slots)",
        ),
        "experiments.executor.idle_s": (
            median(c - b for b, c in zip(busy, capacity)) if pooled else 0.0,
            "s", no_pool,
        ),
        "experiments.dispatch.join_s": (
            median(item["join_s"] for item in dispatch) if remote else 0.0,
            "s", no_fabric,
        ),
        "experiments.dispatch.workers_joined": (
            min(item["workers_joined"] for item in dispatch) if remote else 0,
            "count", no_fabric,
        ),
        "experiments.dispatch.overhead_ms_per_cell": (
            median((c - b) / cells_per_pass * 1e3
                   for b, c in zip(busy, capacity)) if remote else 0.0,
            "ms", no_fabric or "non-simulation time per cell per slot",
        ),
        "experiments.dispatch.releases": (
            sum(item["releases"] for item in dispatch) if remote else 0,
            "count", no_fabric,
        ),
        "trace.overhead_s": (traced_wall - untraced_wall, "s",
                             "traced minus untraced median wall_s"),
        "trace.overhead_frac": ((traced_wall - untraced_wall) / untraced_wall,
                                "ratio", ""),
    }
    notes = []
    if not counters.get("sim.ff.fast_clients") and not calls("sim.ff.drain"):
        notes.append("  sim.ff.*: event engine (the library default); "
                     "fast-forward did not run")
    return metrics, notes
