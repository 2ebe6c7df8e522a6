"""Record engine microbenchmark throughput into ``BENCH_ENGINE.json``.

Times the engine's two hot microbenches (the sole-waiter sleep path and
process switching) plus one reference ``fig1`` cell in both engine
modes (``event`` and ``fastforward``), computes events per second, and
records them in ``BENCH_ENGINE.json`` at the repo root under a named
entry (``--label baseline`` for the pre-fast-path engine, ``--label
current`` for the working tree). The committed file is the performance
contract future PRs are measured against.

The fast-forward speedup is computed from the *same entry's* event and
fastforward fig1 timings — both measured in one process on one machine
moments apart — never across entries recorded on different days, so
machine drift between recordings cannot inflate (or mask) the ratio.

Usage::

    PYTHONPATH=src python benchmarks/record_bench_engine.py --label current
    PYTHONPATH=src python benchmarks/record_bench_engine.py --check
    PYTHONPATH=src python benchmarks/record_bench_engine.py --parent PARENT_SRC

``--parent`` times this tree's default path against an older tree's
(``PARENT_SRC`` is that tree's ``src`` directory, e.g. from ``git
archive``), in two series: a fresh interpreter importing ``repro.cli``
(the start-up cost every pool worker and dispatch agent pays), and
:data:`FABRIC_CELLS` run by ``run_simulation(config)`` with no engine
mode named, in one long-lived worker process per tree. The script
alternates the trees in :data:`PARITY_PAIRS` pairs within one run and
requires identical cell result digests. It records the median and
interquartile range of each side, whether this tree's median beats the
older one by more than the older one's interquartile range, and the net
number of ``src/`` lines between the trees, under ``default_path``.

``--check`` re-measures and fails (exit 1) if the sleep or switching
throughput fell below ``--threshold`` (default 0.6) times the recorded
``current`` entry — a coarse, machine-noise-tolerant regression guard
for CI; the precise before/after story lives in the recorded numbers
and ``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

from repro.sim.engine import Environment

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
RESULTS_FILE = REPO_ROOT / "BENCH_ENGINE.json"

#: Events per run of each microbench (kept moderate so --check stays fast).
SLEEP_EVENTS = 200_000
SWITCH_PROCESSES = 200
SWITCH_SLEEPS = 500


def bench_sleep() -> float:
    """One process sleeping SLEEP_EVENTS times — the sole-waiter path."""
    env = Environment()

    def sleeper():
        timeout = env.timeout
        for _ in range(SLEEP_EVENTS):
            yield timeout(1.0)

    env.process(sleeper())
    start = time.perf_counter()
    env.run()
    return SLEEP_EVENTS / (time.perf_counter() - start)


def bench_switching() -> float:
    """SWITCH_PROCESSES interleaved sleepers — process switching."""
    env = Environment()

    def sleeper():
        timeout = env.timeout
        for _ in range(SWITCH_SLEEPS):
            yield timeout(1.0)

    for _ in range(SWITCH_PROCESSES):
        env.process(sleeper())
    start = time.perf_counter()
    env.run()
    return (SWITCH_PROCESSES * SWITCH_SLEEPS) / (time.perf_counter() - start)


def bench_fig1_cell(engine_mode: str = "event") -> float:
    """Wall-clock seconds for one reference fig1 cell (lower is better)."""
    from repro.experiments.config import SimulationConfig
    from repro.experiments.simulation import run_simulation

    config = SimulationConfig(
        policy="DRR2-TTL/S_K", heterogeneity=20, duration=1800.0, seed=1
    )
    start = time.perf_counter()
    result = run_simulation(config, engine_mode=engine_mode)
    elapsed = time.perf_counter() - start
    assert result.total_hits > 0
    return elapsed


def best_of(fn, repetitions: int, pick):
    """Best of ``repetitions`` timings, GC-controlled.

    The collector is disabled during each timed region and a full
    collect runs between repetitions, so allocation-heavy and
    allocation-light code paths are measured under the same (quiet)
    memory conditions instead of whichever GC schedule they happened
    to trigger.
    """
    values = []
    gc.collect()
    gc.disable()
    try:
        for _ in range(repetitions):
            values.append(fn())
            gc.enable()
            gc.collect()
            gc.disable()
    finally:
        gc.enable()
    return pick(values)


def measure(repetitions: int) -> dict:
    bench_sleep()  # warm up allocators and code paths
    numbers = {
        "sleep_events_per_sec": round(
            best_of(bench_sleep, repetitions, max), 1
        ),
        "process_switch_events_per_sec": round(
            best_of(bench_switching, repetitions, max), 1
        ),
        "python": platform.python_version(),
        "recorded_at": time.strftime("%Y-%m-%d"),
    }
    # The two engine modes are interleaved pairwise (event, fastforward,
    # event, fastforward, ...) rather than measured as two blocks, so
    # slow machine-speed drift hits both modes alike. The headline
    # speedup is the MEDIAN of the per-pair ratios: within a pair both
    # modes see (nearly) the same machine speed, so each ratio is
    # drift-free, and the median discards pairs where a speed shift
    # landed between the two runs — unlike best-of-each, which lets one
    # lucky fast window for either mode skew the quotient.
    pairs = best_of(
        lambda: (bench_fig1_cell("event"), bench_fig1_cell("fastforward")),
        repetitions,
        list,
    )
    event_best = min(pair[0] for pair in pairs)
    fastforward_best = min(pair[1] for pair in pairs)
    ratios = sorted(event / fastforward for event, fastforward in pairs)
    numbers["fig1_cell_seconds"] = round(event_best, 4)
    numbers["fig1_cell_fastforward_seconds"] = round(fastforward_best, 4)
    numbers["fastforward_speedup"] = round(ratios[len(ratios) // 2], 2)
    return numbers


#: Alternating pairs per parity series (at least ten, so a median and
#: its interquartile range mean something on a noisy host).
PARITY_PAIRS = 15

#: Fabric-like cells: 60 s cells over the policies and heterogeneity
#: levels of the fabric-grid benchmark.
FABRIC_CELLS = [
    {"policy": policy, "heterogeneity": level, "duration": 60.0, "seed": 1000}
    for policy in ("RR", "DAL", "DRR2-TTL/S_K", "PRR-TTL/K")
    for level in (20, 35, 50, 65)
]

#: One worker process: imports the tree at argv[1], then per stdin line
#: runs the cells of argv[2] on that tree's default path and prints
#: ``[seconds, digest]``.
_CELL_WORKER = r"""
import gc, hashlib, json, sys, time
sys.path.insert(0, sys.argv[1])
from repro.experiments.config import SimulationConfig
from repro.experiments.simulation import run_simulation
configs = [SimulationConfig(**cell) for cell in json.loads(sys.argv[2])]
for _ in sys.stdin:
    gc.collect()
    gc.disable()
    start = time.perf_counter()
    results = [run_simulation(c) for c in configs]
    elapsed = time.perf_counter() - start
    gc.enable()
    payload = [[r.max_utilization_samples, r.total_hits, r.total_sessions,
                r.dns_resolutions] for r in results]
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()[:16]
    print(json.dumps([elapsed, digest]), flush=True)
"""


def cold_import_sampler(src: pathlib.Path):
    """Seconds for a fresh interpreter to import ``repro.cli`` from ``src``."""
    env = {**os.environ, "PYTHONPATH": str(src)}

    def sample():
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import repro.cli"], env=env, check=True
        )
        return time.perf_counter() - start, None

    return sample


def alternate_series(samplers: dict) -> dict:
    """Time each side in alternating pairs.

    ``samplers`` maps a side's name to a callable returning ``(seconds,
    digest)``. Which side runs first alternates between pairs; one
    warm-up sample per side is discarded. Exits if the sides' digests
    differ.
    """
    names = list(samplers)
    times = {name: [] for name in names}
    digests = {samplers[name]()[1] for name in names}
    for index in range(PARITY_PAIRS):
        for name in names if index % 2 == 0 else names[::-1]:
            elapsed, digest = samplers[name]()
            times[name].append(elapsed)
            digests.add(digest)
    if len(digests) != 1:
        sys.exit(f"the trees' results differ: digests {sorted(digests)}")
    series = {"pairs": PARITY_PAIRS}
    digest = digests.pop()
    if digest is not None:
        series["result_digest"] = digest
    for name in names:
        q1, median, q3 = statistics.quantiles(times[name], n=4)
        series[name] = {
            "seconds": [round(value, 4) for value in times[name]],
            "median": round(median, 4),
            "iqr": round(q3 - q1, 4),
        }
    return series


def cell_series(sides: dict) -> dict:
    """:func:`alternate_series` of :data:`FABRIC_CELLS`, one worker per side.

    ``sides`` maps a name to the ``src`` directory of its tree.
    """
    workers = {
        name: subprocess.Popen(
            [sys.executable, "-c", _CELL_WORKER, str(src),
             json.dumps(FABRIC_CELLS)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for name, src in sides.items()
    }

    def sampler(worker):
        def sample():
            worker.stdin.write("\n")
            worker.stdin.flush()
            return tuple(json.loads(worker.stdout.readline()))

        return sample

    try:
        return alternate_series(
            {name: sampler(worker) for name, worker in workers.items()}
        )
    finally:
        for worker in workers.values():
            worker.stdin.close()
            worker.wait()


def compare(series: dict) -> dict:
    """Stamp ``series`` with how far its current tree beats the parent."""
    delta = series["parent"]["median"] - series["current"]["median"]
    series["median_gain"] = round(delta, 4)
    series["beyond_parent_iqr"] = delta > series["parent"]["iqr"]
    return series


def src_lines(src: pathlib.Path) -> int:
    """Lines of Python under ``src/repro``."""
    return sum(
        len(path.read_text().splitlines())
        for path in (src / "repro").rglob("*.py")
    )


def measure_default_path(parent_src: pathlib.Path) -> dict:
    """This tree's default path vs an older tree's, cold start and cells."""
    current_src = REPO_ROOT / "src"
    cold = compare(alternate_series({
        "parent": cold_import_sampler(parent_src),
        "current": cold_import_sampler(current_src),
    }))
    cold["command"] = "python -c 'import repro.cli'"
    cells = compare(
        cell_series({"parent": parent_src, "current": current_src})
    )
    cells["cells"] = len(FABRIC_CELLS)
    parent_lines, current_lines = src_lines(parent_src), src_lines(current_src)
    return {
        "cold_import_cli": cold,
        "fabric_cells_default": cells,
        "src_lines": {
            "parent": parent_lines,
            "current": current_lines,
            "net_removed": parent_lines - current_lines,
        },
        "host_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "recorded_at": time.strftime("%Y-%m-%d"),
    }


def load_results() -> dict:
    if RESULTS_FILE.exists():
        return json.loads(RESULTS_FILE.read_text())
    return {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", default=None, help="entry name to record")
    parser.add_argument(
        "--check",
        action="store_true",
        help="compare against the recorded 'current' entry instead of recording",
    )
    parser.add_argument("--repetitions", type=int, default=3)
    parser.add_argument("--threshold", type=float, default=0.6)
    parser.add_argument(
        "--parent",
        type=pathlib.Path,
        metavar="PARENT_SRC",
        help="record the default-path series against this tree's src",
    )
    args = parser.parse_args(argv)

    if args.parent is not None:
        numbers = measure_default_path(args.parent)
        print(json.dumps(numbers, indent=2))
        results = load_results()
        results["default_path"] = numbers
        RESULTS_FILE.write_text(json.dumps(results, indent=2) + "\n")
        print(f"recorded 'default_path' in {RESULTS_FILE}")
        return 0

    numbers = measure(args.repetitions)
    print(json.dumps(numbers, indent=2))

    results = load_results()
    if args.check:
        reference = results.get("current")
        if reference is None:
            print("no 'current' entry recorded; nothing to check against")
            return 1
        failed = False
        for key in ("sleep_events_per_sec", "process_switch_events_per_sec"):
            floor = reference[key] * args.threshold
            if numbers[key] < floor:
                print(
                    f"REGRESSION: {key} = {numbers[key]:.0f} events/s "
                    f"< {args.threshold:.2f} x recorded {reference[key]:.0f}"
                )
                failed = True
        if not failed:
            print(
                f"engine throughput within {args.threshold:.2f}x "
                "of the recorded baseline"
            )
        return 1 if failed else 0

    if args.label is None:
        parser.error("--label is required unless --check is given")
    results[args.label] = numbers
    if "baseline" in results and "current" in results:
        base, cur = results["baseline"], results["current"]
        results["speedup"] = {
            "sleep": round(
                cur["sleep_events_per_sec"] / base["sleep_events_per_sec"], 2
            ),
            "process_switch": round(
                cur["process_switch_events_per_sec"]
                / base["process_switch_events_per_sec"],
                2,
            ),
            "fig1_cell": round(
                base["fig1_cell_seconds"] / cur["fig1_cell_seconds"], 2
            ),
        }
        if "fig1_cell_fastforward_seconds" in cur:
            # The fast-forward engine vs this entry's own event-mode
            # measurement (same session), and vs the recorded baseline.
            results["speedup"]["fig1_cell_fastforward"] = cur[
                "fastforward_speedup"
            ]
            results["speedup"]["fig1_cell_fastforward_vs_baseline"] = round(
                base["fig1_cell_seconds"]
                / cur["fig1_cell_fastforward_seconds"],
                2,
            )
    RESULTS_FILE.write_text(json.dumps(results, indent=2) + "\n")
    print(f"recorded entry {args.label!r} in {RESULTS_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
