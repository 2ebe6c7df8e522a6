"""The repository benchmark: one workload, closed loop, checked results.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload many-domains --seed 1 --seconds 30 --trace 0

The benchmark process is the only client and keeps one workload pass in
flight. It first runs one untimed pass on the reference path (event
engine, one in-process worker, local backend), then measured passes
until ``--seconds`` is used up. Times are reported in reference
seconds: each pass is scaled by the host speed measured just before
and after it (see ``calibrate.py``). Every cell of every pass is checked
against the reference pass's digests. The reference pass is checked
against the digests stored in ``reference.json`` when its seed is
stored (the default and held-out seeds); otherwise the default seed's
reference pass is run too and checked. Exact counts must repeat across
all passes of the run.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` spends half
the time on untraced passes and half on passes with the layer wrappers
of ``layers.py`` installed, prints the per-layer metrics and the
tracing overhead, and writes the spans to ``perfbench/out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The program is
imported from ``src/`` of the checkout; without it the benchmark exits
with a non-zero status and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_program() -> None:
    """Put ``src/`` of the checkout first on the import path."""
    source = ROOT / "src"
    if not (source / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no program sources at {source}")
    sys.path.insert(0, str(source))
    # Worker agents and cold-start probes import the same sources.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(source), os.environ.get("PYTHONPATH")])
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _import_program()
    import measure
    from calibrate import Calibrator
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)
    calibrator = None
    try:
        reference = workload.reference_pass()
        checker = measure.Checker(reference)
        # Before the calibration loop can run in this process.
        own_peak = measure.own_peak_rss()
        calibrator = Calibrator(workload.cpus)
        if args.trace:
            metrics, notes = measure.traced_run(
                workload, checker, calibrator, args.seconds,
                HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json",
            )
        else:
            metrics, notes = measure.measured_run(
                workload, checker, calibrator, args.seconds, own_peak
            )
    finally:
        workload.close()
        if calibrator is not None:
            calibrator.close()
    # After the metrics, so a second reference pass is not in peak_rss_mib.
    measure.check_stored(WORKLOADS, args.workload, args.seed, reference,
                         checker)

    print(f"workload {args.workload}, seed {args.seed}")
    for line in notes:
        print(line)
    print(f"  cells_failed_frac {checker.failed_frac:.6g} fraction "
          f"({checker.failed} of {checker.attempted} cells)")
    for problem in checker.problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not checker.problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
