"""Host-speed calibration: a fixed pure-Python loop timed between passes.

The host this benchmark runs on shares its cores with other machines'
work, and its speed drifts by 20–40% over tens of seconds (a fixed loop
swings between 0.30 s and 0.59 s within a minute). Every run would
carry that drift in its raw times. So a run times this loop before its
first pass, between passes and after its last pass, and expresses each
pass's times in *reference seconds*: raw seconds x :data:`REFERENCE_S`
/ the mean of the two timings around the pass. A pass that ran while
the host was 30% slow reads as if the host had run at the reference
speed.

The loop is independent of the program, so a change to the program
moves the reference-second figures exactly as it moves raw times. It
builds a dict of small lists and updates random entries of it: object
allocation and scattered memory access, which is what the simulation
spends its time on. A loop of that kind slows with the host as the
simulation does (pass time against loop time has a log-log slope of
0.92–1.00 on the in-process workloads), while a cache-resident
heap-and-dict loop slowed more than the program did (slope 0.50–0.76).

Where a pass keeps one CPU busy, the loop runs in the benchmark process
itself, with the pass's heap around it: against ``trace-diurnal`` it
tracked better there (slope 1.00, and 20 s windows of passes spread
0.04 once scaled) than in a separate process (1.08 and 0.07). Where a
pass keeps several CPUs busy, as many helper processes run the loop at
once, so the host is timed under the same parallelism; they wait on a
pipe while passes run.

Run directly, this file is a helper: each line on standard input asks
for one timing, written back as one line.
"""

from __future__ import annotations

import gc
import random
import subprocess
import sys
import time

#: Seconds one calibration takes at the reference host speed: about its
#: median on the 2-vCPU host the benchmark was written on.
REFERENCE_S = 0.30

#: Entries of the calibration table, and random updates made to it.
ENTRIES = 150_000
UPDATES = 150_000


def calibration_loop() -> float:
    """Seconds one run of the fixed loop takes on this host now."""
    rng = random.Random(54321)
    start = time.perf_counter()
    table = {index * 7919: [index, 0.0, str(index)] for index in range(ENTRIES)}
    keys = list(table)
    for _ in range(UPDATES):
        entry = table[keys[rng.randrange(ENTRIES)]]
        entry[0] += 1
        entry[1] += 0.5
    del table, keys
    return time.perf_counter() - start


class Calibrator:
    """Times the loop under the parallelism of the measured passes.

    ``processes`` is how many CPUs a pass keeps busy: with one, the loop
    runs in this process; with more, in that many helper processes at
    once, started here and stopped by :meth:`close`.
    """

    def __init__(self, processes: int = 1) -> None:
        self.helpers = [
            subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                text=True,
            )
            for _ in range(processes if processes > 1 else 0)
        ]
        try:
            self.measure()  # warm-up: the first loop in a fresh interpreter
        except BaseException:
            self.close()
            raise

    def measure(self) -> float:
        """Seconds of one loop (the mean over helpers run together)."""
        if not self.helpers:
            return _timed_loop()
        for helper in self.helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        timings = []
        for helper in self.helpers:
            line = helper.stdout.readline()
            if not line:
                raise RuntimeError("calibration helper exited")
            timings.append(float(line))
        return sum(timings) / len(timings)

    def close(self) -> None:
        for helper in self.helpers:
            if helper.poll() is None:
                helper.stdin.close()
        for helper in self.helpers:
            try:
                helper.wait(timeout=10)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()


def _timed_loop() -> float:
    """One loop with the cyclic collector held off (the loop makes no cycles)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return calibration_loop()
    finally:
        if enabled:
            gc.enable()


def factors(calibrations) -> list:
    """Reference seconds per raw second for the gaps between calibrations.

    ``calibrations`` holds one timing before each timed interval and one
    after the last; interval ``i`` lies between timings ``i`` and ``i+1``.
    """
    return [
        2 * REFERENCE_S / (before + after)
        for before, after in zip(calibrations, calibrations[1:])
    ]


def serve() -> None:
    for _ in sys.stdin:
        print(repr(_timed_loop()), flush=True)


if __name__ == "__main__":
    serve()
