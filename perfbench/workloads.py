"""The benchmark workloads (why each exists: see README.md here).

``BENCHMARK.json`` gates ``many-domains``, ``trace-diurnal`` and
``fabric-grid``; ``paper-figures`` runs the same way when named, but is
too noisy on a shared host to gate (README.md says why).

A workload is built from the benchmark seed alone and runs *passes*.
:meth:`reference_pass` runs the reference path (event engine, one
in-process worker, local backend) and is never timed; :meth:`run_pass`
runs the measured path and returns a :class:`PassRecord`. Every
run-control option a workload does not name stays at the library
default, and all of ``repro.obs`` stays off.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.experiments.config import SimulationConfig
from repro.experiments.dispatch import RemoteBackend
from repro.experiments.executor import ParallelExecutor
from repro.experiments.figures import FIGURES
from repro.experiments.simulation import Simulation

import calibrate

clock = time.perf_counter

#: The result fields a digest covers: everything the paper's figures and
#: tables read. Provenance-only fields (config, metrics registry, trace,
#: series) are left out, so adding a counter to the program does not
#: change a digest while any change to a result bit does.
RESULT_FIELDS = (
    "policy", "max_utilization_samples", "mean_utilization_per_server",
    "dns_resolutions", "address_request_rate", "dns_resolution_fraction",
    "dns_control_fraction", "mean_granted_ttl", "alarm_signals",
    "ns_ttl_overrides", "mean_page_response_time", "max_page_response_time",
    "mean_network_rtt", "total_hits", "total_sessions", "duration",
)


def digest(payload) -> str:
    """Short SHA-256 of a JSON payload (floats are written exactly)."""
    text = json.dumps(payload, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_digest(result) -> str:
    return digest([getattr(result, name) for name in RESULT_FIELDS])


def result_counts(results) -> Dict[str, int]:
    """Exact counts every pass of one seed must repeat bit for bit."""
    authoritative = sum(result.dns_resolutions for result in results)
    answers = sum(
        round(result.dns_resolutions / result.dns_resolution_fraction)
        for result in results
        if result.dns_resolution_fraction
    )
    return {
        "workload.sessions": sum(result.total_sessions for result in results),
        "workload.hits": sum(result.total_hits for result in results),
        "dns.authoritative_answers": authoritative,
        "dns.ns_cache_answers": answers - authoritative,
        "web.alarm_signals": sum(result.alarm_signals for result in results),
    }


@dataclass
class PassRecord:
    """What one pass measured and produced."""

    #: Pass wall seconds, set-up inside the pass included.
    wall_s: float
    #: Set-up seconds inside the pass (0 where there is none to separate).
    setup_s: float
    #: Per-cell host seconds.
    cell_times: List[float]
    #: Per-cell result digests, in submission order.
    cells: List[str]
    #: Exact counts (see :func:`result_counts`).
    counts: Dict[str, int]
    #: Digest of user-visible outputs beyond the cells (figure series).
    outputs: Optional[str] = None
    #: ``(wall seconds, worker slots, cell seconds)`` per executor batch.
    batches: List[tuple] = field(default_factory=list)
    #: Fabric measurements (fabric-grid only).
    dispatch: Dict[str, float] = field(default_factory=dict)
    #: ``(layer totals, counters)`` of a traced pass (see layers.py).
    layers: Optional[tuple] = None
    #: Pass wall seconds as timed, before :meth:`scale`.
    raw_wall_s: Optional[float] = None

    def scale(self, factor: float) -> None:
        """Express every time of the pass in reference seconds.

        ``factor`` is reference seconds per raw second at the time of
        the pass (see calibrate.py); counts are left as they are.
        """
        self.raw_wall_s = self.wall_s
        self.wall_s *= factor
        self.setup_s *= factor
        self.cell_times = [elapsed * factor for elapsed in self.cell_times]
        self.batches = [(wall * factor, slots, cells * factor)
                        for wall, slots, cells in self.batches]
        if "join_s" in self.dispatch:
            self.dispatch["join_s"] *= factor
        if self.layers is not None:
            for total in self.layers[0].values():
                total[1] *= factor
                total[2] *= factor


class RecordingExecutor(ParallelExecutor):
    """A :class:`ParallelExecutor` that keeps each batch's results and stats."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.batches: List[tuple] = []

    def run_simulations(self, configs, labels=None):
        results = super().run_simulations(configs, labels)
        self.batches.append((results, self.last_stats))
        return results


def _batch_record(executor: RecordingExecutor, wall_s: float, setup_s: float,
                  outputs: Optional[str] = None) -> PassRecord:
    results = [result for batch, _ in executor.batches for result in batch]
    stats = [stats for _, stats in executor.batches]
    counts = result_counts(results)
    counts["experiments.executor.batches"] = len(stats)
    return PassRecord(
        wall_s=wall_s,
        setup_s=setup_s,
        cell_times=[elapsed for item in stats for elapsed in item.cell_times],
        cells=[result_digest(result) for result in results],
        counts=counts,
        outputs=outputs,
        batches=[
            (item.wall_time, item.workers, item.total_cell_time) for item in stats
        ],
    )


def host_workers() -> int:
    """CPUs this process may run on (the pool and agent count)."""
    return len(os.sched_getaffinity(0))


class Workload:
    """Base: one in-process cell per pass, on the reference path."""

    name = "abstract"

    def __init__(self, seed: int):
        self.seed = seed
        #: CPUs a pass keeps busy, and so calibration helpers to run.
        self.cpus = 1

    def config(self) -> SimulationConfig:
        raise NotImplementedError

    def reference_pass(self, engine_mode: str = "event") -> PassRecord:
        return self.run_pass(engine_mode)

    def run_pass(self, engine_mode: str = "event") -> PassRecord:
        config = self.config()
        start = clock()
        simulation = Simulation(config, engine_mode=engine_mode)
        built = clock()
        result = simulation.run()
        end = clock()
        counts = result_counts([result])
        counts["sim.events"] = simulation.env.dispatched
        return PassRecord(
            wall_s=end - start,
            setup_s=built - start,
            cell_times=[end - start],
            cells=[result_digest(result)],
            counts=counts,
        )

    def setup_samples(self, calibrator) -> List[float]:
        """Set-up timings taken outside the passes; none means in-pass.

        Each is in reference seconds, calibrated by ``calibrator``.
        """
        return []

    def close(self) -> None:
        """Stop anything the workload started."""


class ManyDomains(Workload):
    """10^5 domains and 10^5 clients from cold caches, in process."""

    name = "many-domains"
    DURATION = 10.0

    def config(self) -> SimulationConfig:
        # 10^5 hits/s keeps Table 1's 2/3 utilization for 10^5 clients.
        return SimulationConfig(
            policy="DRR2-TTL/S_K",
            domain_count=100_000,
            total_clients=100_000,
            total_capacity=100_000.0,
            duration=self.DURATION,
            seed=self.seed,
        )


class TraceDiurnal(Workload):
    """Open diurnal arrivals, measured estimator, in process."""

    name = "trace-diurnal"
    DURATION = 3600.0

    def config(self) -> SimulationConfig:
        # A rate equivalent to 2000 closed clients; capacity scaled from
        # Table 1's 500 hits/s for 500 clients keeps 2/3 utilization.
        return SimulationConfig(
            policy="DRR2-TTL/S_K",
            workload_source="trace",
            trace_profile="diurnal",
            trace_amplitude=0.5,
            trace_period=self.DURATION / 2,
            total_clients=2000,
            total_capacity=2000.0,
            domain_count=200,
            estimator="measured",
            duration=self.DURATION,
            seed=self.seed,
        )


class PaperFigures(Workload):
    """All seven figure generators on Table 1 through a process pool."""

    name = "paper-figures"
    DURATION = 64.0
    #: Fresh-interpreter imports timed per run (median reported).
    IMPORT_SAMPLES = 3

    def __init__(self, seed: int):
        super().__init__(seed)
        self.cpus = host_workers()

    def _pass(self, workers: int, engine_mode: str = "event") -> PassRecord:
        executor = RecordingExecutor(workers=workers, engine_mode=engine_mode)
        start = clock()
        figures = [
            generate(duration=self.DURATION, seed=self.seed, executor=executor)
            for generate in FIGURES.values()
        ]
        wall = clock() - start
        outputs = digest([
            [figure.figure_id,
             [[series.label, series.x, series.y] for series in figure.series]]
            for figure in figures
        ])
        return _batch_record(executor, wall, 0.0, outputs)

    def reference_pass(self, engine_mode: str = "event") -> PassRecord:
        return self._pass(1, engine_mode)

    def run_pass(self) -> PassRecord:
        return self._pass(host_workers())

    def setup_samples(self, calibrator) -> List[float]:
        """Cold start: a fresh interpreter importing the figure layer.

        Pool workers are forked from a warm process, so work moved into
        import time would not show in ``wall_s``; it shows here.
        """
        samples, calibrations = [], [calibrator.measure()]
        for _ in range(self.IMPORT_SAMPLES):
            start = clock()
            subprocess.run(
                [sys.executable, "-c", "import repro.experiments.figures"],
                check=True,
            )
            samples.append(clock() - start)
            calibrations.append(calibrator.measure())
        return [sample * factor for sample, factor
                in zip(samples, calibrate.factors(calibrations))]


class FabricGrid(Workload):
    """Short cells over policy x heterogeneity on the remote backend."""

    name = "fabric-grid"
    DURATION = 60.0
    POLICIES = (
        "RR", "DAL", "PRR-TTL/K", "PRR2-TTL/K",
        "DRR-TTL/S_K", "DRR2-TTL/S_K", "DRR2-TTL/S_2",
    )
    LEVELS = (20, 35, 50, 65)
    REPLICATES = 4
    #: Seconds an agent keeps redialling a closed coordinator before it
    #: exits by itself; the benchmark stops agents sooner, outside any
    #: timed region, so this only bounds an orphaned agent's life.
    CONNECT_TIMEOUT = 5.0
    #: Deadline for agents to connect, and for one coordinated batch.
    BATCH_TIMEOUT = 120.0

    def __init__(self, seed: int):
        super().__init__(seed)
        self.workers = self.cpus = host_workers()
        self.configs = [
            SimulationConfig(
                policy=policy,
                heterogeneity=level,
                duration=self.DURATION,
                seed=self.seed * 1000 + replicate,
            )
            for policy in self.POLICIES
            for level in self.LEVELS
            for replicate in range(self.REPLICATES)
        ]
        self.agents: List[subprocess.Popen] = []

    def reference_pass(self, engine_mode: str = "event") -> PassRecord:
        executor = RecordingExecutor(workers=1, engine_mode=engine_mode)
        start = clock()
        executor.run_simulations(self.configs)
        return _batch_record(executor, clock() - start, 0.0)

    def _spawn(self, address) -> None:
        host, port = address
        self.agents = [
            subprocess.Popen(
                [
                    sys.executable, "-m", "repro", "worker", "serve",
                    "--connect", f"{host}:{port}",
                    "--connect-timeout", str(self.CONNECT_TIMEOUT),
                    "--id", f"perfbench-w{index}",
                ],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )
            for index in range(self.workers)
        ]

    def _wait_until_queued(self, port: int) -> None:
        """Block until every agent's connection waits on the listener.

        Agents dial as soon as they have imported the program, and the
        coordinator accepts only once a batch runs. The kernel's accept
        queue of the listening socket therefore holds one connection per
        ready agent; the measured batch starts on that state, so every
        worker is in its roster from its first lease.
        """
        deadline = clock() + self.BATCH_TIMEOUT
        while _accept_queue(port) < self.workers:
            if clock() > deadline or any(
                agent.poll() is not None for agent in self.agents
            ):
                raise RuntimeError(
                    f"only {_accept_queue(port)} of {self.workers} agents "
                    f"connected"
                )
            time.sleep(0.002)

    def run_pass(self) -> PassRecord:
        backend = RemoteBackend(("127.0.0.1", 0), timeout=self.BATCH_TIMEOUT)
        start = clock()
        try:
            address = backend.bind()
            self._spawn(address)
            self._wait_until_queued(address[1])
            joined = clock()
            executor = RecordingExecutor(backend=backend)
            executor.run_simulations(self.configs)
            end = clock()
        finally:
            backend.close()
            self.close()
        outcome = backend.last_outcome
        if len(outcome.roster) != self.workers:
            raise RuntimeError(
                f"{len(outcome.roster)} of {self.workers} workers served the "
                f"batch although all were connected before it started"
            )
        record = _batch_record(executor, end - start, joined - start)
        record.dispatch = {
            "join_s": joined - start,
            "workers_joined": len(outcome.roster),
            "releases": sum(outcome.retried.values()),
        }
        return record

    def close(self) -> None:
        for agent in self.agents:
            if agent.poll() is None:
                agent.terminate()
        for agent in self.agents:
            try:
                agent.wait(timeout=10)
            except subprocess.TimeoutExpired:
                agent.kill()
                agent.wait()
        self.agents = []


def _accept_queue(port: int) -> int:
    """Connections waiting in the accept queue of the IPv4 listener on ``port``.

    Read from ``/proc/net/tcp``, where a listening socket's ``rx_queue``
    column is its accept-queue length.
    """
    with open("/proc/net/tcp") as table:
        next(table)
        for line in table:
            fields = line.split()
            local, state, queues = fields[1], fields[3], fields[4]
            if state == "0A" and int(local.split(":")[1], 16) == port:
                return int(queues.split(":")[1], 16)
    return 0


WORKLOADS = {
    workload.name: workload
    for workload in (PaperFigures, ManyDomains, TraceDiurnal, FabricGrid)
}
