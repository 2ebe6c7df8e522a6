"""Distributed dispatch: the remote backend's determinism and crash proofs.

These tests run a real coordinator (in-process, via
:class:`~repro.experiments.dispatch.RemoteBackend`) against real
``repro worker serve`` agents in subprocesses, over localhost TCP, and
turn the design claims of ``docs/DISTRIBUTED.md`` into checked facts:

* a grid dispatched to two workers returns results **equal in every
  serialized field** to the serial local run, and its checkpointed
  artifact bundles are **byte**-identical file-for-file;
* killing a worker mid-grid (the ``--crash-after`` chaos hook — a real
  ``os._exit`` while holding a lease) loses nothing: the dead worker's
  cells are re-leased, every cell completes exactly once, and the final
  bundles are byte-identical to the undisturbed run's;
* worker provenance lands in the cell manifests, never in the results.

Durations are tiny (a few hundred simulated seconds per cell) so the
whole module stays in tier 1.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.dispatch import CRASH_EXIT_STATUS, RemoteBackend
from repro.experiments.executor import ParallelExecutor
from repro.experiments.persistence import result_to_dict
from repro.experiments.simulation import run_simulation

from ..conftest import wait_until_dialing

#: Artifacts compared byte-for-byte between backends. Manifests are
#: excluded by design: they carry timestamps and (on purpose) the
#: worker identity that produced each cell.
BUNDLE_FILES = ("run.json", "run.trace.jsonl", "run.metrics.prom")


def _grid_configs():
    """A small mixed-policy batch — enough cells to share around."""
    return [
        SimulationConfig(
            policy=policy, heterogeneity=het, duration=400.0, seed=11
        )
        for policy in ("RR", "DAL", "DRR2-TTL/S_K")
        for het in (20, 35)
    ]


def _spawn_worker(address, *, worker_id, crash_after=None, timeout=30.0):
    """Start one ``repro worker serve`` agent as a subprocess."""
    host, port = address
    argv = [
        sys.executable, "-m", "repro", "worker", "serve",
        "--connect", f"{host}:{port}",
        "--connect-timeout", "5",
        "--id", worker_id,
    ]
    if crash_after is not None:
        argv += ["--crash-after", str(crash_after)]
    env = dict(os.environ)
    src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.Popen(
        argv, env=env,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )


def _run_remote(configs, *, workers, checkpoint_dir=None, crash_first=False,
                lease_timeout=15.0):
    """Dispatch ``configs`` to ``workers`` fresh subprocess agents."""
    backend = RemoteBackend(
        ("127.0.0.1", 0), lease_timeout=lease_timeout, timeout=120.0
    )
    address = backend.bind()
    executor = ParallelExecutor(
        backend=backend,
        checkpoint_dir=checkpoint_dir,
        checkpoint_every=100.0 if checkpoint_dir is not None else 0.0,
    )
    agents = []
    try:
        for index in range(workers):
            agents.append(_spawn_worker(
                address,
                worker_id=f"w{index}",
                crash_after=1 if crash_first and index == 0 else None,
            ))
        wait_until_dialing(agents)
        results = executor.run_simulations(
            configs, labels=[c.policy for c in configs]
        )
    finally:
        backend.close()
        for agent in agents:
            try:
                agent.wait(timeout=30)
            except subprocess.TimeoutExpired:  # pragma: no cover
                agent.kill()
                agent.wait()
            agent.stderr.close()
    return results, executor, agents


class TestRemoteParity:
    def test_two_workers_match_serial_local(self, tmp_path):
        configs = _grid_configs()
        remote_dir = tmp_path / "remote"
        local_dir = tmp_path / "local"

        results, executor, agents = _run_remote(
            configs, workers=2, checkpoint_dir=remote_dir
        )
        assert all(agent.returncode == 0 for agent in agents)

        local = ParallelExecutor(
            workers=1, checkpoint_dir=local_dir, checkpoint_every=100.0
        ).run_simulations(configs)

        # Field-for-field equality of every serialized result...
        assert (
            [result_to_dict(r) for r in results]
            == [result_to_dict(r) for r in local]
        )
        # ...and byte-identical artifact bundles, cell for cell.
        for index in range(len(configs)):
            cell = f"cell-{index:04d}"
            for name in BUNDLE_FILES:
                local_file = local_dir / cell / name
                remote_file = remote_dir / cell / name
                if not local_file.exists():
                    assert not remote_file.exists()
                    continue
                assert remote_file.read_bytes() == local_file.read_bytes(), (
                    f"{cell}/{name} differs between backends"
                )

    def test_stats_and_dispatch_info_describe_the_batch(self):
        configs = _grid_configs()[:4]
        results, executor, agents = _run_remote(configs, workers=2)
        stats = executor.last_stats
        assert stats is not None
        assert stats.cell_count == len(configs)
        assert stats.workers == 2
        info = executor.dispatch_info()
        assert info["backend"] == "remote"
        roster = {entry["worker"]: entry["cells"] for entry in info["roster"]}
        assert set(roster) == {"w0", "w1"}
        assert sum(roster.values()) == len(configs)

    def test_remote_without_checkpointing_matches_plain_runs(self):
        configs = _grid_configs()[:3]
        results, executor, agents = _run_remote(configs, workers=2)
        expected = [run_simulation(c) for c in configs]
        assert (
            [result_to_dict(r) for r in results]
            == [result_to_dict(r) for r in expected]
        )


class TestWorkerCrash:
    def test_killed_worker_loses_no_cells(self, tmp_path):
        configs = _grid_configs()
        crash_dir = tmp_path / "crash"
        clean_dir = tmp_path / "clean"

        # Worker w0 completes one cell, takes another lease, and dies
        # mid-cell via os._exit — no cleanup, no goodbye on the wire.
        results, executor, agents = _run_remote(
            configs, workers=2, checkpoint_dir=crash_dir, crash_first=True
        )
        statuses = sorted(agent.returncode for agent in agents)
        assert statuses == [0, CRASH_EXIT_STATUS]

        # Every cell still completed, exactly once.
        stats = executor.last_stats
        assert stats.cell_count == len(configs)
        seen = [index for index, _, _ in executor.backend.last_outcome.completions]
        assert sorted(seen) == list(range(len(configs)))
        assert executor.backend.last_outcome.retried, (
            "the killed worker's lease was never re-pooled"
        )

        # And the bundles are byte-identical to an undisturbed run's.
        clean, _, _ = _run_remote(
            configs, workers=2, checkpoint_dir=clean_dir
        )
        assert (
            [result_to_dict(r) for r in results]
            == [result_to_dict(r) for r in clean]
        )
        for index in range(len(configs)):
            cell = f"cell-{index:04d}"
            for name in BUNDLE_FILES:
                clean_file = clean_dir / cell / name
                crash_file = crash_dir / cell / name
                if not clean_file.exists():
                    continue
                assert crash_file.read_bytes() == clean_file.read_bytes(), (
                    f"{cell}/{name} differs after the crash-recovery run"
                )


class TestProvenance:
    def test_cell_manifests_name_their_worker(self, tmp_path):
        configs = _grid_configs()[:2]
        directory = tmp_path / "prov"
        results, executor, agents = _run_remote(
            configs, workers=1, checkpoint_dir=directory
        )
        for index in range(len(configs)):
            manifest = json.loads(
                (directory / f"cell-{index:04d}" / "run.manifest.json")
                .read_text()
            )
            dispatch = manifest["dispatch"]
            assert dispatch["backend"] == "remote"
            assert dispatch["worker"] == "w0"
            # The result JSON stays placement-free: byte-identity across
            # backends depends on it.
            result = json.loads(
                (directory / f"cell-{index:04d}" / "run.json").read_text()
            )
            assert "dispatch" not in result


@pytest.mark.slow
class TestRemoteCli:
    def test_grid_command_over_remote_backend(self, tmp_path):
        src = str(pathlib.Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        port = 7591
        workers = [
            _spawn_worker(("127.0.0.1", port), worker_id=f"cli{i}")
            for i in range(2)
        ]
        try:
            completed = subprocess.run(
                [
                    sys.executable, "-m", "repro", "grid",
                    "--rows", "policy=RR,DRR2-TTL/S_K",
                    "--cols", "heterogeneity=20,35",
                    "--duration", "300",
                    "--backend", "remote",
                    "--listen", f"127.0.0.1:{port}",
                ],
                env=env, capture_output=True, text=True, timeout=300,
            )
        finally:
            for agent in workers:
                try:
                    agent.wait(timeout=30)
                except subprocess.TimeoutExpired:  # pragma: no cover
                    agent.kill()
                    agent.wait()
                agent.stderr.close()
        assert completed.returncode == 0, completed.stderr
        assert "DRR2-TTL/S_K" in completed.stdout
        assert "workers" in completed.stdout  # the execution block
