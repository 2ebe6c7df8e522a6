"""The sharded population is bit-identical to the generator reference.

Every synthetic run builds the sharded population; the generator
population (``ClientPopulation``, reached through the test-only
``reference_population`` seam) is the executable reference it mirrors.
The mirror is not an approximation: per configuration it must replay
the generator's RNG draw order exactly, so results, metrics, and mid-run
checkpoint digests agree value-for-value in both engine modes.  These named configurations pin the feature dimensions
that could plausibly diverge — adaptive TTL policies with non-oracle
estimators, domain rotation, client address caching, geography, and
multi-nameserver resolution.
"""

import dataclasses
import json

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.simulation import Simulation, run_simulation
from repro.sim.checkpoint import state_digest
from repro.workload.clients import ClientPopulation
from repro.workload.shards import ShardedClientPopulation

from ..conftest import reference_population

#: The golden-trajectory configuration (tests/fixtures) plus one named
#: config per feature dimension.  Keys are test ids.
CONFIGS = {
    "golden": dict(
        policy="DRR2-TTL/S_K",
        duration=600.0,
        seed=97,
        heterogeneity=50,
        domain_count=10,
        total_clients=120,
        estimator="measured",
        trace=True,
        keep_utilization_series=True,
    ),
    "rotation": dict(
        policy="PRR-TTL/K",
        duration=400.0,
        seed=11,
        hot_rotation_interval=120.0,
        hot_rotation_count=4,
    ),
    "caching": dict(
        policy="RR",
        duration=400.0,
        seed=23,
        client_address_caching=True,
    ),
    "estimator-window": dict(
        policy="MRL",
        duration=400.0,
        seed=31,
        workload_error=0.3,
        estimator="window",
    ),
    "multi-ns": dict(
        policy="DAL",
        duration=400.0,
        seed=41,
        nameservers_per_domain=2,
        min_accepted_ttl=60.0,
    ),
}


def fingerprint(result) -> str:
    """Exact serialized result: every field must match exactly."""
    return json.dumps(dataclasses.asdict(result), sort_keys=True, default=repr)


@pytest.mark.parametrize("name", sorted(CONFIGS))
@pytest.mark.parametrize("mode", ["event", "fastforward"])
def test_results_bit_identical(name, mode):
    config = SimulationConfig(**CONFIGS[name])
    with reference_population():
        reference = run_simulation(config, engine_mode=mode)
    sharded = run_simulation(config, engine_mode=mode)
    assert fingerprint(reference) == fingerprint(sharded)
    assert reference.total_sessions > 0


def _midrun_digests(config, mode):
    sim = Simulation(config, engine_mode=mode)
    cuts = []
    for t in (150.0, 300.0, 450.0, 600.0):
        sim.advance(t)
        cuts.append(state_digest(sim.snapshot_state()))
    return cuts


@pytest.mark.parametrize("mode", ["event", "fastforward"])
def test_midrun_digests_identical(mode):
    """Checkpoint digests agree at every cut, not just at the finish."""
    config = SimulationConfig(**CONFIGS["golden"])
    with reference_population():
        reference = _midrun_digests(config, mode)
    assert reference == _midrun_digests(config, mode)


def test_population_is_sharded_at_every_scale():
    """No client count selects another closed population."""
    for clients in (1, 120, 100_000):
        config = SimulationConfig(
            total_clients=clients, domain_count=1000, duration=1.0
        )
        sim = Simulation(config)
        assert type(sim.population) is ShardedClientPopulation
        assert len(sim.population.processes) == clients


def test_reference_seam_builds_the_generator_population():
    """The suites above compare two different implementations."""
    config = SimulationConfig(**CONFIGS["golden"])
    with reference_population():
        assert type(Simulation(config).population) is ClientPopulation
    assert type(Simulation(config).population) is ShardedClientPopulation


def test_workload_info_reports_population():
    config = SimulationConfig(duration=120.0, shard_size=32)
    sim = Simulation(config)
    sim.run()
    info = sim.workload_info
    assert info["source"] == "synthetic"
    assert info["population"] == "ShardedClientPopulation"
    assert info["shards"]["shard_size"] == 32
