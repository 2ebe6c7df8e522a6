"""Hypothesis harness: generator reference vs sharded population.

Complements the named configurations in
tests/integration/test_population_equivalence.py with randomly drawn
ones: any divergence in RNG draw order, float arithmetic, or event
scheduling between the generator reference (``ClientPopulation``,
reached through the ``reference_population`` seam) and the sharded
population every run builds surfaces as a value diff in the serialized
result or a digest mismatch at a mid-run cut.
"""

import dataclasses
import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.config import SimulationConfig
from repro.experiments.simulation import Simulation, run_simulation
from repro.sim.checkpoint import state_digest

from ..conftest import reference_population

POLICIES = ["RR", "RR2", "DRR-TTL/S_K", "DRR2-TTL/S_K", "PRR-TTL/K"]

configs = st.builds(
    SimulationConfig,
    policy=st.sampled_from(POLICIES),
    heterogeneity=st.sampled_from([0, 20, 50]),
    duration=st.sampled_from([120.0, 240.0]),
    total_clients=st.sampled_from([50, 120]),
    domain_count=st.sampled_from([5, 10, 20]),
    seed=st.integers(min_value=1, max_value=2**31 - 1),
    workload_error=st.sampled_from([0.0, 0.25]),
    estimator=st.sampled_from(["oracle", "measured"]),
    client_address_caching=st.booleans(),
    # Small shard sizes force multi-shard bookkeeping even at 50
    # clients; the partition must not be observable.
    shard_size=st.sampled_from([7, 64, 4096]),
)

common = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def fingerprint(result) -> str:
    return json.dumps(dataclasses.asdict(result), sort_keys=True, default=repr)


def midrun_digest(config) -> str:
    sim = Simulation(config)
    sim.advance(config.duration / 2)
    return state_digest(sim.snapshot_state())


class TestPopulationEquivalence:
    @given(configs)
    @common
    def test_results_are_bit_identical(self, config):
        with reference_population():
            reference = run_simulation(config)
        assert fingerprint(reference) == fingerprint(run_simulation(config))

    @given(configs)
    @common
    def test_midrun_state_digests_agree(self, config):
        with reference_population():
            reference = midrun_digest(config)
        assert reference == midrun_digest(config)

    @given(configs)
    @common
    def test_lazy_fastforward_matches_eager_event(self, config):
        """Cross both axes at once: the sharded population under the
        fast-forward engine equals the generator reference under the
        reference engine."""
        with reference_population():
            reference = run_simulation(config, engine_mode="event")
        sharded = run_simulation(config, engine_mode="fastforward")
        assert fingerprint(reference) == fingerprint(sharded)
