"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import contextlib
from unittest import mock

import pytest

from repro.core.estimator import OracleEstimator
from repro.core.state import SchedulerState
from repro.experiments import simulation as simulation_module
from repro.sim.engine import Environment
from repro.sim.rng import RandomStreams
from repro.web.cluster import ServerCluster
from repro.workload.clients import ClientPopulation
from repro.workload.domains import DomainSet


@pytest.fixture
def env():
    """A fresh simulation environment."""
    return Environment()


@pytest.fixture
def streams():
    """Deterministic random streams."""
    return RandomStreams(12345)


def make_state(
    heterogeneity: int = 20,
    domain_count: int = 20,
    uniform: bool = False,
) -> SchedulerState:
    """A SchedulerState over a Table 2 cluster with oracle Zipf weights."""
    cluster = ServerCluster.from_heterogeneity(heterogeneity)
    domains = (
        DomainSet.uniform(domain_count)
        if uniform
        else DomainSet.pure_zipf(domain_count)
    )
    return SchedulerState(cluster, OracleEstimator(domains.shares))


@pytest.fixture
def state():
    """Default scheduler state: het 20%, 20 Zipf domains."""
    return make_state()


def _reference_population(*args, shard_size=None, **kwargs):
    """Build the generator population with the sharded one's signature."""
    return ClientPopulation(*args, **kwargs)


@contextlib.contextmanager
def reference_population():
    """Make ``Simulation`` build the generator reference population.

    The test-only seam of the equivalence suites: inside the block, a
    synthetic run's closed population is :class:`ClientPopulation` (one
    generator process per client, always event-stepped) instead of the
    sharded population every run builds.
    """
    with mock.patch.object(
        simulation_module, "ShardedClientPopulation", _reference_population
    ):
        yield


def wait_until_dialing(agents):
    """Block until every ``repro worker serve`` agent has dialed.

    The agent logs "connecting to" on stderr right before it dials; the
    dial reaches the already-listening coordinator socket at once and
    waits in its accept queue. A batch started after this therefore has
    every agent in its roster from the start instead of racing the
    agents' interpreter start-up against its own cells.
    """
    for agent in agents:
        for line in agent.stderr:
            if "connecting to" in line:
                break
        else:
            raise AssertionError(
                f"worker agent exited before dialing (status {agent.wait()})"
            )
