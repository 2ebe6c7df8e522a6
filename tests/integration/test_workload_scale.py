"""Bounded-memory guarantees for large-K workloads (slow tier).

A truncated large-K configuration runs under a hard tracemalloc
budget: if any construction path regresses to materializing
per-domain or per-client Python lists (the eager-spawn ceiling this
refactor removed), allocations jump by an order of magnitude and
these fail.  The full 10^6-domain budget gate runs in CI as the
``workload-scale`` job via ``benchmarks/bench_workload_scale.py``.
"""

import tracemalloc

import pytest

from repro.experiments.config import SimulationConfig
from repro.experiments.simulation import Simulation
from repro.workload.domains import LazyZipfDomainSet

#: Above the lazy domain-set threshold (100 000 domains) while keeping
#: the slow tier's runtime in seconds.
DOMAINS = 200_000

#: MiB of traced allocations allowed for a truncated large-K run.
#: Measured peaks sit near 10 MiB; one eager 200k-element list of
#: tuples alone would roughly double that.
BUDGET_MIB = 48.0


def traced_peak_mib(config):
    tracemalloc.start()
    try:
        sim = Simulation(config)
        result = sim.run()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.total_hits > 0
    return peak / (1024.0 * 1024.0)


@pytest.mark.slow
def test_synthetic_large_k_within_budget():
    config = SimulationConfig(
        policy="RR",
        domain_count=DOMAINS,
        total_clients=1_000,
        duration=60.0,
        seed=5,
    )
    assert traced_peak_mib(config) <= BUDGET_MIB


@pytest.mark.slow
def test_trace_large_k_within_budget():
    config = SimulationConfig(
        policy="RR",
        domain_count=DOMAINS,
        workload_source="trace",
        trace_profile="diurnal",
        trace_rate=2.0,
        duration=60.0,
        seed=5,
    )
    assert traced_peak_mib(config) <= BUDGET_MIB


@pytest.mark.slow
def test_lazy_domain_set_never_materializes_share_list():
    """Streaming client counts allocate O(winners), not O(K)."""
    tracemalloc.start()
    try:
        domains = LazyZipfDomainSet(1_000_000)
        total = sum(domains.iter_client_counts(1_000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert total == 1_000
    assert peak < 8 * 1024 * 1024  # an 8 MiB float array alone busts this
