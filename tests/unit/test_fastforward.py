"""Unit tests for the hybrid fluid/event fast-forward engine mode.

The bit-identity proofs live in the golden-trajectory fixture and the
Hypothesis equivalence harness
(``tests/property/test_prop_fastforward_equivalence.py``); this file
covers the machinery around them: task-class registration, the fallback
gate and its counters, reference behaviour with no tasks registered,
``step()``/``run()`` agreement, engine provenance, the default lane,
and the run-control plumbing (executor validation, manifests,
cross-mode resume).
"""

import json
from heapq import heapreplace

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.experiments.checkpointing import resume_run, run_with_checkpoints
from repro.experiments.config import SimulationConfig
from repro.experiments.executor import ParallelExecutor
from repro.experiments.persistence import result_to_dict
from repro.experiments.simulation import Simulation, run_simulation
from repro.obs.provenance import build_manifest
from repro.sim.engine import EmptySchedule, Environment
from repro.sim.events import _NORMAL_KEY
from repro.sim.fastforward import FastForwardEnvironment, FluidTask
from repro.workload.shards import fluid_fallback_reasons


class TickTask(FluidTask):
    """Minimal fluid task: records each wake, reschedules ``wakes`` times.

    Uses the same eid/heap-key arithmetic as the real client stepper, so
    it exercises the drain/heapreplace protocol end to end.
    """

    __slots__ = ("env", "log", "wakes")

    def __init__(self, env, log, wakes):
        self.env = env
        self.log = log
        self.wakes = wakes
        env._eid = eid = env._eid + 1
        env._queue.append((env._now, _NORMAL_KEY | eid, self))

    @classmethod
    def drain(cls, env, queue, target, budget=-1):
        while queue:
            item = queue[0]
            now = item[0]
            if now > target:
                return
            task = item[2]
            if type(task) is not cls:
                return
            task.log.append(now)
            task.wakes -= 1
            if task.wakes > 0:
                env._eid = eid = env._eid + 1
                heapreplace(queue, (now + 1.0, _NORMAL_KEY | eid, task))
            else:
                from heapq import heappop

                heappop(queue)
            budget -= 1
            if budget == 0:
                return


class TestRegistration:
    def test_register_then_active(self):
        env = FastForwardEnvironment()
        assert not env.fast_forward_active
        env.register_task_class(TickTask)
        assert env.fast_forward_active

    def test_reregistering_same_class_is_noop(self):
        env = FastForwardEnvironment()
        env.register_task_class(TickTask)
        env.register_task_class(TickTask)
        assert env.fast_forward_active

    def test_registering_second_class_raises(self):
        class Other(FluidTask):
            __slots__ = ()

        env = FastForwardEnvironment()
        env.register_task_class(TickTask)
        with pytest.raises(ValueError, match="already registered"):
            env.register_task_class(Other)

    def test_count_fallback_increments_per_reason(self):
        env = FastForwardEnvironment()
        env.count_fallback("geography")
        env.count_fallback("geography")
        env.count_fallback("session-model")
        assert env.fallback_reasons == {"geography": 2, "session-model": 1}


class TestDispatch:
    def test_no_tasks_registered_is_the_reference_engine(self):
        """Timeout/process trajectories match the base Environment."""

        def proc(env, log):
            for _ in range(5):
                yield env.timeout(1.5)
                log.append(env.now)

        logs = []
        for env_class in (Environment, FastForwardEnvironment):
            env = env_class()
            log = []
            env.process(proc(env, log))
            env.run()
            logs.append((log, env.now))
        assert logs[0] == logs[1]

    def test_run_drains_registered_tasks(self):
        env = FastForwardEnvironment()
        env.register_task_class(TickTask)
        log = []
        TickTask(env, log, wakes=4)
        env.run()
        assert log == [0.0, 1.0, 2.0, 3.0]

    def test_run_until_stops_tasks_at_target(self):
        env = FastForwardEnvironment()
        env.register_task_class(TickTask)
        log = []
        TickTask(env, log, wakes=10)
        env.run(until=2.5)
        assert log == [0.0, 1.0, 2.0]
        assert env.now == 2.5

    def test_step_dispatches_exactly_one_wake(self):
        """step() is the reference single-event cut through the drain."""
        env = FastForwardEnvironment()
        env.register_task_class(TickTask)
        log = []
        TickTask(env, log, wakes=3)
        env.step()
        assert log == [0.0]
        assert env.now == 0.0
        env.step()
        assert log == [0.0, 1.0]
        assert env.now == 1.0

    def test_stepping_to_exhaustion_matches_run(self):
        run_env = FastForwardEnvironment()
        run_env.register_task_class(TickTask)
        run_log = []
        TickTask(run_env, run_log, wakes=6)
        run_env.run()

        step_env = FastForwardEnvironment()
        step_env.register_task_class(TickTask)
        step_log = []
        TickTask(step_env, step_log, wakes=6)
        while True:
            try:
                step_env.step()
            except EmptySchedule:
                break
        assert step_log == run_log

    def test_step_on_empty_schedule_raises(self):
        env = FastForwardEnvironment()
        with pytest.raises(EmptySchedule):
            env.step()

    def test_run_until_before_now_raises(self):
        env = FastForwardEnvironment()
        env.run(until=5.0)
        with pytest.raises(SimulationError):
            env.run(until=1.0)


class _Stub:
    def __init__(self, **attrs):
        self.__dict__.update(attrs)


def _eligible_population_stub():
    from repro.sim.distributions import (
        DiscreteUniform,
        Exponential,
        Geometric,
    )

    return _Stub(
        dynamic_domains=False,
        client_address_caching=False,
        geography=False,
        session_model=_Stub(
            pages_per_session=Geometric(8.0),
            hits_per_page=DiscreteUniform(5, 15),
            think_time=Exponential(7.5),
        ),
    )


class TestFallbackGate:
    def test_eligible_population_has_no_reasons(self):
        assert fluid_fallback_reasons(**vars(_eligible_population_stub())) == []

    def test_each_ineligible_feature_is_named(self):
        from repro.sim.distributions import Constant

        population = _eligible_population_stub()
        population.dynamic_domains = True
        population.client_address_caching = True
        population.geography = True
        population.session_model.pages_per_session = Constant(3.0)
        assert fluid_fallback_reasons(**vars(population)) == [
            "dynamic-domains",
            "client-address-caching",
            "geography",
            "session-model",
        ]

    def test_fallback_counter_increments_on_ineligible_run(self):
        config = SimulationConfig(
            policy="RR",
            duration=60.0,
            total_clients=30,
            seed=5,
            client_address_caching=True,
        )
        sim = Simulation(config, engine_mode="fastforward")
        sim.run()
        assert type(sim.env) is Environment
        info = sim.engine_info
        assert info["engine_mode"] == "fastforward"
        assert info["effective_mode"] == "event"
        assert info["fast_clients"] == 0
        assert info["fallbacks"] == {"client-address-caching": 1}

    def test_default_is_the_fast_lane(self):
        config = SimulationConfig(policy="DRR2-TTL/S_K", duration=120.0, seed=5)
        sim = Simulation(config)
        result = sim.run()
        assert type(sim.env) is FastForwardEnvironment
        info = sim.engine_info
        assert info["effective_mode"] == "fastforward"
        assert info["fast_clients"] == config.total_clients
        reference = run_simulation(config, engine_mode="event")
        assert result_to_dict(result) == result_to_dict(reference)

    def test_eligible_run_reports_fluid_engine(self):
        config = SimulationConfig(
            policy="RR", duration=60.0, total_clients=30, seed=5
        )
        sim = Simulation(config, engine_mode="fastforward")
        sim.run()
        info = sim.engine_info
        assert info["effective_mode"] == "fastforward"
        assert info["fast_clients"] == 30
        assert info["fallbacks"] == {}

    def test_event_mode_reports_no_fast_clients(self):
        config = SimulationConfig(
            policy="RR", duration=60.0, total_clients=30, seed=5
        )
        sim = Simulation(config, engine_mode="event")
        sim.run()
        info = sim.engine_info
        assert info == {
            "engine_mode": "event",
            "effective_mode": "event",
            "fast_clients": 0,
            "fallbacks": {},
        }


class TestRunControlPlumbing:
    def test_unknown_engine_mode_rejected_by_simulation(self):
        config = SimulationConfig(policy="RR", duration=60.0)
        with pytest.raises(ConfigurationError, match="engine mode"):
            Simulation(config, engine_mode="warp")

    def test_unknown_engine_mode_rejected_by_executor(self):
        with pytest.raises(ConfigurationError, match="engine mode"):
            ParallelExecutor(workers=1, engine_mode="warp")

    def test_manifest_records_engine_mode(self):
        config = SimulationConfig(policy="RR", duration=60.0)
        manifest = build_manifest(config, engine_mode="fastforward")
        assert manifest["engine_mode"] == "fastforward"

    def test_manifest_omits_engine_mode_when_unknown(self):
        config = SimulationConfig(policy="RR", duration=60.0)
        assert "engine_mode" not in build_manifest(config)

    def test_cross_mode_resume_is_bit_identical(self, tmp_path):
        config = SimulationConfig(
            policy="RR", duration=120.0, total_clients=30, seed=5
        )
        halted = run_with_checkpoints(
            config,
            every=30.0,
            directory=tmp_path,
            halt_at=60.0,
            engine_mode="fastforward",
        )
        assert halted is None
        resumed = resume_run(tmp_path, engine_mode="event")
        reference = run_simulation(config, engine_mode="event")
        assert result_to_dict(resumed) == result_to_dict(reference)

    def test_plain_resume_runs_the_fast_lane(self, tmp_path):
        config = SimulationConfig(
            policy="RR", duration=120.0, total_clients=30, seed=5
        )
        run_with_checkpoints(
            config,
            every=30.0,
            directory=tmp_path,
            halt_at=60.0,
            engine_mode="event",
        )
        resumed = resume_run(tmp_path)
        reference = run_simulation(config, engine_mode="event")
        assert result_to_dict(resumed) == result_to_dict(reference)
        manifest = json.loads((tmp_path / "run.manifest.json").read_text())
        assert manifest["engine_mode"] == "fastforward"
