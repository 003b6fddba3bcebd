"""The determinism guard: global RNG entry points and host clocks raise
inside it, seeded streams and the sanctioned clock keep working, and every
``run_experiment`` runs under it."""

import random
import time

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.kvstore.server import ServerCore
from repro.selection.c3 import C3Selector
from repro.sim.guard import NondeterminismError, deterministic_guard, host_clock
from repro.sim.rng import RngRegistry, stream_from_seed

CLOCKS = (
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
)


def test_guard_blocks_stdlib_random():
    with deterministic_guard():
        with pytest.raises(NondeterminismError, match="random.random"):
            random.random()
        with pytest.raises(NondeterminismError, match="random.shuffle"):
            random.shuffle([1, 2, 3])


def test_guard_blocks_numpy_module_level_entry_points():
    with deterministic_guard():
        with pytest.raises(NondeterminismError, match="np.random.default_rng"):
            np.random.default_rng()
        with pytest.raises(NondeterminismError, match="np.random.seed"):
            np.random.seed(0)


@pytest.mark.parametrize("name", CLOCKS)
def test_guard_blocks_host_clocks(name):
    with deterministic_guard():
        with pytest.raises(NondeterminismError, match=f"time.{name}"):
            getattr(time, name)()


def test_host_clock_reads_under_guard():
    with deterministic_guard():
        started = host_clock()
        assert host_clock() >= started


def test_guard_restores_originals_on_exit():
    before = (random.random, np.random.default_rng, time.perf_counter)
    with deterministic_guard():
        pass
    assert (random.random, np.random.default_rng, time.perf_counter) == before
    random.random()  # must not raise
    np.random.default_rng()
    time.perf_counter()


def test_guard_restores_even_after_exceptions():
    with pytest.raises(ValueError):
        with deterministic_guard():
            raise ValueError("boom")
    random.random()
    time.time()


def test_guard_nests():
    with deterministic_guard():
        with deterministic_guard():
            with pytest.raises(NondeterminismError):
                random.random()
        with pytest.raises(NondeterminismError):
            time.monotonic()
    random.random()
    time.monotonic()


def test_seeded_streams_work_under_guard():
    with deterministic_guard():
        registry = RngRegistry(7)
        first = registry.stream("fixture").random()
        again = stream_from_seed(7, "fixture").random()
    assert first == again


def test_global_rng_in_a_selector_raises_inside_a_run(monkeypatch):
    select = C3Selector.select

    def noisy(self, candidates, now):
        random.random()
        return select(self, candidates, now)

    monkeypatch.setattr(C3Selector, "select", noisy)
    with pytest.raises(NondeterminismError, match="random.random"):
        run_experiment(ExperimentConfig.tiny(seed=5, scheme="clirs"))


@pytest.mark.parametrize("fidelity", ["packet", "flow"])
def test_host_clock_in_a_server_raises_inside_a_run(monkeypatch, fidelity):
    arrive = ServerCore.handle_arrival

    def timed(self, job):
        time.time()
        return arrive(self, job)

    monkeypatch.setattr(ServerCore, "handle_arrival", timed)
    config = ExperimentConfig.tiny(seed=5, scheme="netrs-tor", fidelity=fidelity)
    with pytest.raises(NondeterminismError, match="time.time"):
        run_experiment(config)


def test_run_leaves_the_guard_on_every_exit(monkeypatch):
    monkeypatch.setattr(ServerCore, "handle_arrival", lambda self, job: time.time())
    with pytest.raises(NondeterminismError):
        run_experiment(ExperimentConfig.tiny(seed=5))
    time.time()
    random.random()


def test_experiment_runs_and_reproduces_under_guard():
    """A full (tiny) experiment touches every subsystem -- client, workload,
    fluctuating servers, selection, network -- and runs under the guard, so
    none of them reaches for global randomness or the host clock."""
    config = ExperimentConfig.tiny(seed=5)
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.summary() == second.summary()
    assert first.events_executed == second.events_executed
