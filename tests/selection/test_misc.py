"""Tests for the snitch, oracle, registry and rate control."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.network.packet import ServerStatus
from repro.selection import (
    C3Selector,
    EwmaSnitchSelector,
    OracleSelector,
    available_algorithms,
    create_selector,
    register,
)
from repro.selection.rate_control import CubicRateLimiter
from repro.sim.guard import deterministic_guard


def _status(queue=0):
    return ServerStatus(queue_size=queue, service_rate=1000.0, timestamp=0.0)


class TestEwmaSnitch:
    def test_unseen_servers_explored_first(self):
        selector = EwmaSnitchSelector(rng=np.random.default_rng(0))
        selector.note_response("a", 0.010, _status(), 0.0)
        assert selector.select(["a", "b"], 0.0) == "b"

    def test_prefers_lower_latency(self):
        selector = EwmaSnitchSelector(rng=np.random.default_rng(0))
        selector.note_response("a", 0.010, _status(), 0.0)
        selector.note_response("b", 0.001, _status(), 0.0)
        assert selector.select(["a", "b"], 0.0) == "b"

    def test_scores_reset_periodically(self):
        selector = EwmaSnitchSelector(
            reset_interval=1.0, rng=np.random.default_rng(0)
        )
        selector.note_response("a", 0.010, _status(), 0.0)
        selector.note_response("b", 0.001, _status(), 0.0)
        # After the reset interval both look fresh -> tie, random pick.
        picks = {selector.select(["a", "b"], now=2.0) for _ in range(50)}
        assert len(picks) == 2

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EwmaSnitchSelector(ewma_alpha=1.5)
        with pytest.raises(ConfigurationError):
            EwmaSnitchSelector(reset_interval=0.0)

    def test_ewma_update(self):
        selector = EwmaSnitchSelector(ewma_alpha=0.5)
        selector.note_response("a", 0.010, _status(), 0.0)
        selector.note_response("a", 0.020, _status(), 0.0)
        assert selector._tracks["a"].ewma == pytest.approx(0.015)


class TestOracle:
    def test_picks_true_shortest_queue(self):
        queues = {"a": 5, "b": 1, "c": 3}
        selector = OracleSelector(queues.__getitem__)
        assert selector.select(["a", "b", "c"], 0.0) == "b"

    def test_ties_broken(self):
        queues = {"a": 1, "b": 1}
        selector = OracleSelector(
            queues.__getitem__, rng=np.random.default_rng(0)
        )
        picks = {selector.select(["a", "b"], 0.0) for _ in range(50)}
        assert len(picks) == 2


class TestRegistry:
    def test_known_algorithms_present(self):
        names = available_algorithms()
        for expected in (
            "c3",
            "random",
            "round-robin",
            "least-outstanding",
            "two-choices",
            "ewma-snitch",
        ):
            assert expected in names

    def test_create_c3(self):
        selector = create_selector(
            "c3",
            concurrency_weight=5,
            prior_service_rate=100.0,
            rng=np.random.default_rng(0),
        )
        assert isinstance(selector, C3Selector)
        assert selector.concurrency_weight == 5

    @pytest.mark.parametrize("name", available_algorithms())
    def test_fallback_stream_derives_from_the_seed(self, name):
        """Without an ``rng`` the stream comes from ``seed``, never from fresh
        entropy: the guard lets it build, and two builds choose alike."""

        def choices():
            selector = create_selector(
                name, concurrency_weight=1, prior_service_rate=100.0, seed=3
            )
            return [selector.select(["a", "b", "c", "d"], 0.0) for _ in range(20)]

        with deterministic_guard():
            assert choices() == choices()

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError):
            create_selector(
                "nope", concurrency_weight=1, prior_service_rate=1.0
            )

    def test_duplicate_registration_raises(self):
        with pytest.raises(ConfigurationError):
            register("c3", lambda n, p, r: None)

    def test_custom_registration(self):
        class Fixed(C3Selector):
            algorithm_name = "test-fixed"

        register(
            "test-fixed",
            lambda n, prior, rng: Fixed(
                concurrency_weight=n, prior_service_rate=prior, rng=rng
            ),
        )
        selector = create_selector(
            "test-fixed", concurrency_weight=2, prior_service_rate=10.0
        )
        assert isinstance(selector, Fixed)


class TestCubicRateLimiter:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CubicRateLimiter(initial_rate=0.0)
        with pytest.raises(ConfigurationError):
            CubicRateLimiter(beta=1.5)
        with pytest.raises(ConfigurationError):
            CubicRateLimiter(window=0.0)

    def test_tokens_gate_sends(self):
        limiter = CubicRateLimiter(initial_rate=10.0)
        assert limiter.may_send(0.0)
        limiter.on_send(0.0)
        # Next token arrives after 1/rate = 0.1 s.
        assert not limiter.may_send(0.01)
        assert limiter.may_send(0.2)

    def test_rates_measured_over_window(self):
        limiter = CubicRateLimiter(initial_rate=1000.0, window=0.1)
        for i in range(10):
            limiter.on_send(i * 0.01)
        assert limiter.send_rate(0.1) == pytest.approx(100.0, rel=0.2)

    def test_decrease_when_sends_outpace_receives(self):
        limiter = CubicRateLimiter(initial_rate=1000.0, window=0.1)
        for i in range(20):
            limiter.on_send(i * 0.001)
        limiter.on_receive(0.05)
        assert limiter.decreases >= 1
        assert limiter.rate < 1000.0

    def test_cubic_growth_after_decrease(self):
        limiter = CubicRateLimiter(initial_rate=1000.0, window=0.1)
        for i in range(20):
            limiter.on_send(i * 0.001)
        limiter.on_receive(0.05)
        dropped = limiter.rate
        # Balanced traffic afterwards: rate should recover over time.
        t = 0.2
        for _ in range(200):
            limiter.on_send(t)
            limiter.on_receive(t + 0.0005)
            t += 0.01
        assert limiter.rate > dropped

    def test_rate_capped(self):
        limiter = CubicRateLimiter(initial_rate=100.0, max_rate=500.0)
        t = 0.0
        for _ in range(500):
            limiter.on_send(t)
            limiter.on_receive(t + 0.001)
            t += 0.05
        assert limiter.rate <= 500.0


class TestC3RateRegistration:
    def test_c3_rate_creates_limited_selector(self):
        selector = create_selector(
            "c3-rate",
            concurrency_weight=2,
            prior_service_rate=1000.0,
            rng=np.random.default_rng(0),
        )
        assert isinstance(selector, C3Selector)
        assert selector._rate_limiter_factory is not None
        # Exercising the send path must create per-server limiters.
        choice = selector.select(["a", "b"], 0.0)
        selector.note_sent(choice, 0.0)
        assert choice in selector._limiters

    def test_c3_rate_runs_tiny_experiment(self):
        from repro.experiments.config import ExperimentConfig
        from repro.experiments.runner import run_experiment

        config = ExperimentConfig.tiny(
            scheme="clirs", seed=2, algorithm="c3-rate", total_requests=300
        )
        result = run_experiment(config)
        assert result.completed_requests == 300
