"""Tests for the bimodal server-performance fluctuation model."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kvstore.fluctuation import BimodalFluctuation, StableService
from repro.sim import Environment

from tests.kvstore._drivers import idle_flow_engine


def _model(seed=0, base=4e-3, d=3.0, interval=50e-3):
    return BimodalFluctuation(
        base_service_time=base,
        range_parameter=d,
        interval=interval,
        rng=np.random.default_rng(seed),
    )


class TestValidation:
    def test_base_positive(self):
        with pytest.raises(ConfigurationError):
            _model(base=0.0)

    def test_range_at_least_one(self):
        with pytest.raises(ConfigurationError):
            _model(d=0.5)

    def test_interval_positive(self):
        with pytest.raises(ConfigurationError):
            _model(interval=0.0)

    def test_stable_service_validation(self):
        with pytest.raises(ConfigurationError):
            StableService(0.0)


class TestBimodal:
    def test_mean_is_one_of_two_modes(self):
        env = Environment()
        model = _model()
        model.start(env)
        seen = set()
        for _ in range(60):
            env.run(until=env.now + 50e-3)
            seen.add(round(model.current_mean, 9))
        assert seen == {round(4e-3, 9), round(4e-3 / 3, 9)}

    def test_redraw_count_matches_intervals(self):
        env = Environment()
        model = _model()
        model.start(env)
        env.run(until=1.0)
        # 50 ms interval over 1 s -> 19-20 redraws depending on boundary.
        assert 18 <= model.redraws <= 20

    def test_modes_roughly_equiprobable(self):
        env = Environment()
        model = _model(seed=7)
        model.start(env)
        fast = 0
        n = 400
        for _ in range(n):
            env.run(until=env.now + 50e-3)
            if model.current_mean < 4e-3:
                fast += 1
        assert 0.4 < fast / n < 0.6

    def test_expected_mean(self):
        model = _model()
        assert model.expected_mean() == pytest.approx(
            0.5 * (4e-3 + 4e-3 / 3)
        )

    def test_utilization_factor_matches_paper(self):
        """The paper's 2/(1+d) with d=3 gives 0.5 (90% nominal -> 45%)."""
        model = _model(d=3.0)
        assert model.expected_rate_utilization_factor() == pytest.approx(0.5)

    def test_deterministic_for_seed(self):
        def trajectory(seed):
            env = Environment()
            model = _model(seed=seed)
            model.start(env)
            values = []
            for _ in range(20):
                env.run(until=env.now + 50e-3)
                values.append(model.current_mean)
            return values

        assert trajectory(3) == trajectory(3)
        assert trajectory(3) != trajectory(4)


    def test_same_draws_in_the_same_order_on_a_flow_engine(self):
        """The flow tier constructs this very class on its micro-heap: the
        ticks land on the same instants and consume the stream alike."""
        probes = [k * 10e-3 for k in range(1, 31)]  # 300 ms: six redraws

        def sample(clock, model, seen):
            seen.append((clock.now, model.current_mean))

        env = Environment()
        on_env = _model(seed=3)
        on_env.start(env)
        seen_env = []
        for when in probes:
            env.post_at(when, sample, (env, on_env, seen_env))
        env.run(until=probes[-1])

        with idle_flow_engine() as engine:
            on_engine = _model(seed=3)
            on_engine.start(engine)
            seen_engine = []
            for when in probes:
                engine.post_at(when, sample, (engine, on_engine, seen_engine))
            engine.run(until=probes[-1])

        assert seen_engine == seen_env
        assert on_engine.redraws == on_env.redraws == 6
        assert len({mean for _, mean in seen_env}) == 2  # both modes were drawn


class TestStableService:
    def test_constant_mean(self):
        env = Environment()
        model = StableService(2e-3)
        model.start(env)
        env.run(until=1.0)
        assert model.current_mean == 2e-3
        assert model.expected_mean() == 2e-3
