"""Tests for Zipf sampling, demand skew and the open-loop workload."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kvstore.workload import (
    DemandWeights,
    OpenLoopWorkload,
    ZipfSampler,
)
from repro.sim import Environment


class TestZipfSampler:
    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(0, 1.0, rng)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, 0.0, rng)

    def test_samples_in_range(self):
        sampler = ZipfSampler(100, 0.99, np.random.default_rng(1))
        for _ in range(2000):
            assert 1 <= sampler.sample() <= 100

    def test_single_element_space(self):
        sampler = ZipfSampler(1, 0.99, np.random.default_rng(1))
        assert all(sampler.sample() == 1 for _ in range(50))

    def test_matches_exact_distribution(self):
        """Empirical frequencies track k^-s for a small key space."""
        n, s = 20, 0.99
        sampler = ZipfSampler(n, s, np.random.default_rng(2))
        draws = 200_000
        counts = np.zeros(n + 1)
        for _ in range(draws):
            counts[sampler.sample()] += 1
        weights = np.array([0.0] + [k**-s for k in range(1, n + 1)])
        expected = weights / weights.sum() * draws
        for k in range(1, n + 1):
            assert counts[k] == pytest.approx(expected[k], rel=0.1)

    def test_skewness_increases_with_s(self):
        rng = np.random.default_rng(3)
        mild = ZipfSampler(1000, 0.5, rng)
        steep = ZipfSampler(1000, 1.5, np.random.default_rng(4))
        top_mild = sum(1 for _ in range(20000) if mild.sample() <= 10)
        top_steep = sum(1 for _ in range(20000) if steep.sample() <= 10)
        assert top_steep > top_mild

    def test_large_key_space_constant_time(self):
        """The paper's 100M-key space must not need a table."""
        sampler = ZipfSampler(100_000_000, 0.99, np.random.default_rng(5))
        samples = [sampler.sample() for _ in range(1000)]
        assert max(samples) <= 100_000_000
        assert min(samples) >= 1

    def test_deterministic_for_seed(self):
        a = ZipfSampler(1000, 0.99, np.random.default_rng(9))
        b = ZipfSampler(1000, 0.99, np.random.default_rng(9))
        assert [a.sample() for _ in range(100)] == [b.sample() for _ in range(100)]

    @pytest.mark.parametrize(
        "n, s", [(1000, 0.99), (100_000_000, 0.99), (50, 1.5), (1000, 1.0)]
    )
    def test_sample_inlines_the_reference_inverse(self, n, s):
        """``sample`` inlines ``_h_integral_inverse``: draw for draw, key for
        key it is rejection-inversion through the reference method (``s = 1``
        takes its series branch)."""
        sampler = ZipfSampler(n, s, np.random.default_rng(11))
        ref = ZipfSampler(n, s, np.random.default_rng(11))

        def reference():
            while True:
                u = ref._h_n + ref._draws.random() * (ref._h_x1 - ref._h_n)
                x = ref._h_integral_inverse(u)
                k = min(max(int(x + 0.5), 1), n)
                if k - x <= ref._threshold or (
                    u >= ref._h_integral(k + 0.5) - ref._h(k)
                ):
                    return k

        draws = range(3000)
        assert [sampler.sample() for _ in draws] == [reference() for _ in draws]


class TestDemandWeights:
    def test_uniform_by_default(self):
        weights = DemandWeights(10)
        assert np.allclose(weights.probabilities, 0.1)
        assert weights.hot_clients == []

    def test_skew_requires_rng(self):
        with pytest.raises(ConfigurationError):
            DemandWeights(10, skew=0.8)

    def test_skew_bounds(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            DemandWeights(10, skew=1.0, rng=rng)
        with pytest.raises(ConfigurationError):
            DemandWeights(10, skew=0.0, rng=rng)

    def test_hot_clients_get_skew_mass(self):
        weights = DemandWeights(10, skew=0.8, rng=np.random.default_rng(1))
        assert len(weights.hot_clients) == 2
        hot_mass = sum(weights.probabilities[i] for i in weights.hot_clients)
        assert hot_mass == pytest.approx(0.8)
        assert weights.probabilities.sum() == pytest.approx(1.0)

    def test_sampling_respects_weights(self):
        weights = DemandWeights(10, skew=0.9, rng=np.random.default_rng(2))
        rng = np.random.default_rng(3)
        counts = [0] * 10
        n = 50_000
        for _ in range(n):
            counts[weights.sample(rng)] += 1
        achieved = weights.achieved_skew(counts)
        assert achieved == pytest.approx(0.9, abs=0.02)

    def test_hot_fraction_validation(self):
        with pytest.raises(ConfigurationError):
            DemandWeights(
                10, skew=0.8, hot_fraction=1.0, rng=np.random.default_rng(0)
            )

    def test_single_client_uniform(self):
        weights = DemandWeights(1)
        assert weights.probabilities.tolist() == [1.0]


class CountingClient:
    def __init__(self):
        self.keys = []
        self.recorded = 0

    def issue(self, key, record):
        self.keys.append(key)
        if record:
            self.recorded += 1


def _workload(env, clients, rate=1000.0, total=100, warmup=0, **kwargs):
    return OpenLoopWorkload(
        env,
        rate=rate,
        clients=clients,
        weights=kwargs.pop("weights", DemandWeights(len(clients))),
        key_sampler=ZipfSampler(1000, 0.99, np.random.default_rng(5)),
        rng=np.random.default_rng(6),
        total_requests=total,
        warmup_requests=warmup,
        **kwargs,
    )


class TestOpenLoopWorkload:
    def test_issues_exactly_total(self):
        env = Environment()
        clients = [CountingClient() for _ in range(4)]
        workload = _workload(env, clients, total=250)
        workload.start()
        env.run()
        assert sum(len(c.keys) for c in clients) == 250
        assert workload.issued == 250

    def test_warmup_flag(self):
        env = Environment()
        clients = [CountingClient()]
        workload = _workload(env, clients, total=100, warmup=30)
        workload.start()
        env.run()
        assert clients[0].recorded == 70

    def test_rate_approximates_poisson(self):
        env = Environment()
        clients = [CountingClient()]
        workload = _workload(env, clients, rate=10_000.0, total=5000)
        workload.start()
        env.run()
        assert env.now == pytest.approx(0.5, rel=0.15)

    def test_on_finished_callback(self):
        env = Environment()
        clients = [CountingClient()]
        done = []
        workload = _workload(env, clients, total=10, on_finished=lambda: done.append(env.now))
        workload.start()
        env.run()
        assert len(done) == 1

    def test_validation(self):
        env = Environment()
        clients = [CountingClient()]
        with pytest.raises(ConfigurationError):
            _workload(env, clients, rate=0.0)
        with pytest.raises(ConfigurationError):
            _workload(env, clients, total=0)
        with pytest.raises(ConfigurationError):
            _workload(env, clients, total=10, warmup=10)

    def test_weights_must_match_clients(self):
        env = Environment()
        clients = [CountingClient(), CountingClient()]
        with pytest.raises(ConfigurationError):
            _workload(env, clients, weights=DemandWeights(3))

    def test_per_client_counts(self):
        env = Environment()
        clients = [CountingClient() for _ in range(3)]
        workload = _workload(env, clients, total=300)
        workload.start()
        env.run()
        assert sum(workload.per_client_counts) == 300
        assert workload.per_client_counts == [len(c.keys) for c in clients]
