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
from repro.sim.rng import BatchedStream


def reference_key(sampler, draws):
    """One Zipf key by rejection-inversion through the sampler's reference
    methods, one ``draws.random()`` a try."""
    while True:
        u = sampler._h_n + draws.random() * (sampler._h_x1 - sampler._h_n)
        x = sampler._h_integral_inverse(u)
        k = min(max(int(x + 0.5), 1), sampler.n)
        if k - x <= sampler._threshold or (
            u >= sampler._h_integral(k + 0.5) - sampler._h(k)
        ):
            return k


class TestZipfSampler:
    def test_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ConfigurationError):
            ZipfSampler(0, 1.0, rng)
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, 0.0, rng)

    def test_samples_in_range(self):
        sampler = ZipfSampler(100, 0.99, np.random.default_rng(1))
        assert all(1 <= key <= 100 for key in sampler.draw(2000))

    def test_single_element_space(self):
        sampler = ZipfSampler(1, 0.99, np.random.default_rng(1))
        assert set(sampler.draw(50)) == {1}

    def test_matches_exact_distribution(self):
        """Empirical frequencies track k^-s for a small key space."""
        n, s = 20, 0.99
        sampler = ZipfSampler(n, s, np.random.default_rng(2))
        draws = 200_000
        counts = np.bincount(sampler.draw(draws), minlength=n + 1)
        weights = np.array([0.0] + [k**-s for k in range(1, n + 1)])
        expected = weights / weights.sum() * draws
        for k in range(1, n + 1):
            assert counts[k] == pytest.approx(expected[k], rel=0.1)

    def test_skewness_increases_with_s(self):
        rng = np.random.default_rng(3)
        mild = ZipfSampler(1000, 0.5, rng)
        steep = ZipfSampler(1000, 1.5, np.random.default_rng(4))
        top_mild = sum(1 for key in mild.draw(20000) if key <= 10)
        top_steep = sum(1 for key in steep.draw(20000) if key <= 10)
        assert top_steep > top_mild

    def test_large_key_space_constant_time(self):
        """The paper's 100M-key space must not need a table."""
        sampler = ZipfSampler(100_000_000, 0.99, np.random.default_rng(5))
        samples = sampler.draw(1000)
        assert max(samples) <= 100_000_000
        assert min(samples) >= 1

    def test_deterministic_for_seed(self):
        a = ZipfSampler(1000, 0.99, np.random.default_rng(9))
        b = ZipfSampler(1000, 0.99, np.random.default_rng(9))
        assert a.draw(100) == b.draw(100)

    @pytest.mark.parametrize(
        "n, s", [(1000, 0.99), (100_000_000, 0.99), (50, 1.5), (1000, 1.0)]
    )
    def test_sample_inlines_the_reference_inverse(self, n, s):
        """``draw`` inlines ``_h_integral_inverse``: draw for draw, key for
        key it is rejection-inversion through the reference method (``s = 1``
        takes its series branch)."""
        sampler = ZipfSampler(n, s, np.random.default_rng(11))
        ref = ZipfSampler(n, s, np.random.default_rng(11))
        assert list(sampler.draw(3000)) == [
            reference_key(ref, ref._draws) for _ in range(3000)
        ]


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
        clients = [CountingClient() for _ in range(10)]
        n = 50_000
        workload = _workload(Environment(), clients, total=n, weights=weights)
        _, picked, _, _ = workload.draw_requests(n)
        counts = np.bincount(picked, minlength=10).tolist()
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


def reference_requests(weights, sampler, key_draws, arrivals, rate, total, write_fraction):
    """A run's requests drawn one at a time, in the order the workload drew
    them before it drew blocks: the first gap at the start, then per request
    the client pick, the key, the write check (only with writes) and, but
    after the last request, the next gap."""
    cumulative = np.cumsum(weights.probabilities)
    cumulative[-1] = 1.0
    times, clients, keys, writes = [], [], [], []
    t = 0.0 + arrivals.exponential(1.0 / rate)
    for i in range(total):
        times.append(t)
        clients.append(int(np.searchsorted(cumulative, arrivals.random(), side="right")))
        keys.append(reference_key(sampler, key_draws))
        writes.append(int(bool(write_fraction) and arrivals.random() < write_fraction))
        if i < total - 1:
            t = t + arrivals.exponential(1.0 / rate)
    return times, clients, keys, writes


class TestDrawRequests:
    """``draw_requests`` is the requests drawn one at a time, value for value
    and draw for draw, however a run is cut into blocks."""

    TOTAL = 600

    @pytest.mark.parametrize("batch", [0, 1024], ids=["scalar-keys", "batched-keys"])
    @pytest.mark.parametrize("skew", [None, 0.8], ids=["uniform", "skewed"])
    @pytest.mark.parametrize("write_fraction", [0.0, 0.3])
    @pytest.mark.parametrize("length", [1, 7, 256, TOTAL], ids=lambda n: f"block{n}")
    def test_blocks_draw_what_one_at_a_time_drew(self, length, write_fraction, skew, batch):
        weights = DemandWeights(
            8, skew=skew, rng=np.random.default_rng(2) if skew else None
        )
        keys_gen, ref_keys_gen = np.random.default_rng(5), np.random.default_rng(5)
        arrivals, ref_arrivals = np.random.default_rng(6), np.random.default_rng(6)
        sampler = ZipfSampler(1000, 0.99, BatchedStream(keys_gen, batch))
        ref_key_draws = BatchedStream(ref_keys_gen, batch)
        workload = OpenLoopWorkload(
            Environment(),
            rate=1000.0,
            clients=[CountingClient() for _ in range(8)],
            weights=weights,
            key_sampler=sampler,
            rng=arrivals,
            total_requests=self.TOTAL,
            write_fraction=write_fraction,
        )
        drawn = ([], [], [], [])
        while len(drawn[0]) < self.TOTAL:
            block = workload.draw_requests(min(length, self.TOTAL - len(drawn[0])))
            assert [len(column) for column in block] == [len(block[0])] * 4
            for column, values in zip(drawn, block):
                column.extend(values)
        expected = reference_requests(
            weights, ZipfSampler(1000, 0.99, ref_key_draws), ref_key_draws,
            ref_arrivals, 1000.0, self.TOTAL, write_fraction,
        )
        assert drawn == expected
        assert any(drawn[3]) == bool(write_fraction)
        assert arrivals.bit_generator.state == ref_arrivals.bit_generator.state
        assert keys_gen.bit_generator.state == ref_keys_gen.bit_generator.state
        # The key stream's cursor too: both serve the same next uniform.
        assert sampler._draws.random() == ref_key_draws.random()

    def test_the_arrivals_posted_are_the_requests_drawn(self):
        """``start`` and the arrivals it chains issue the drawn requests at
        the drawn times, across block boundaries."""
        env = Environment()
        issued = []

        class Sink:
            def issue(self, key, record):
                issued.append((env.now, key))

        total = 100
        workload = _workload(env, [Sink()], total=total)
        workload.start()
        env.run()
        twin = _workload(Environment(), [Sink()], total=total)
        times, _, keys, _ = twin.draw_requests(total)
        assert issued == list(zip(times, keys))
