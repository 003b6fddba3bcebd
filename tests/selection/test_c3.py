"""Tests for the C3 selector: scoring, feedback, herd-avoidance behaviour."""

import ast
import copy
import inspect
import math
import textwrap

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.mesoscale.vector import VectorFlowEngine
from repro.network.packet import ServerStatus
from repro.selection.c3 import C3Selector

#: The cubic score as every site spells it.  Float addition is not
#: associative, so a reordered copy ranks near-ties differently.
C3_SCORE = (
    "track.response_time - expected_service + q_hat ** exponent * expected_service"
)


def _status(queue=0, rate=1000.0, t=0.0):
    return ServerStatus(queue_size=queue, service_rate=rate, timestamp=t)


def _selector(**kwargs):
    defaults = dict(
        concurrency_weight=1,
        prior_service_rate=1000.0,
        rng=np.random.default_rng(0),
    )
    defaults.update(kwargs)
    return C3Selector(**defaults)


class TestValidation:
    def test_concurrency_weight_positive(self):
        with pytest.raises(ConfigurationError):
            _selector(concurrency_weight=0)

    def test_prior_rate_positive(self):
        with pytest.raises(ConfigurationError):
            _selector(prior_service_rate=0.0)

    def test_alpha_range(self):
        with pytest.raises(ConfigurationError):
            _selector(ewma_alpha=1.0)

    def test_exponent_range(self):
        with pytest.raises(ConfigurationError):
            _selector(cubic_exponent=0.5)

    def test_empty_candidates(self):
        with pytest.raises(ConfigurationError):
            _selector().select([], 0.0)


class TestScoring:
    def test_cold_servers_score_zero(self):
        selector = _selector()
        assert selector.score("s1") == pytest.approx(0.0)

    def test_outstanding_raises_score(self):
        selector = _selector()
        selector.note_sent("s1", 0.0)
        assert selector.score("s1") > selector.score("s2")

    def test_cubic_scaling(self):
        """Doubling q_hat multiplies the queue term by 8."""
        selector = _selector(concurrency_weight=1)
        tau = 1.0 / 1000.0
        selector.note_sent("s1", 0.0)  # q_hat = 2
        score_two = selector.score("s1") + tau  # strip the -1/mu term
        selector.note_sent("s1", 0.0)
        selector.note_sent("s1", 0.0)  # q_hat = 4
        score_four = selector.score("s1") + tau
        assert score_four / score_two == pytest.approx(8.0)

    def test_concurrency_weight_scales_outstanding(self):
        light = _selector(concurrency_weight=1)
        heavy = _selector(concurrency_weight=10)
        for selector in (light, heavy):
            selector.note_sent("s1", 0.0)
        assert heavy.score("s1") > light.score("s1")

    def test_queue_feedback_raises_score(self):
        selector = _selector()
        selector.note_response("s1", 0.004, _status(queue=10), 0.0)
        selector.note_response("s2", 0.004, _status(queue=0), 0.0)
        assert selector.score("s1") > selector.score("s2")

    def test_latency_feedback_raises_score(self):
        selector = _selector()
        selector.note_response("s1", 0.050, _status(), 0.0)
        selector.note_response("s2", 0.001, _status(), 0.0)
        assert selector.score("s1") > selector.score("s2")

    def test_selects_minimum_score(self):
        selector = _selector()
        selector.note_response("slow", 0.050, _status(queue=8), 0.0)
        selector.note_response("fast", 0.001, _status(queue=0), 0.0)
        assert selector.select(["slow", "fast"], 0.0) == "fast"

    def test_ties_broken_randomly(self):
        selector = _selector()
        picks = {selector.select(["a", "b", "c"], 0.0) for _ in range(100)}
        assert len(picks) > 1

    def test_ties_deterministic_without_rng(self):
        selector = C3Selector(
            concurrency_weight=1, prior_service_rate=1000.0, rng=None
        )
        picks = {selector.select(["a", "b", "c"], 0.0) for _ in range(20)}
        assert picks == {"a"}


class TestScoreSites:
    """The score is spelled out three times: ``score``, the loop inlined in
    ``select`` and the SoA engine's ``_drain_fast``.  All must rank alike."""

    @pytest.mark.parametrize(
        "site",
        [C3Selector.score, C3Selector.select, VectorFlowEngine._drain_fast],
        ids=lambda site: site.__qualname__,
    )
    def test_site_spells_the_score_once(self, site):
        source = ast.unparse(ast.parse(textwrap.dedent(inspect.getsource(site))))
        # score() reads the exponent off the selector; the loops hoist it.
        source = source.replace("self.cubic_exponent", "exponent")
        assert source.count(C3_SCORE) == 1

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 2.5, 3.0])
    @pytest.mark.parametrize("order", [("a", "b"), ("b", "a")], ids="".join)
    def test_select_ranks_near_ties_like_score(self, order, exponent):
        """``b`` is ``a`` nudged up by the fewest ulps that lift its score.
        ``select`` must then prefer ``a`` from either candidate order
        (``rng=None`` breaks a tie toward the first candidate, so a tie
        fails too), whatever cubic exponent the selector is given."""
        for seed in range(2000):
            rng = np.random.default_rng(seed)
            selector = _selector(
                concurrency_weight=int(rng.integers(1, 65)),
                cubic_exponent=exponent,
                rng=None,
            )
            a = selector._track("a")
            a.outstanding = int(rng.integers(0, 2))
            a.queue_size = float(rng.uniform(0.0, 4.0))
            a.service_rate = float(rng.uniform(200.0, 5000.0))
            q_hat = 1.0 + a.outstanding * selector.concurrency_weight + a.queue_size
            a.response_time = float(rng.uniform(0.5, 4.0)) * q_hat / a.service_rate
            b = selector._tracks["b"] = copy.copy(a)
            for _ in range(100_000):
                if selector.score("b") > selector.score("a"):
                    break
                b.response_time = math.nextafter(b.response_time, math.inf)
            else:
                pytest.fail(f"seed {seed}: score did not move within 1e5 ulps")
            assert selector.select(list(order), 0.0) == "a", seed


class TestFeedback:
    def test_outstanding_decrements_on_response(self):
        selector = _selector()
        selector.note_sent("s1", 0.0)
        selector.note_sent("s1", 0.0)
        assert selector.outstanding("s1") == 2
        selector.note_response("s1", 0.001, _status(), 0.0)
        assert selector.outstanding("s1") == 1

    def test_outstanding_clamps_at_zero(self):
        """NetRS clients receive responses they never counted as sent."""
        selector = _selector()
        selector.note_response("s1", 0.001, _status(), 0.0)
        assert selector.outstanding("s1") == 0

    def test_first_feedback_seeds_ewmas(self):
        selector = _selector()
        selector.note_response("s1", 0.007, _status(queue=3, rate=500.0), 0.0)
        track = selector._tracks["s1"]
        assert track.response_time == pytest.approx(0.007)
        assert track.queue_size == pytest.approx(3.0)
        assert track.service_rate == pytest.approx(500.0)

    def test_ewma_smoothing(self):
        selector = _selector(ewma_alpha=0.9)
        selector.note_response("s1", 0.010, _status(), 0.0)
        selector.note_response("s1", 0.020, _status(), 0.0)
        track = selector._tracks["s1"]
        assert track.response_time == pytest.approx(0.9 * 0.010 + 0.1 * 0.020)

    def test_feedback_age(self):
        selector = _selector()
        assert selector.feedback_age("s1", 10.0) == float("inf")
        selector.note_response("s1", 0.001, _status(), 4.0)
        assert selector.feedback_age("s1", 10.0) == pytest.approx(6.0)

    def test_feedback_counter(self):
        selector = _selector()
        for _ in range(5):
            selector.note_response("s1", 0.001, _status(), 0.0)
        assert selector.feedback_updates == 5


class TestBehaviour:
    def test_avoids_momentarily_slow_server(self):
        """After bad feedback, traffic shifts; after recovery, it returns."""
        selector = _selector()
        # s1 reports a deep queue.
        selector.note_response("s1", 0.020, _status(queue=12), 0.0)
        selector.note_response("s2", 0.004, _status(queue=1), 0.0)
        first = [selector.select(["s1", "s2"], 0.0) for _ in range(10)]
        assert all(pick == "s2" for pick in first)
        # s1 recovers (several good reports drive the EWMA down).
        for _ in range(30):
            selector.note_response("s1", 0.001, _status(queue=0), 0.0)
        for _ in range(30):
            selector.note_response("s2", 0.015, _status(queue=9), 0.0)
        later = [selector.select(["s1", "s2"], 0.0) for _ in range(10)]
        assert all(pick == "s1" for pick in later)

    def test_outstanding_spreads_burst(self):
        """A burst without feedback must not herd onto one replica."""
        selector = _selector(concurrency_weight=1)
        picks = []
        for _ in range(9):
            choice = selector.select(["a", "b", "c"], 0.0)
            selector.note_sent(choice, 0.0)
            picks.append(choice)
        assert picks.count("a") == picks.count("b") == picks.count("c") == 3

    def test_rate_limiter_integration(self):
        calls = []

        def factory():
            from repro.selection.rate_control import CubicRateLimiter

            limiter = CubicRateLimiter(initial_rate=10.0)
            calls.append(limiter)
            return limiter

        selector = _selector(rate_limiter_factory=factory)
        choice = selector.select(["a", "b"], 0.0)
        selector.note_sent(choice, 0.0)
        assert len(calls) >= 1
