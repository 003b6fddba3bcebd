"""Workload generation: Zipfian keys, demand skew, open-loop Poisson arrivals.

The paper's workload (section V-A): an **open-loop** aggregate Poisson
arrival process (approximating web-application request arrivals), keys drawn
from a Zipfian distribution (parameter 0.99 over 100 million keys), and an
optional *demand skew* where a given percentage of requests is issued by 20 %
of the clients.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Callable, List, Optional, Protocol, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.core import Environment
from repro.sim.rng import DrawSource


class ZipfSampler:
    """Bounded Zipf(s, N) sampler via rejection-inversion (Hoermann & Derflinger).

    Draws from ``P(k) ~ k^-s`` for ``k in {1..n}`` in O(1) expected time with
    no O(n) table, which matters for the paper's 100-million-key space.
    """

    __slots__ = ("n", "s", "_draws", "_h_x1", "_h_n", "_threshold")

    def __init__(self, n: int, s: float, rng: DrawSource) -> None:
        if n < 1:
            raise ConfigurationError(f"key space must be >= 1, got {n}")
        if s <= 0:
            raise ConfigurationError(f"Zipf exponent must be positive, got {s}")
        self.n = n
        self.s = s
        self._draws = rng
        self._h_x1 = self._h_integral(1.5) - 1.0
        self._h_n = self._h_integral(n + 0.5)
        self._threshold = 2.0 - self._h_integral_inverse(
            self._h_integral(2.5) - self._h(2.0)
        )

    def _h_integral(self, x: float) -> float:
        log_x = math.log(x)
        return _helper2((1.0 - self.s) * log_x) * log_x

    def _h(self, x: float) -> float:
        return math.exp(-self.s * math.log(x))

    def _h_integral_inverse(self, x: float) -> float:
        """The reference inverse of ``_h_integral``; ``sample`` inlines it."""
        t = x * (1.0 - self.s)
        if t < -1.0:
            t = -1.0  # numerical guard near the distribution head
        # log1p(t) / t, with a stable expansion near zero.
        if abs(t) > 1e-8:
            return math.exp(math.log1p(t) / t * x)
        return math.exp((1.0 - t * (0.5 - t * (1.0 / 3.0 - 0.25 * t))) * x)

    def sample(self) -> int:
        """Draw one key in ``{1..n}``."""
        while True:
            u = self._h_n + self._draws.random() * (self._h_x1 - self._h_n)
            # Inlined _h_integral_inverse(u): one draw per request.
            t = u * (1.0 - self.s)
            if t < -1.0:
                t = -1.0
            if abs(t) > 1e-8:
                x = math.exp(math.log1p(t) / t * u)
            else:
                x = math.exp((1.0 - t * (0.5 - t * (1.0 / 3.0 - 0.25 * t))) * u)
            k = int(x + 0.5)
            if k < 1:
                k = 1
            elif k > self.n:
                k = self.n
            if k - x <= self._threshold or u >= self._h_integral(k + 0.5) - self._h(k):
                return k


def _helper2(x: float) -> float:
    """``expm1(x) / x`` with a stable expansion near zero."""
    if abs(x) > 1e-8:
        return math.expm1(x) / x
    return 1.0 + x * 0.5 * (1.0 + x / 3.0 * (1.0 + 0.25 * x))


class DemandWeights:
    """Per-client request probabilities, optionally skewed.

    ``skew`` is the paper's demand-skew metric: the fraction of all requests
    issued by ``hot_fraction`` (default 20 %) of the clients.  ``skew=None``
    means uniform demand.  Which clients are hot is drawn from ``rng``.
    """

    __slots__ = (
        "n_clients",
        "skew",
        "hot_fraction",
        "hot_clients",
        "probabilities",
        "_cumulative",
        "_cumulative_list",
    )

    def __init__(
        self,
        n_clients: int,
        *,
        skew: Optional[float] = None,
        hot_fraction: float = 0.2,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if n_clients < 1:
            raise ConfigurationError("need at least one client")
        if skew is not None:
            if not 0.0 < skew < 1.0:
                raise ConfigurationError(f"skew must be in (0, 1), got {skew}")
            if not 0.0 < hot_fraction < 1.0:
                raise ConfigurationError(
                    f"hot_fraction must be in (0, 1), got {hot_fraction}"
                )
            if rng is None:
                raise ConfigurationError("skewed demand requires an rng")
        self.n_clients = n_clients
        self.skew = skew
        self.hot_fraction = hot_fraction
        self.hot_clients: List[int] = []

        weights = np.full(n_clients, 1.0 / n_clients)
        if skew is not None:
            n_hot = max(1, round(hot_fraction * n_clients))
            if n_hot >= n_clients:
                raise ConfigurationError("hot_fraction leaves no cold clients")
            hot = rng.choice(n_clients, size=n_hot, replace=False)
            self.hot_clients = sorted(int(i) for i in hot)
            weights = np.full(n_clients, (1.0 - skew) / (n_clients - n_hot))
            weights[self.hot_clients] = skew / n_hot
        self.probabilities = weights
        self._cumulative = np.cumsum(weights)
        # Guard against floating-point drift in the final bin.
        self._cumulative[-1] = 1.0
        # Python-float copy for bisect: same values, no per-sample ufunc
        # dispatch (bisect_right == np.searchsorted(..., side="right")).
        self._cumulative_list = self._cumulative.tolist()

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one client index according to the demand distribution.

        ``rng`` is the caller's stream: the open-loop driver interleaves
        this uniform draw with its exponential gaps on one generator, which
        is exactly the mixed-family pattern BatchedStream cannot serve.
        """
        return bisect_right(self._cumulative_list, rng.random())  # scalar: see OpenLoopWorkload

    def achieved_skew(self, counts: Sequence[int]) -> float:
        """Fraction of requests issued by the hot clients in ``counts``."""
        total = sum(counts)
        if total == 0:
            return math.nan
        hot = self.hot_clients or range(0)
        return sum(counts[i] for i in hot) / total


class RequestSink(Protocol):
    """What the workload drives: a client that can issue a keyed request."""

    def issue(self, key: int, record: bool) -> None:
        """Issue one read request for ``key``."""
        ...  # pragma: no cover - protocol definition

    def issue_write(self, key: int, record: bool) -> None:
        """Issue one replicated write for ``key`` (mixed workloads only)."""
        ...  # pragma: no cover - protocol definition


class OpenLoopWorkload:
    """Aggregate Poisson arrivals fanned out to clients by demand weight.

    The arrival stream interleaves three distribution families on one
    generator (exponential gaps, the uniform weight pick, the uniform
    write-fraction check), so it must stay on a raw scalar generator: a
    :class:`~repro.sim.rng.BatchedStream` would consume the bitstream in a
    different order and change every downstream draw.  These scalar draws,
    and the SoA engine's copy of them, are the only ones
    ``tests/sim/test_hot_draws.py`` allows in the per-request packages.
    """

    __slots__ = (
        "env",
        "rate",
        "clients",
        "weights",
        "key_sampler",
        "_rng",
        "total_requests",
        "warmup_requests",
        "write_fraction",
        "on_finished",
        "issued",
        "writes_issued",
        "per_client_counts",
    )

    def __init__(
        self,
        env: Environment,
        *,
        rate: float,
        clients: Sequence[RequestSink],
        weights: DemandWeights,
        key_sampler: ZipfSampler,
        rng: np.random.Generator,
        total_requests: int,
        warmup_requests: int = 0,
        write_fraction: float = 0.0,
        on_finished: Optional[Callable[[], None]] = None,
    ) -> None:
        if rate <= 0:
            raise ConfigurationError(f"arrival rate must be positive, got {rate}")
        if not 0 <= write_fraction < 1:
            raise ConfigurationError("write_fraction must be in [0, 1)")
        if total_requests < 1:
            raise ConfigurationError("total_requests must be >= 1")
        if not 0 <= warmup_requests < total_requests:
            raise ConfigurationError(
                "warmup_requests must be in [0, total_requests)"
            )
        if weights.n_clients != len(clients):
            raise ConfigurationError(
                f"weights cover {weights.n_clients} clients, got {len(clients)}"
            )
        self.env = env
        self.rate = rate
        self.clients = list(clients)
        self.weights = weights
        self.key_sampler = key_sampler
        self._rng = rng
        self.total_requests = total_requests
        self.warmup_requests = warmup_requests
        self.write_fraction = write_fraction
        self.on_finished = on_finished
        self.issued = 0
        self.writes_issued = 0
        self.per_client_counts = [0] * len(clients)

    def start(self) -> None:
        """Schedule the first arrival."""
        self.env.post_in(self._rng.exponential(1.0 / self.rate), self._arrival)  # scalar: see OpenLoopWorkload

    def _arrival(self) -> None:
        index = self.weights.sample(self._rng)
        key = self.key_sampler.sample()
        record = self.issued >= self.warmup_requests
        self.per_client_counts[index] += 1
        self.issued += 1
        if self.write_fraction and self._rng.random() < self.write_fraction:  # scalar: see OpenLoopWorkload
            self.writes_issued += 1
            self.clients[index].issue_write(key, record=record)
        else:
            self.clients[index].issue(key, record=record)
        if self.issued < self.total_requests:
            self.env.post_in(self._rng.exponential(1.0 / self.rate), self._arrival)  # scalar: see OpenLoopWorkload
        elif self.on_finished is not None:
            self.on_finished()
