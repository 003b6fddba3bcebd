"""Workload generation: Zipfian keys, demand skew, open-loop Poisson arrivals.

The paper's workload (section V-A): an **open-loop** aggregate Poisson
arrival process (approximating web-application request arrivals), keys drawn
from a Zipfian distribution (parameter 0.99 over 100 million keys), and an
optional *demand skew* where a given percentage of requests is issued by 20 %
of the clients.
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from math import exp, log1p
from typing import Callable, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.sim.core import Environment
from repro.sim.rng import BatchedStream, DrawSource

#: Requests an :class:`OpenLoopWorkload` draws ahead.  A block is held all
#: run, at about 25 B a request; at 16 the draw's own calls add under half a
#: call a request.  No length changes a value.
BLOCK_REQUESTS = 16


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
        """The reference inverse of ``_h_integral``; ``draw`` inlines it."""
        t = x * (1.0 - self.s)
        if t < -1.0:
            t = -1.0  # numerical guard near the distribution head
        # log1p(t) / t, with a stable expansion near zero.
        if abs(t) > 1e-8:
            return math.exp(math.log1p(t) / t * x)
        return math.exp((1.0 - t * (0.5 - t * (1.0 / 3.0 - 0.25 * t))) * x)

    def draw(self, count: int) -> array:
        """Draw the next ``count`` keys in ``{1..n}``, as ``array("q")``.

        A batched source's pre-drawn block is read in place and refilled
        where its ``random()`` would refill it; any other source (a raw
        generator, ``block_size=0``) serves one ``random()`` a try.
        """
        source = self._draws
        stream = source if isinstance(source, BatchedStream) and source.block_size else None
        block: Sequence[float] = ()
        pos = 0
        if stream is not None:
            stream._lock("uniform")  # the lock its first random() takes
            block, pos = stream._block, stream._pos
        size = len(block)
        n, h_n, threshold = self.n, self._h_n, self._threshold
        span = self._h_x1 - h_n
        one_minus_s = 1.0 - self.s
        keys = array("q", [0]) * count
        for i in range(count):
            while True:
                if pos >= size:
                    if stream is not None:
                        stream._refill()
                        block = stream._block
                    else:
                        block = (source.random(),)
                    pos, size = 0, len(block)
                u = h_n + block[pos] * span
                pos += 1
                # Inlined _h_integral_inverse(u).
                t = u * one_minus_s
                if t < -1.0:
                    t = -1.0
                if abs(t) > 1e-8:
                    x = exp(log1p(t) / t * u)
                else:
                    x = exp((1.0 - t * (0.5 - t * (1.0 / 3.0 - 0.25 * t))) * u)
                k = int(x + 0.5)
                if k < 1:
                    k = 1
                elif k > n:
                    k = n
                if k - x <= threshold or u >= self._h_integral(k + 0.5) - self._h(k):
                    keys[i] = k
                    break
        if stream is not None:
            stream._pos = pos
        return keys


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
        cumulative = np.cumsum(weights)
        # Guard against floating-point drift in the final bin.
        cumulative[-1] = 1.0
        # Python floats for the client pick's bisect (OpenLoopWorkload.
        # draw_requests), which is np.searchsorted(..., side="right").
        self._cumulative = cumulative.tolist()

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


#: Requests row for row: arrival times, client indexes, keys, write flags.
RequestBlock = Tuple[array, array, array, bytearray]

_NO_REQUESTS: RequestBlock = (array("d"), array("q"), array("q"), bytearray())


class OpenLoopWorkload:
    """Aggregate Poisson arrivals fanned out to clients by demand weight.

    Every engine reads its requests from :meth:`draw_requests`, drawn ahead
    (an open-loop arrival does not depend on system state): this class posts
    arrivals from blocks of :data:`BLOCK_REQUESTS`, the SoA engine drains
    blocks of its own.  The arrival stream interleaves distribution families
    on one generator (exponential gap, uniform client pick, uniform write
    check), so it stays on raw scalar draws: a
    :class:`~repro.sim.rng.BatchedStream` or a ``size=`` block would consume
    the bitstream in another order (numpy's exponential takes a varying
    number of words a draw).  ``tests/sim/test_hot_draws.py`` allows these
    three scalar draws and no other in the per-request packages.
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
        "_time",
        "_block",
        "_row",
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
        self._time = env.now  # the last arrival drawn
        self._block = _NO_REQUESTS
        self._row = 0

    def draw_requests(self, count: int) -> RequestBlock:
        """Draw the next ``count`` requests (see :data:`RequestBlock`).

        Per request, the arrival stream draws the gap from the previous
        arrival, the client pick and, only when ``write_fraction > 0``, the
        write check; keys come from the key sampler's own stream.  Block
        lengths cannot reorder a stream's draws.
        """
        rng = self._rng
        cumulative = self.weights._cumulative
        scale = 1.0 / self.rate
        write_fraction = self.write_fraction
        times = array("d", [0.0]) * count
        clients = array("q", [0]) * count
        writes = bytearray(count)
        t = self._time
        for i in range(count):
            t = t + rng.exponential(scale)
            times[i] = t
            clients[i] = bisect_right(cumulative, rng.random())
            if write_fraction and rng.random() < write_fraction:
                writes[i] = 1
        self._time = t
        return times, clients, self.key_sampler.draw(count), writes

    def start(self) -> None:
        """Schedule the first arrival, one gap after the clock's now."""
        self._time = self.env.now
        self.env.post_at(self._next_block()[0], self._arrival)

    def _next_block(self) -> array:
        """Draw the requests from ``issued`` on; return their arrival times."""
        self._block = _NO_REQUESTS  # hold one block at a time
        self._block = self.draw_requests(
            min(BLOCK_REQUESTS, self.total_requests - self.issued)
        )
        self._row = 0
        return self._block[0]

    def _arrival(self) -> None:
        row = self._row
        times, clients, keys, writes = self._block
        index = clients[row]
        key = keys[row]
        record = self.issued >= self.warmup_requests
        self.per_client_counts[index] += 1
        self.issued += 1
        if writes[row]:
            self.writes_issued += 1
            self.clients[index].issue_write(key, record=record)
        else:
            self.clients[index].issue(key, record=record)
        if self.issued < self.total_requests:
            row += 1
            # Every block but the last, which the run ends in, is full.
            if row < BLOCK_REQUESTS:
                self._row = row
                self.env.post_at(times[row], self._arrival)
            else:
                del times, clients, keys, writes
                self.env.post_at(self._next_block()[0], self._arrival)
        else:
            self._block = _NO_REQUESTS  # spent: keep it off the drain's peak
            if self.on_finished is not None:
                self.on_finished()
