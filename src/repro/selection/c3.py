"""The C3 replica-selection algorithm (Suresh et al., NSDI 2015).

C3 is the state of the art the paper builds on: every scheme in the
evaluation (CliRS and the NetRS variants alike) runs C3 at its RSNodes.

Per candidate server ``s`` the RSNode tracks:

* ``os_s``  -- requests it sent to ``s`` that are still outstanding,
* ``R_s``   -- EWMA of observed response times,
* ``q_s``   -- EWMA of piggybacked queue sizes,
* ``mu_s``  -- EWMA of piggybacked service rates.

The *extrapolated* queue size scales local outstanding counts by the number
of concurrent RSNodes ``n`` (each of which is presumed to contribute a
similar load): ``q_hat = 1 + os_s * n + q_s``.  The replica minimizing the
cubic scoring function

    psi_s = R_s - 1/mu_s + q_hat^3 / mu_s

is selected.  The cubic exponent penalizes long queues steeply, which is what
lets C3 back off from momentarily slow servers without starving them.

The ``concurrency_weight`` is exactly where NetRS wins: with hundreds of
client RSNodes the extrapolation is coarse and feedback is sparse, while a
handful of in-network RSNodes see most of the traffic (fresh EWMAs) and herd
less.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.network.packet import ServerStatus
from repro.selection.base import ReplicaSelector
from repro.selection.rate_control import CubicRateLimiter


@dataclass(slots=True)
class _ServerTrack:
    outstanding: int = 0
    response_time: float = 0.0  # EWMA, seconds
    queue_size: float = 0.0  # EWMA of piggybacked queue sizes
    service_rate: float = 0.0  # EWMA of piggybacked rates, req/s
    feedback_count: int = 0
    last_feedback_at: float = -1.0


class C3Selector(ReplicaSelector):
    """Cubic replica selection with EWMA feedback tracking."""

    algorithm_name = "c3"

    def __init__(
        self,
        *,
        concurrency_weight: int = 1,
        prior_service_rate: float,
        ewma_alpha: float = 0.9,
        cubic_exponent: float = 3.0,
        rng: Optional[np.random.Generator] = None,
        rate_limiter_factory: Optional[Callable[[], CubicRateLimiter]] = None,
    ) -> None:
        super().__init__(rng=rng)
        if concurrency_weight < 1:
            raise ConfigurationError("concurrency_weight must be >= 1")
        if prior_service_rate <= 0:
            raise ConfigurationError("prior_service_rate must be positive")
        if not 0 <= ewma_alpha < 1:
            raise ConfigurationError("ewma_alpha must be in [0, 1)")
        if cubic_exponent < 1:
            raise ConfigurationError("cubic_exponent must be >= 1")
        self.concurrency_weight = concurrency_weight
        self.prior_service_rate = prior_service_rate
        self.ewma_alpha = ewma_alpha
        self.cubic_exponent = cubic_exponent
        self._rate_limiter_factory = rate_limiter_factory
        self._tracks: Dict[str, _ServerTrack] = {}
        self._limiters: Dict[str, CubicRateLimiter] = {}
        self.feedback_updates = 0

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------
    def _track(self, server: str) -> _ServerTrack:
        """``server``'s track, made on first contact.  The per-request callers
        (``score``, ``select``, ``note_sent``, ``note_response``) probe
        ``_tracks`` themselves and call this only on a miss."""
        track = self._tracks.get(server)
        if track is None:
            track = _ServerTrack(service_rate=self.prior_service_rate)
            self._tracks[server] = track
        return track

    def score(self, server: str) -> float:
        """The cubic scoring function psi for one server (lower is better)."""
        track = self._tracks.get(server)
        if track is None:
            track = self._track(server)
        rate = track.service_rate if track.service_rate > 0 else self.prior_service_rate
        expected_service = 1.0 / rate
        q_hat = 1.0 + track.outstanding * self.concurrency_weight + track.queue_size
        return (
            track.response_time
            - expected_service
            + (q_hat**self.cubic_exponent) * expected_service
        )

    def select(self, candidates: Sequence[str], now: float) -> str:
        """Pick the candidate with the lowest cubic score."""
        if not candidates:
            raise ConfigurationError("select() needs at least one candidate")
        self.selections += 1
        pool: Sequence[str] = candidates
        if self._rate_limiter_factory is not None:
            ready = [s for s in pool if self._limiter(s).may_send(now)]
            if ready:
                pool = ready
        # Single pass: track the first minimum and collect ties lazily
        # (scoring every candidate runs once per request).  The scoring
        # formula is inlined from score() -- same operations in the same
        # order, minus one method call and repeated attribute loads per
        # candidate.
        tracks = self._tracks
        prior = self.prior_service_rate
        weight = self.concurrency_weight
        exponent = self.cubic_exponent
        best: Optional[str] = None
        best_score = float("inf")
        winners = None
        for server in pool:
            track = tracks.get(server)
            if track is None:
                track = self._track(server)
            rate = track.service_rate
            if not rate > 0:
                rate = prior
            expected_service = 1.0 / rate
            q_hat = 1.0 + track.outstanding * weight + track.queue_size
            score = (
                track.response_time
                - expected_service
                + (q_hat**exponent) * expected_service
            )
            if score < best_score:
                best = server
                best_score = score
                winners = None
            elif score == best_score:
                if winners is None:
                    winners = [best]
                winners.append(server)
        if winners is None:
            return best  # type: ignore[return-value]
        return self._tie_break(winners)

    # ------------------------------------------------------------------
    # Feedback
    # ------------------------------------------------------------------
    def note_sent(self, server: str, now: float) -> None:
        """Count an in-flight request toward ``server``."""
        track = self._tracks.get(server)
        if track is None:
            track = self._track(server)
        track.outstanding += 1
        if self._rate_limiter_factory is not None:
            self._limiter(server).on_send(now)

    def note_response(
        self, server: str, latency: float, status: ServerStatus, now: float
    ) -> None:
        """Fold one piggybacked feedback sample into the EWMAs."""
        track = self._tracks.get(server)
        if track is None:
            track = self._track(server)
        if track.outstanding > 0:
            # NetRS clients receive responses for requests they never counted
            # as sent (the RSNode did); clamp instead of going negative.
            track.outstanding -= 1
        alpha = self.ewma_alpha
        if track.feedback_count == 0:
            track.response_time = latency
            track.queue_size = float(status.queue_size)
            track.service_rate = status.service_rate
        else:
            track.response_time = alpha * track.response_time + (1 - alpha) * latency
            track.queue_size = (
                alpha * track.queue_size + (1 - alpha) * status.queue_size
            )
            track.service_rate = (
                alpha * track.service_rate + (1 - alpha) * status.service_rate
            )
        track.feedback_count += 1
        track.last_feedback_at = now
        self.feedback_updates += 1
        if self._rate_limiter_factory is not None:
            self._limiter(server).on_receive(now)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def outstanding(self, server: str) -> int:
        """Currently tracked in-flight requests to ``server``."""
        return self._track(server).outstanding

    def feedback_age(self, server: str, now: float) -> float:
        """Seconds since the last feedback from ``server`` (inf if never)."""
        track = self._track(server)
        if track.last_feedback_at < 0:
            return float("inf")
        return now - track.last_feedback_at

    def _limiter(self, server: str) -> CubicRateLimiter:
        limiter = self._limiters.get(server)
        if limiter is None:
            assert self._rate_limiter_factory is not None
            limiter = self._rate_limiter_factory()
            self._limiters[server] = limiter
        return limiter
