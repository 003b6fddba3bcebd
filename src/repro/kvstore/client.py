"""Key-value clients: request issuing, feedback, and redundant requests.

A client is an end-host endpoint that turns workload arrivals into requests
and records response latencies.  Depending on the scheme it either

* **selects the replica itself** (CliRS: the client is the RSNode, running a
  replica-selection algorithm over its locally observed feedback), or
* **delegates to NetRS** (sends a NetRS request carrying the RGID plus a
  client-chosen *backup replica* used if the network degrades the request).

The optional :class:`RedundancyPolicy` reproduces CliRS-R95 (section V-A): if
a primary request is outstanding longer than the client's 95th-percentile
expected latency, a redundant copy goes to a different replica and the first
response wins.

The read path exists once, in :class:`ClientCore`: issue, the R95 duplicate,
timeout / backoff / retry and the response fold, written against a clock
(``env.now``, ``env.call_in``) and two injected callables -- ``transmit``
puts one copy of a request on the wire, ``completed`` reports a request's
terminal state.  Two drivers run that body: :class:`KVClient` on the packet
fabric, which also owns everything that only exists as packets (writes,
quorum reads, digests, read-repair, trace sinks), and the flow engine
(:mod:`repro.mesoscale.flow`), whose ``transmit`` prices the path in closed
form.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.kvstore.hashing import ConsistentHashRing
from repro.network.host import Host
from repro.network.packet import Packet, ServerStatus, make_request
from repro.selection.base import ReplicaSelector
from repro.sim.core import Environment
from repro.sim.probes import LatencyRecorder
from repro.sim.rng import DrawSource

#: Cap on the exponential retry backoff, as a multiple of the base timeout:
#: the k-th retransmission waits ``min(2**k, _BACKOFF_CAP) * request_timeout``
#: before timing out again.  Fixed rather than configurable -- the cap only
#: bounds pathological schedules, it is not a tuning knob (docs/FAULTS.md).
_BACKOFF_CAP = 8.0


@dataclass(slots=True)
class RedundancyPolicy:
    """CliRS-R95 parameters.

    ``percentile`` is the outstanding-time threshold (the paper uses the
    95th); ``min_samples`` delays redundancy until the client has enough
    history for a stable estimate; ``fallback_multiplier`` times the mean
    issues the threshold before that.  ``cold_start_mean`` stands in for
    the mean before the first response: a simulated time, so the scenario
    derives it from the service time (``2.5 * t_kv``, 10 ms at the paper's
    4 ms) and a run scaled in time scales it too.
    """

    percentile: float = 95.0
    min_samples: int = 30
    fallback_multiplier: float = 3.0
    cold_start_mean: float = 10e-3


class _QuorumState:
    """Per-read quorum bookkeeping; allocated only when ``read_quorum > 1``.

    Kept out of :class:`_Outstanding` so the single-replica read path (the
    default, and the only path the flow tier drives) allocates nothing new.
    ``versions`` collects ``(server, (version_ts, version_id))`` in arrival
    order -- deterministic, since packet deliveries are.
    """

    __slots__ = ("needed", "responses", "versions", "data_seen",
                 "data_server", "data_packet")

    def __init__(self, needed: int) -> None:
        self.needed = needed
        self.responses = 0
        self.versions: List[Tuple[str, Tuple[float, int]]] = []
        self.data_seen = False
        self.data_server = ""
        self.data_packet: Optional[Packet] = None


@dataclass(slots=True)
class _Outstanding:
    key: int
    rgid: int
    replicas: Tuple[str, ...]
    issued_at: float
    record: bool
    primary_target: str  # "" when NetRS selects in-network
    done: bool = False
    timer: object = None
    duplicates_sent: int = 0
    is_write: bool = False
    is_repair: bool = False  # read-repair write: no metrics, no tracker
    acks_needed: int = 1
    acks_received: int = 0
    copies_sent: int = 1
    quorum: Optional[_QuorumState] = None  # read-quorum state (R > 1 only)
    # Timeout/retry state (read path only; see docs/FAULTS.md).
    attempts: int = 0
    timeout_timer: object = None
    tried: Tuple[str, ...] = ()
    late_seen: int = 0


class CompletionTracker:
    """Counts first responses so the runner knows when the run is over."""

    __slots__ = ("expected", "completed", "_callbacks")

    def __init__(self, expected: int) -> None:
        if expected < 1:
            raise ConfigurationError("expected completions must be >= 1")
        self.expected = expected
        self.completed = 0
        self._callbacks: List[Callable[[], None]] = []

    def when_done(self, callback: Callable[[], None]) -> None:
        """Register a callback for the moment the last request completes."""
        self._callbacks.append(callback)

    def complete(self) -> None:
        """Record one request completion."""
        self.completed += 1
        if self.completed == self.expected:
            for callback in self._callbacks:
                callback()


#: ``transmit(client, request_id, entry, target)``: put one copy of the read on
#: the wire, toward ``target`` (under NetRS the backup replica: the RSNode
#: makes the real choice).
Transmit = Callable[["ClientCore", int, _Outstanding, str], None]
#: ``completed()``: one of the client's requests reached its terminal state
#: (its first response arrived, or its retry budget ran out).
Completed = Callable[[], None]


class ClientCore:
    """The client read path: issue, R95 duplicate, timeout/retry, response fold.

    ``env`` is anything with the clock surface ``now`` / ``call_in`` (an
    :class:`~repro.sim.core.Environment` or a flow engine).  Timer handles
    are cancelled on completion where the clock hands them out; a clock whose
    ``call_in`` returns ``None`` leaves its timers to fire and find the
    entry ``done``.
    """

    __slots__ = (
        "env",
        "name",
        "ring",
        "selector",
        "recorder",
        "netrs",
        "redundancy",
        "_draws",
        "_request_ids",
        "_transmit",
        "_completed",
        "_outstanding",
        "_history",
        "_cached_threshold",
        "_samples_since_refresh",
        "requests_sent",
        "redundant_sent",
        "responses_received",
        "late_responses",
        "request_timeout",
        "max_retries",
        "timeouts",
        "retries",
        "requests_lost",
        "duplicates_suppressed",
    )

    def __init__(
        self,
        env: Environment,
        name: str,
        *,
        ring: ConsistentHashRing,
        selector: ReplicaSelector,
        recorder: LatencyRecorder,
        transmit: Transmit,
        completed: Completed,
        netrs: bool = False,
        redundancy: Optional[RedundancyPolicy] = None,
        rng: Optional[DrawSource] = None,
        request_timeout: Optional[float] = None,
        max_retries: int = 0,
        request_ids: Optional[Iterator[int]] = None,
    ) -> None:
        if redundancy is not None and netrs:
            raise ConfigurationError(
                "redundant requests are a client-side scheme (CliRS-R95); "
                "combine them with netrs=False"
            )
        if request_timeout is not None and request_timeout <= 0:
            raise ConfigurationError("request_timeout must be positive")
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        self.env = env
        self.name = name
        self.ring = ring
        self.selector = selector
        self.recorder = recorder
        self.netrs = netrs
        self.redundancy = redundancy
        self._draws = rng
        # Request IDs feed the ECMP flow key and break LWW version ties, so
        # they must be unique among the clients of one scenario, which pass
        # one shared counter, and must not depend on anything outside it.
        self._request_ids = (
            request_ids if request_ids is not None else itertools.count(1)
        )
        self._transmit = transmit
        self._completed = completed
        self._outstanding: Dict[int, _Outstanding] = {}
        # Client-local latency history for the R95 threshold, the one reader
        # of it: a client without a redundancy policy keeps none.  The
        # threshold is cached and refreshed periodically so issuing stays O(1).
        self._history: Optional[LatencyRecorder] = (
            LatencyRecorder() if redundancy is not None else None
        )
        self._cached_threshold: Optional[float] = None
        self._samples_since_refresh = 0
        # Timeout/retry policy (see docs/FAULTS.md): with a timeout set, a
        # request unanswered for request_timeout seconds is retransmitted up
        # to max_retries times with capped exponential backoff, then given
        # up on (counted in requests_lost).
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        # Accounting
        self.requests_sent = 0
        self.redundant_sent = 0
        self.responses_received = 0
        self.late_responses = 0
        self.timeouts = 0
        self.retries = 0
        self.requests_lost = 0
        self.duplicates_suppressed = 0

    # ------------------------------------------------------------------
    # Issuing
    # ------------------------------------------------------------------
    def issue(self, key: int, record: bool = True) -> int:
        """Issue one read request for ``key``; returns the request ID."""
        rgid, replicas = self.ring.group_for_key(key)
        request_id = next(self._request_ids)
        now = self.env.now
        target = self.selector.select(replicas, now)
        if self.netrs:
            # The client only supplies the backup replica; the in-network
            # RSNode makes the real choice.
            primary_target = ""
        else:
            self.selector.note_sent(target, now)
            primary_target = target
        entry = _Outstanding(key, rgid, replicas, now, record, primary_target)
        if primary_target:
            entry.tried = (primary_target,)
        self._outstanding[request_id] = entry
        self.requests_sent += 1
        self._transmit(self, request_id, entry, target)
        if self.redundancy is not None:
            entry.timer = self.env.call_in(
                self._redundancy_threshold(), self._fire_redundant, request_id
            )
        if self.request_timeout is not None:
            # Arming a timer that never fires leaves results byte-identical:
            # extra schedule entries only bump the monotone sequence counter,
            # and cancelled timers neither run nor count as events.
            entry.timeout_timer = self.env.call_in(
                self.request_timeout, self._on_timeout, request_id
            )
        return request_id

    def _redundancy_threshold(self) -> float:
        policy = self.redundancy
        if len(self._history) >= policy.min_samples:
            if self._cached_threshold is None or self._samples_since_refresh >= 25:
                self._cached_threshold = self._history.percentile(policy.percentile)
                self._samples_since_refresh = 0
            return self._cached_threshold
        mean = self._history.mean()
        if mean != mean:
            # NaN, no history at all yet: be generous so cold starts do not
            # flood the servers with duplicates.
            return policy.fallback_multiplier * policy.cold_start_mean
        return policy.fallback_multiplier * mean

    def _fire_redundant(self, request_id: int) -> None:
        entry = self._outstanding.get(request_id)
        if entry is None or entry.done:
            return
        others = [r for r in entry.replicas if r != entry.primary_target]
        if not others:
            return
        if self._draws is not None and len(others) > 1:
            target = others[int(self._draws.integers(len(others)))]
        else:
            target = others[0]
        self.selector.note_sent(target, self.env.now)
        entry.duplicates_sent += 1
        self.redundant_sent += 1
        self._transmit(self, request_id, entry, target)

    # ------------------------------------------------------------------
    # Timeouts & retries (see docs/FAULTS.md)
    # ------------------------------------------------------------------
    def _on_timeout(self, request_id: int) -> None:
        entry = self._outstanding.get(request_id)
        if entry is None or entry.done:
            return
        self.timeouts += 1
        if entry.attempts >= self.max_retries:
            # Retry budget exhausted: the request is *lost*.  No latency
            # sample is recorded, but the run still hears of its terminal
            # state, so it terminates instead of stalling on a dead server.
            entry.done = True
            self.requests_lost += 1
            del self._outstanding[request_id]
            self._completed()
            return
        entry.attempts += 1
        self.retries += 1
        now = self.env.now
        if self.netrs:
            # Re-enter the NetRS path with a fresh backup choice; the
            # in-network RSNode re-selects (it may know the primary is slow
            # by now -- exactly the aggregated-feedback advantage).
            target = self.selector.select(entry.replicas, now)
        else:
            # Prefer replicas not yet tried (RepNet-style retry discipline:
            # a timed-out server is the worst candidate for the retry); once
            # every replica has been tried, select over the full set again.
            untried = tuple(r for r in entry.replicas if r not in entry.tried)
            candidates = untried or entry.replicas
            if len(candidates) > 1:
                target = self.selector.select(candidates, now)
            else:
                target = candidates[0]
            entry.tried = entry.tried + (target,)
            entry.primary_target = target
            self.selector.note_sent(target, now)
        self.requests_sent += 1
        self._transmit(self, request_id, entry, target)
        delay = self.request_timeout * min(2.0 ** entry.attempts, _BACKOFF_CAP)
        entry.timeout_timer = self.env.call_in(delay, self._on_timeout, request_id)

    # ------------------------------------------------------------------
    # Responses
    # ------------------------------------------------------------------
    def handle_response(
        self, request_id: int, server: str, status: Optional[ServerStatus]
    ) -> None:
        """Fold one read response into selector feedback, state and metrics."""
        self.responses_received += 1
        now = self.env.now
        entry = self._outstanding.get(request_id)
        # Feedback always updates the local selector: in CliRS this is the
        # decision input, in NetRS it keeps the backup choice fresh.
        if status is not None and entry is not None:
            self.selector.note_response(server, now - entry.issued_at, status, now)
        if entry is None or entry.done:
            self._late_response(request_id, entry)
            return
        entry.done = True
        latency = now - entry.issued_at
        history = self._history
        if history is not None:
            history.add(latency)
            self._samples_since_refresh += 1
        if entry.record:
            self.recorder.add(latency)
        if entry.timer is not None:
            entry.timer.cancel()  # type: ignore[attr-defined]
        if entry.timeout_timer is not None:
            entry.timeout_timer.cancel()  # type: ignore[attr-defined]
        # Keep duplicates findable until their responses arrive, but free
        # completed singletons immediately to bound memory.
        if entry.duplicates_sent == 0 and entry.attempts == 0:
            del self._outstanding[request_id]
        self._completed()

    def _late_response(
        self, request_id: int, entry: Optional[_Outstanding]
    ) -> None:
        """Count a response that completes nothing.

        With an entry it is a losing copy of a duplicated or retransmitted
        request: the first response completed the request, later ones only
        update selector feedback (done by the caller) and counters.
        """
        self.late_responses += 1
        if entry is not None:
            if entry.attempts:
                self.duplicates_suppressed += 1
            entry.late_seen += 1
            if entry.late_seen >= entry.duplicates_sent + entry.attempts:
                # All possible extra responses are in; drop the entry.
                # (Copies swallowed by a dead server or link never arrive,
                # so their entries are kept until run end.)
                self._outstanding.pop(request_id, None)


def _untracked() -> None:
    """``completed`` of a client no tracker counts."""


class KVClient(ClientCore):
    """One client endpoint on the packet fabric: the wire edge of the read
    path, plus the consistency protocol (docs/CONSISTENCY.md)."""

    __slots__ = (
        "host",
        "tracker",
        "write_recorder",
        "write_quorum",
        "read_quorum",
        "trace_sink",
        "writes_completed",
        "write_failures",
        "stale_reads",
        "read_repairs",
        "repair_writes_sent",
        "quorum_degraded_reads",
        "digest_probes_sent",
    )

    def __init__(
        self,
        env: Environment,
        host: Host,
        *,
        ring: ConsistentHashRing,
        selector: ReplicaSelector,
        recorder: LatencyRecorder,
        tracker: Optional[CompletionTracker] = None,
        netrs: bool = False,
        redundancy: Optional[RedundancyPolicy] = None,
        rng: Optional[DrawSource] = None,
        write_recorder: Optional[LatencyRecorder] = None,
        write_quorum: Optional[int] = None,
        read_quorum: int = 1,
        request_timeout: Optional[float] = None,
        max_retries: int = 0,
        request_ids: Optional[Iterator[int]] = None,
    ) -> None:
        super().__init__(
            env,
            host.name,
            ring=ring,
            selector=selector,
            recorder=recorder,
            transmit=KVClient._send_packet,
            completed=tracker.complete if tracker is not None else _untracked,
            netrs=netrs,
            redundancy=redundancy,
            rng=rng,
            request_timeout=request_timeout,
            max_retries=max_retries,
            request_ids=request_ids,
        )
        self.host = host
        self.tracker = tracker
        self.write_recorder = write_recorder
        if write_quorum is not None and write_quorum < 1:
            raise ConfigurationError("write_quorum must be >= 1")
        self.write_quorum = write_quorum
        if read_quorum < 1:
            raise ConfigurationError("read_quorum must be >= 1")
        self.read_quorum = read_quorum
        # Optional per-request trace sink (see repro.analysis.trace); set by
        # analysis instrumentation, never by normal experiment wiring.
        self.trace_sink = None
        # Consistency accounting (see docs/CONSISTENCY.md).
        self.writes_completed = 0
        self.write_failures = 0
        self.stale_reads = 0
        self.read_repairs = 0
        self.repair_writes_sent = 0
        self.quorum_degraded_reads = 0
        self.digest_probes_sent = 0
        host.bind(self)

    # ------------------------------------------------------------------
    # Packet edge of the read path
    # ------------------------------------------------------------------
    def _send_packet(self, request_id: int, entry: _Outstanding, target: str) -> None:
        """Build one copy of a read and hand it to the host."""
        if self.netrs:
            packet = make_request(
                client=self.name,
                request_id=request_id,
                key=entry.key,
                rgid=entry.rgid,
                backup_replica=target,
                issued_at=entry.issued_at,
                netrs=True,
            )
        else:
            packet = make_request(
                client=self.name,
                request_id=request_id,
                key=entry.key,
                rgid=entry.rgid,
                backup_replica=target,
                issued_at=entry.issued_at,
                netrs=False,
                dst=target,
            )
            # Issues and retries go to the entry's primary target; the one
            # copy that goes elsewhere is the R95 duplicate.
            packet.is_redundant = target != entry.primary_target
        self.host.send(packet)
        if self.read_quorum > 1 and entry.quorum is None:
            self._probe_digests(entry, request_id, entry.issued_at)

    def handle_packet(self, packet: Packet) -> None:
        """Endpoint callback: fold a response into state and metrics.

        A plain read goes to the shared fold.  Write acks, version digests
        and the copies of a quorum read are folded here.
        """
        if packet.is_digest or packet.is_write or self.read_quorum > 1:
            self.responses_received += 1
            request_id = packet.request_id
            entry = self._outstanding.get(request_id)
            if packet.is_digest:
                # A digest of a read that completed (or was lost or degraded)
                # carries no actionable information.
                if entry is None or entry.done or entry.quorum is None:
                    return
                quorum = entry.quorum
            elif entry is None:
                self._late_response(request_id, entry)
                return
            else:
                status = packet.server_status
                if status is not None:
                    now = self.env.now
                    self.selector.note_response(
                        packet.server, now - entry.issued_at, status, now
                    )
                if entry.is_write:
                    entry.acks_received += 1
                    if entry.done:
                        # Acks beyond the quorum, or after a write timed out.
                        self.late_responses += 1
                    elif entry.acks_received == entry.acks_needed:
                        self._complete_write(packet, entry)
                    if entry.acks_received >= entry.copies_sent:
                        self._outstanding.pop(request_id, None)
                    return
                if entry.done:
                    self._late_response(request_id, entry)
                    return
                quorum = entry.quorum
                if quorum.data_seen:
                    # A losing duplicate/retransmission copy while digests
                    # are still pending; only its feedback matters.
                    self.late_responses += 1
                    return
                quorum.data_seen = True
                quorum.data_server = packet.server
                quorum.data_packet = packet
            # A digest or the read's data: the read completes once R are in.
            quorum.responses += 1
            quorum.versions.append(
                (packet.server, (packet.version_ts, packet.version_id))
            )
            if quorum.data_seen and quorum.responses >= quorum.needed:
                self._finish_quorum_read(request_id, entry, degraded=False)
            return
        if self.trace_sink is not None:
            entry = self._outstanding.get(packet.request_id)
            if entry is not None and not entry.done:
                self.trace_sink.record_completion(
                    packet,
                    issued_at=entry.issued_at,
                    completed_at=self.env.now,
                    recorded=entry.record,
                    rgid=entry.rgid,
                )
        self.handle_response(packet.request_id, packet.server, packet.server_status)

    def _on_timeout(self, request_id: int) -> None:
        entry = self._outstanding.get(request_id)
        if (
            entry is not None
            and not entry.done
            and entry.quorum is not None
            and entry.quorum.data_seen
        ):
            # Data in hand, digests missing: complete degraded, do not retry.
            self.timeouts += 1
            self._finish_quorum_read(request_id, entry, degraded=True)
            return
        super()._on_timeout(request_id)

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def issue_write(self, key: int, record: bool = True) -> int:
        """Issue one replicated write for ``key``.

        Writes bypass replica selection entirely (NetRS is a read-path
        mechanism): the client fans the write out to every replica of the
        key and completes when ``write_quorum`` acknowledgements arrive
        (default: all replicas).  Write latencies land in
        ``write_recorder`` when one is configured.

        Each write carries an LWW version ``(issued_at, request_id)`` --
        the globally monotone request ID breaks issue-time ties, making
        last-write-wins a total order (see docs/CONSISTENCY.md).  With a
        ``request_timeout`` configured, a write that cannot gather its
        quorum (e.g. a replica crashed) fails after one timeout instead of
        hanging: counted in ``write_failures``, no latency sample, and the
        completion tracker still advances.
        """
        rgid, replicas = self.ring.group_for_key(key)
        quorum = self.write_quorum or len(replicas)
        if quorum > len(replicas):
            raise ConfigurationError(
                f"write quorum {quorum} exceeds replication factor "
                f"{len(replicas)}"
            )
        request_id = next(self._request_ids)
        now = self.env.now
        entry = _Outstanding(
            key=key,
            rgid=rgid,
            replicas=replicas,
            issued_at=now,
            record=record,
            primary_target=replicas[0],
            is_write=True,
            acks_needed=quorum,
            copies_sent=len(replicas),
        )
        self._outstanding[request_id] = entry
        for replica in replicas:
            packet = make_request(
                client=self.name,
                request_id=request_id,
                key=key,
                rgid=rgid,
                backup_replica=replica,
                issued_at=now,
                netrs=False,
                dst=replica,
            )
            packet.is_write = True
            packet.version_ts = now
            packet.version_id = request_id
            self.selector.note_sent(replica, now)
            self.requests_sent += 1
            self.host.send(packet)
        if self.request_timeout is not None:
            entry.timeout_timer = self.env.call_in(
                self.request_timeout, self._on_write_timeout, request_id
            )
        return request_id

    def _complete_write(self, packet: Packet, entry: _Outstanding) -> None:
        """A write gathered its quorum: the ack in ``packet`` was the last."""
        entry.done = True
        if entry.timeout_timer is not None:
            entry.timeout_timer.cancel()  # type: ignore[attr-defined]
        if entry.is_repair:
            # Read-repair writes are internal traffic: no latency sample, no
            # workload completion.
            return
        self.writes_completed += 1
        if entry.record and self.write_recorder is not None:
            self.write_recorder.add(self.env.now - entry.issued_at)
        if self.trace_sink is not None:
            self.trace_sink.record_completion(
                packet,
                issued_at=entry.issued_at,
                completed_at=self.env.now,
                recorded=entry.record,
                rgid=entry.rgid,
            )
        self._completed()

    def _on_write_timeout(self, request_id: int) -> None:
        """A write failed to gather its quorum within the timeout.

        Writes are not retried (replaying a fan-out write is ambiguous
        without per-replica sequencing); the write *fails*: counted, no
        latency sample, and the tracker advances so the run terminates.
        Replicas that did apply the write keep it -- LWW convergence does
        not require the client to have observed the quorum.
        """
        entry = self._outstanding.get(request_id)
        if entry is None or entry.done:
            return
        entry.done = True
        self.timeouts += 1
        self.write_failures += 1
        if entry.acks_received >= entry.copies_sent:
            del self._outstanding[request_id]
        self._completed()

    # ------------------------------------------------------------------
    # Quorum reads & read-repair (see docs/CONSISTENCY.md)
    # ------------------------------------------------------------------
    def _probe_digests(
        self, entry: _Outstanding, request_id: int, now: float
    ) -> None:
        """Fan out ``R - 1`` version-digest probes beside the data read.

        Digest probes are deterministic (the first ``R - 1`` group replicas
        other than the data target; no RNG draws) and invisible to the
        selector feedback loop: they bypass the server's service queue, so
        pairing them with ``note_sent`` would corrupt the concurrency
        estimate C3 maintains for real requests.  Under NetRS the data
        replica is chosen in-network after the probes leave, so a probe may
        land on the eventual data server -- that response pair simply
        carries matching versions.
        """
        targets: List[str] = []
        wanted = self.read_quorum - 1
        for replica in entry.replicas:
            if replica != entry.primary_target:
                targets.append(replica)
                wanted -= 1
                if not wanted:
                    break
        entry.quorum = _QuorumState(needed=self.read_quorum - wanted)
        for target in targets:
            probe = make_request(
                client=self.name,
                request_id=request_id,
                key=entry.key,
                rgid=entry.rgid,
                backup_replica=target,
                issued_at=now,
                netrs=False,
                dst=target,
            )
            probe.is_digest = True
            self.digest_probes_sent += 1
            self.host.send(probe)

    def _finish_quorum_read(
        self, request_id: int, entry: _Outstanding, *, degraded: bool
    ) -> None:
        """Complete a quorum read: record latency, detect staleness, repair.

        The latency sample spans issue to *quorum* (last arrival of the R
        responses), so consulting more replicas honestly prices the extra
        wait.  Degraded completions (timeout with data in hand but digests
        missing) record the timeout instant -- the time the client actually
        waited before giving up on full agreement.
        """
        quorum = entry.quorum
        assert quorum is not None
        entry.done = True
        now = self.env.now
        latency = now - entry.issued_at
        history = self._history
        if history is not None:
            history.add(latency)
            self._samples_since_refresh += 1
        packet = quorum.data_packet
        if self.trace_sink is not None and packet is not None:
            self.trace_sink.record_completion(
                packet,
                issued_at=entry.issued_at,
                completed_at=now,
                recorded=entry.record,
                rgid=entry.rgid,
            )
        if entry.record:
            self.recorder.add(latency)
        if entry.timer is not None:
            entry.timer.cancel()  # type: ignore[attr-defined]
        if entry.timeout_timer is not None:
            entry.timeout_timer.cancel()  # type: ignore[attr-defined]
        if degraded:
            self.quorum_degraded_reads += 1
        # Version-mismatch detection plus asynchronous read-repair:
        # ``stale_reads`` counts reads whose *data* response was older than
        # the newest version observed in the quorum -- the value the client
        # returned was stale.  Any responder behind the newest version gets a
        # fire-and-forget repair write carrying that version (LWW: applying
        # it is idempotent and commutative).  A key never written anywhere
        # has nothing to compare or repair.
        versions = quorum.versions
        newest = (0.0, 0)
        for _server, version in versions:
            if version > newest:
                newest = version
        if newest != (0.0, 0):
            stale: List[str] = []
            data_stale = False
            for server, version in versions:
                if version < newest:
                    if server == quorum.data_server:
                        data_stale = True
                    if server not in stale:
                        stale.append(server)
            if data_stale:
                self.stale_reads += 1
            if stale:
                self.read_repairs += 1
                self._send_repair(entry, tuple(stale), newest)
        if entry.duplicates_sent == 0 and entry.attempts == 0:
            self._outstanding.pop(request_id, None)
        self._completed()

    def _send_repair(
        self,
        entry: _Outstanding,
        targets: Tuple[str, ...],
        version: Tuple[float, int],
    ) -> None:
        """Send asynchronous repair writes installing ``version``.

        Repairs reuse the write-ack path but are flagged ``is_repair``:
        they never arm timeouts (a repair lost to a crashed replica is
        retried by the next stale read), record no latency, and do not
        advance the completion tracker -- they are background traffic, not
        workload.
        """
        request_id = next(self._request_ids)
        now = self.env.now
        repair = _Outstanding(
            key=entry.key,
            rgid=entry.rgid,
            replicas=targets,
            issued_at=now,
            record=False,
            primary_target=targets[0],
            is_write=True,
            is_repair=True,
            acks_needed=len(targets),
            copies_sent=len(targets),
        )
        self._outstanding[request_id] = repair
        for target in targets:
            packet = make_request(
                client=self.name,
                request_id=request_id,
                key=entry.key,
                rgid=entry.rgid,
                backup_replica=target,
                issued_at=now,
                netrs=False,
                dst=target,
            )
            packet.is_write = True
            packet.is_repair = True
            packet.version_ts, packet.version_id = version
            self.selector.note_sent(target, now)
            self.repair_writes_sent += 1
            self.host.send(packet)
