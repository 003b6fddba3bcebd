"""Tests for the KV client: issuing, feedback, redundancy, tracking."""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.kvstore.client import (
    ClientCore,
    CompletionTracker,
    KVClient,
    RedundancyPolicy,
)
from repro.kvstore.hashing import ConsistentHashRing
from repro.network.packet import (
    MAGIC_PLAIN,
    MAGIC_REQUEST,
    ServerStatus,
    make_request,
)
from repro.selection.base import ReplicaSelector
from repro.sim import Environment
from repro.sim.probes import LatencyRecorder

from tests.kvstore._drivers import idle_flow_engine

SERVERS = [f"server{i}" for i in range(5)]


class StubHost:
    def __init__(self, name="client0"):
        self.name = name
        self.sent = []
        self.endpoint = None

    def bind(self, endpoint):
        self.endpoint = endpoint

    def send(self, packet):
        self.sent.append(packet)


class FirstCandidateSelector(ReplicaSelector):
    """Deterministic selector double that logs its calls."""

    algorithm_name = "first"

    def __init__(self):
        super().__init__()
        self.sent = []
        self.responses = []

    def select(self, candidates, now):
        self.selections += 1
        return candidates[0]

    def note_sent(self, server, now):
        self.sent.append(server)

    def note_response(self, server, latency, status, now):
        self.responses.append((server, latency))


@pytest.fixture
def ring():
    return ConsistentHashRing(SERVERS, replication_factor=3, virtual_nodes=8)


def _client(env, ring, host=None, **kwargs):
    host = host or StubHost()
    selector = kwargs.pop("selector", FirstCandidateSelector())
    return (
        KVClient(
            env,
            host,
            ring=ring,
            selector=selector,
            recorder=kwargs.pop("recorder", LatencyRecorder()),
            **kwargs,
        ),
        host,
        selector,
    )


def _respond(client, request_packet, server=None, queue=0):
    """Simulate a server response arriving back at the client."""
    server = server or request_packet.dst
    request_packet.server = server
    status = ServerStatus(queue_size=queue, service_rate=1000.0, timestamp=0.0)
    response = request_packet.clone().reply(server, status, 1024)
    client.handle_packet(response)
    return response


class TestIssuePlain:
    def test_plain_issue_selects_and_sends(self, ring):
        env = Environment()
        client, host, selector = _client(env, ring)
        client.issue(key=7)
        assert len(host.sent) == 1
        packet = host.sent[0]
        assert packet.magic == MAGIC_PLAIN
        assert packet.dst in SERVERS
        assert selector.sent == [packet.dst]

    def test_dst_is_a_replica_of_the_key(self, ring):
        env = Environment()
        client, host, _ = _client(env, ring)
        client.issue(key=7)
        _, replicas = ring.group_for_key(7)
        assert host.sent[0].dst == replicas[0]

    def test_latency_recorded_on_response(self, ring):
        env = Environment()
        recorder = LatencyRecorder()
        client, host, _ = _client(env, ring, recorder=recorder)
        client.issue(key=1)
        env.call_in(3e-3, lambda: None)
        env.run()
        _respond(client, host.sent[0])
        assert len(recorder) == 1
        assert recorder.samples[0] == pytest.approx(3e-3)

    def test_warmup_requests_not_recorded(self, ring):
        env = Environment()
        recorder = LatencyRecorder()
        client, host, _ = _client(env, ring, recorder=recorder)
        client.issue(key=1, record=False)
        _respond(client, host.sent[0])
        assert len(recorder) == 0

    def test_selector_gets_feedback(self, ring):
        env = Environment()
        client, host, selector = _client(env, ring)
        client.issue(key=1)
        _respond(client, host.sent[0])
        assert len(selector.responses) == 1

    def test_duplicate_response_counted_late(self, ring):
        env = Environment()
        client, host, _ = _client(env, ring)
        client.issue(key=1)
        response = _respond(client, host.sent[0])
        client.handle_packet(response)
        assert client.late_responses == 1


class TestIssueNetrs:
    def test_netrs_request_has_rgid_and_backup(self, ring):
        env = Environment()
        client, host, selector = _client(env, ring, netrs=True)
        client.issue(key=7)
        packet = host.sent[0]
        assert packet.magic == MAGIC_REQUEST
        assert packet.dst is None
        rgid, replicas = ring.group_for_key(7)
        assert packet.rgid == rgid
        assert packet.backup_replica == replicas[0]
        # The client must not count a send it did not target.
        assert selector.sent == []

    def test_netrs_redundancy_rejected(self, ring):
        env = Environment()
        with pytest.raises(ConfigurationError):
            _client(env, ring, netrs=True, redundancy=RedundancyPolicy())


class TestRedundancy:
    def _issue_and_wait(self, env, ring, wait, min_samples=2):
        policy = RedundancyPolicy(min_samples=min_samples, fallback_multiplier=3.0)
        client, host, selector = _client(
            env, ring, redundancy=policy, rng=np.random.default_rng(0)
        )
        # Give the client some latency history (2 samples of ~1 ms), with
        # responses arriving *before* any redundancy timer can fire.
        for key in (1, 2):
            client.issue(key=key)
            env.call_in(1e-3, lambda: _respond(client, host.sent[-1]))
            env.run(until=env.now + 2e-3)
        host.sent.clear()
        client.issue(key=3)
        env.run(until=env.now + wait)
        return client, host, selector

    def test_slow_request_triggers_duplicate(self, ring):
        env = Environment()
        client, host, _ = self._issue_and_wait(env, ring, wait=50e-3)
        assert len(host.sent) == 2  # primary + duplicate
        assert host.sent[1].is_redundant
        assert host.sent[1].dst != host.sent[0].dst
        assert client.redundant_sent == 1

    def test_fast_response_cancels_timer(self, ring):
        env = Environment()
        policy = RedundancyPolicy(min_samples=1000)
        client, host, _ = _client(
            env, ring, redundancy=policy, rng=np.random.default_rng(0)
        )
        client.issue(key=1)
        _respond(client, host.sent[0])
        env.run()
        assert client.redundant_sent == 0

    def test_first_response_wins(self, ring):
        env = Environment()
        recorder = LatencyRecorder()
        policy = RedundancyPolicy(min_samples=2)
        client, host, _ = _client(
            env,
            ring,
            recorder=recorder,
            redundancy=policy,
            rng=np.random.default_rng(0),
        )
        for key in (1, 2):
            client.issue(key=key)
            env.call_in(1e-3, lambda: _respond(client, host.sent[-1]))
            env.run(until=env.now + 2e-3)
        host.sent.clear()
        recorded_before = len(recorder)
        client.issue(key=3)
        env.run(until=env.now + 60e-3)
        assert len(host.sent) == 2
        _respond(client, host.sent[1])  # duplicate answers first
        _respond(client, host.sent[0])  # primary arrives late
        assert len(recorder) == recorded_before + 1
        assert client.late_responses == 1

    def test_duplicate_targets_different_replica(self, ring):
        env = Environment()
        _, host, _ = self._issue_and_wait(env, ring, wait=50e-3)
        primary, duplicate = host.sent
        _, replicas = ring.group_for_key(3)
        assert duplicate.dst in replicas
        assert duplicate.dst != primary.dst


class TestCompletionTracker:
    def test_fires_once_at_expected(self):
        tracker = CompletionTracker(3)
        fired = []
        tracker.when_done(lambda: fired.append(True))
        for _ in range(3):
            tracker.complete()
        assert fired == [True]

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CompletionTracker(0)

    def test_client_reports_completion(self, ring):
        env = Environment()
        tracker = CompletionTracker(1)
        client, host, _ = _client(env, ring, tracker=tracker)
        client.issue(key=1)
        _respond(client, host.sent[0])
        assert tracker.completed == 1


class TestOneBodyTwoDrivers:
    """``ClientCore`` is the only read path: the packet tier reaches it
    through ``KVClient`` on an ``Environment`` + ``Host``, the flow tier
    constructs it on a ``FlowEngine``.  The same scripted life must read the
    same on both."""

    # Request 1 (t=0): never answered in time -- the R95 duplicate leaves at
    # the cold-start threshold (30 ms), timeouts back off 20/40/80/160 ms
    # (the cap is reached at the third retry) -- then answered at 0.35 s by
    # its first target and, 10 ms later, by a losing copy.  Request 2
    # (t=0.5): never answered, lost once its five retries are spent.
    TIMEOUT, RETRIES = 0.02, 5
    ANSWER, LATE_ANSWER = 0.35, 0.36
    SECOND_ISSUE, HORIZON = 0.5, 1.2

    def _policy(self):
        return dict(
            redundancy=RedundancyPolicy(),
            rng=np.random.default_rng(0),
            request_timeout=self.TIMEOUT,
            max_retries=self.RETRIES,
        )

    @staticmethod
    def _counters(client):
        return (
            client.requests_sent,
            client.redundant_sent,
            client.timeouts,
            client.retries,
            client.late_responses,
            client.duplicates_suppressed,
            client.requests_lost,
        )

    def _on_environment(self, ring):
        env = Environment()
        sends = []

        class Host(StubHost):
            def send(self, packet):
                sends.append((env.now, packet.request_id, packet.dst))

        tracker = CompletionTracker(2)
        client, _, _ = _client(env, ring, host=Host(), tracker=tracker, **self._policy())
        _, replicas = ring.group_for_key(7)
        status = ServerStatus(queue_size=0, service_rate=1000.0, timestamp=0.0)

        def answer(server):
            request = make_request(
                client=client.name, request_id=1, key=7, rgid=0,
                backup_replica=server, issued_at=0.0, netrs=False, dst=server,
            )
            client.handle_packet(request.reply(server, status, 1024))

        env.call_at(0.0, client.issue, 7)
        env.call_at(self.ANSWER, answer, replicas[0])
        env.call_at(self.LATE_ANSWER, answer, replicas[1])
        env.call_at(self.SECOND_ISSUE, client.issue, 9)
        env.run(until=self.HORIZON)
        return self._counters(client), sends, tracker.completed

    def _on_flow_engine(self, ring):
        with idle_flow_engine() as engine:
            sends = []
            completed = []
            client = ClientCore(
                engine,
                "client0",
                ring=ring,
                selector=FirstCandidateSelector(),
                recorder=LatencyRecorder(),
                transmit=lambda client, rid, entry, target: sends.append(
                    (engine.now, rid, target)
                ),
                completed=completed.append,
                **self._policy(),
            )
            _, replicas = ring.group_for_key(7)
            status = ServerStatus(queue_size=0, service_rate=1000.0, timestamp=0.0)
            engine.post_at(0.0, client.issue, (7,))
            engine.post_at(self.ANSWER, client.handle_response, (1, replicas[0], status))
            engine.post_at(self.LATE_ANSWER, client.handle_response, (1, replicas[1], status))
            engine.post_at(self.SECOND_ISSUE, client.issue, (9,))
            engine.run(until=self.HORIZON)
            return self._counters(client), sends, len(completed)

    def test_scripted_retries_read_the_same_on_both_drivers(self, ring):
        packet_counters, packet_sends, packet_done = self._on_environment(ring)
        flow_counters, flow_sends, flow_done = self._on_flow_engine(ring)
        assert flow_counters == packet_counters
        assert flow_sends == packet_sends
        assert flow_done == packet_done == 2
        # The script did what it says.
        sent, redundant, timeouts, retries, late, suppressed, lost = packet_counters
        assert (sent, redundant, timeouts, retries) == (11, 1, 10, 9)
        assert (late, suppressed, lost) == (1, 1, 1)
        first = [when for when, rid, _ in packet_sends if rid == 1]
        assert first == pytest.approx([0.0, 0.02, 0.03, 0.06, 0.14, 0.30])
