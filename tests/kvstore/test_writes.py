"""Tests for replicated writes and mixed read/write workloads."""

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.kvstore.client import KVClient
from repro.kvstore.hashing import ConsistentHashRing
from repro.network.packet import MAGIC_PLAIN, ServerStatus
from repro.sim import Environment
from repro.sim.probes import LatencyRecorder
from tests.kvstore.test_client import FirstCandidateSelector, StubHost

SERVERS = [f"server{i}" for i in range(5)]


@pytest.fixture
def ring():
    return ConsistentHashRing(SERVERS, replication_factor=3, virtual_nodes=8)


def _client(env, ring, quorum=None):
    host = StubHost()
    write_recorder = LatencyRecorder()
    client = KVClient(
        env,
        host,
        ring=ring,
        selector=FirstCandidateSelector(),
        recorder=LatencyRecorder(),
        write_recorder=write_recorder,
        write_quorum=quorum,
    )
    return client, host, write_recorder


def _ack(client, packet):
    status = ServerStatus(queue_size=0, service_rate=1000.0, timestamp=0.0)
    client.handle_packet(packet.clone().reply(packet.dst, status, 1024))


class TestIssueWrite:
    def test_fans_out_to_all_replicas(self, ring):
        env = Environment()
        client, host, _ = _client(env, ring)
        client.issue_write(key=7)
        _, replicas = ring.group_for_key(7)
        assert len(host.sent) == len(replicas)
        assert {p.dst for p in host.sent} == set(replicas)
        assert all(p.is_write for p in host.sent)
        assert all(p.magic == MAGIC_PLAIN for p in host.sent)

    def test_copies_share_request_id(self, ring):
        env = Environment()
        client, host, _ = _client(env, ring)
        client.issue_write(key=7)
        assert len({p.request_id for p in host.sent}) == 1

    def test_completes_at_full_quorum(self, ring):
        env = Environment()
        client, host, write_recorder = _client(env, ring)
        client.issue_write(key=7)
        env.call_in(2e-3, lambda: None)
        env.run()
        _ack(client, host.sent[0])
        _ack(client, host.sent[1])
        assert len(write_recorder) == 0  # only 2 of 3 acks so far
        _ack(client, host.sent[2])
        assert len(write_recorder) == 1
        assert write_recorder.samples[0] == pytest.approx(2e-3)

    def test_partial_quorum(self, ring):
        env = Environment()
        client, host, write_recorder = _client(env, ring, quorum=2)
        client.issue_write(key=7)
        _ack(client, host.sent[0])
        assert len(write_recorder) == 0
        _ack(client, host.sent[1])
        assert len(write_recorder) == 1
        # The straggler ack is late but harmless.
        _ack(client, host.sent[2])
        assert len(write_recorder) == 1
        assert client.late_responses == 1

    def test_write_ack_updates_selector(self, ring):
        env = Environment()
        client, host, _ = _client(env, ring)
        selector = client.selector
        client.issue_write(key=7)
        assert len(selector.sent) == 3
        _ack(client, host.sent[0])
        assert len(selector.responses) == 1

    def test_write_responses_are_writes(self, ring):
        env = Environment()
        client, host, _ = _client(env, ring)
        client.issue_write(key=7)
        status = ServerStatus(queue_size=0, service_rate=1.0, timestamp=0.0)
        response = host.sent[0].clone().reply(host.sent[0].dst, status, 1024)
        assert response.is_write

    def test_quorum_validated(self, ring):
        env = Environment()
        with pytest.raises(ConfigurationError):
            _client(env, ring, quorum=0)
        client, _, _ = _client(env, ring, quorum=5)
        with pytest.raises(ConfigurationError):
            client.issue_write(key=1)  # quorum 5 > RF 3

    def test_tracker_counts_one_completion_per_write(self, ring):
        from repro.kvstore.client import CompletionTracker

        env = Environment()
        host = StubHost()
        tracker = CompletionTracker(1)
        client = KVClient(
            env,
            host,
            ring=ring,
            selector=FirstCandidateSelector(),
            recorder=LatencyRecorder(),
            tracker=tracker,
        )
        client.issue_write(key=7)
        for packet in list(host.sent):
            _ack(client, packet)
        assert tracker.completed == 1


class TestMixedWorkloadExperiments:
    def test_mixed_run_completes(self):
        config = ExperimentConfig.tiny(
            scheme="netrs-ilp", seed=1, write_fraction=0.3
        )
        result = run_experiment(config)
        assert result.completed_requests == config.total_requests
        writes = result.write_summary()
        assert writes is not None
        assert writes["mean"] > 0

    def test_read_only_has_no_write_summary(self):
        result = run_experiment(ExperimentConfig.tiny(seed=1))
        assert result.write_summary() is None

    def test_writes_slower_than_reads(self):
        """Waiting for all three replicas beats a single selected one."""
        config = ExperimentConfig.tiny(scheme="clirs", seed=2, write_fraction=0.4)
        result = run_experiment(config)
        assert result.write_summary()["mean"] > result.summary()["mean"]

    def test_write_fraction_validated(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.tiny(write_fraction=1.0)
        with pytest.raises(ConfigurationError):
            ExperimentConfig.tiny(write_quorum=9)

    def test_closed_loop_rejects_writes(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig.tiny(workload_mode="closed", write_fraction=0.2)

    def test_server_load_includes_write_fanout(self):
        config = ExperimentConfig.tiny(scheme="clirs", seed=3, write_fraction=0.5)
        result = run_experiment(config, keep_scenario=True)
        scenario = result.scenario
        arrivals = sum(s.arrivals for s in scenario.servers.values())
        writes = scenario.workload.writes_issued
        reads = config.total_requests - writes
        expected = reads + writes * config.replication_factor
        # R95 off, so arrivals are exactly reads + RF * writes.
        assert arrivals == expected
