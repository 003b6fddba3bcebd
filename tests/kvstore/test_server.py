"""Tests for the KV server: queueing, parallelism, status piggyback."""

import numpy as np
import pytest

from repro.kvstore.fluctuation import StableService
from repro.kvstore.server import KVServer, ServerCore
from repro.network.packet import MAGIC_PLAIN, make_request
from repro.sim import Environment

from tests.kvstore._drivers import idle_flow_engine


class StubHost:
    """Host double capturing outgoing packets."""

    def __init__(self, name="server0"):
        self.name = name
        self.sent = []
        self.endpoint = None

    def bind(self, endpoint):
        self.endpoint = endpoint

    def send(self, packet):
        self.sent.append((packet, len(self.sent)))


def _request(request_id=1, client="client0"):
    return make_request(
        client=client,
        request_id=request_id,
        key=request_id,
        rgid=1,
        backup_replica="server0",
        issued_at=0.0,
        netrs=False,
        dst="server0",
    )


def _server(env, host, mean=1e-3, parallelism=2, seed=0):
    return KVServer(
        env,
        host,
        service_model=StableService(mean),
        parallelism=parallelism,
        rng=np.random.default_rng(seed),
    )


class TestValidation:
    def test_parallelism_positive(self):
        with pytest.raises(ValueError):
            _server(Environment(), StubHost(), parallelism=0)

    def test_alpha_range(self):
        with pytest.raises(ValueError):
            KVServer(
                Environment(),
                StubHost(),
                service_model=StableService(1e-3),
                rng=np.random.default_rng(0),
                rate_ewma_alpha=1.0,
            )


class TestServicing:
    def test_every_request_gets_a_response(self):
        env = Environment()
        host = StubHost()
        server = _server(env, host)
        for i in range(10):
            server.handle_packet(_request(i))
        env.run()
        assert len(host.sent) == 10
        assert server.completions == 10
        assert server.queue_size == 0

    def test_response_addresses_the_client(self):
        env = Environment()
        host = StubHost()
        server = _server(env, host)
        server.handle_packet(_request(5, client="clientX"))
        env.run()
        response, _ = host.sent[0]
        assert response.dst == "clientX"
        assert response.request_id == 5
        assert response.server == "server0"
        assert response.magic == MAGIC_PLAIN

    def test_parallelism_limits_in_service(self):
        env = Environment()
        host = StubHost()
        server = _server(env, host, parallelism=2)
        for i in range(6):
            server.handle_packet(_request(i))
        assert server.queue_size == 6
        assert server._in_service == 2
        env.run()
        assert server.max_queue_seen == 6

    def test_mean_service_time_approximate(self):
        env = Environment()
        host = StubHost()
        server = _server(env, host, mean=2e-3, parallelism=1, seed=42)
        n = 2000

        def feed(i=0):
            # Closed-loop feeding: next request as the previous completes.
            if i < n:
                server.handle_packet(_request(i))
                env.call_in(2e-3 * 50, feed, i + 1)  # generous spacing

        # Open-loop all at once is fine too; service times are iid.
        for i in range(n):
            server.handle_packet(_request(i))
        env.run()
        total_busy = env.now  # single worker busy continuously
        assert total_busy / n == pytest.approx(2e-3, rel=0.1)

    def test_status_piggybacked(self):
        env = Environment()
        host = StubHost()
        server = _server(env, host)
        for i in range(4):
            server.handle_packet(_request(i))
        env.run()
        response, _ = host.sent[0]
        status = response.server_status
        assert status is not None
        assert status.queue_size >= 0
        assert status.service_rate > 0

    def test_queue_size_in_status_reflects_backlog(self):
        env = Environment()
        host = StubHost()
        server = _server(env, host, parallelism=1)
        for i in range(5):
            server.handle_packet(_request(i))
        env.run()
        # First response departs while 4 requests remain behind it.
        first_status = host.sent[0][0].server_status
        last_status = host.sent[-1][0].server_status
        assert first_status.queue_size == 4
        assert last_status.queue_size == 0

    def test_service_rate_estimate_converges(self):
        env = Environment()
        host = StubHost()
        server = _server(env, host, mean=1e-3, parallelism=4, seed=3)
        for i in range(3000):
            server.handle_packet(_request(i))
        env.run()
        # Rate = parallelism / mean = 4000 req/s, EWMA should be in range.
        assert server.service_rate_estimate == pytest.approx(4000, rel=0.5)

    def test_arrivals_counter(self):
        env = Environment()
        host = StubHost()
        server = _server(env, host)
        for i in range(3):
            server.handle_packet(_request(i))
        env.run()
        assert server.arrivals == 3

    def test_fifo_completion_order_single_worker(self):
        env = Environment()
        host = StubHost()
        server = _server(env, host, parallelism=1)
        for i in range(5):
            server.handle_packet(_request(i))
        env.run()
        ids = [p.request_id for p, _ in host.sent]
        assert ids == [0, 1, 2, 3, 4]


class TestOneBodyTwoDrivers:
    """``ServerCore`` is the only server model: the packet tier reaches it
    through ``KVServer`` on an ``Environment`` + ``Host``, the flow tier
    constructs it on a ``FlowEngine``.  The same scripted life must read the
    same on both."""

    # Np + 2 arrivals, a crash with work in service and in the queue, an
    # arrival while down, recovery, then three arrivals served normally while
    # the completions scheduled before the crash fire into the new epoch.
    PARALLELISM = 2
    BURST = (0.0, 0.0, 0.0, 0.0)
    CRASH, WHILE_DOWN, RECOVER = 1e-5, 2e-5, 3e-5
    AFTER = (4e-5, 4e-5, 4e-5)
    HORIZON = 0.1

    def _script(self, at, arrive, server):
        for index, when in enumerate(self.BURST):
            at(when, arrive, index)
        at(self.CRASH, server.fail)
        at(self.WHILE_DOWN, arrive, 10)
        at(self.RECOVER, server.recover)
        for index, when in enumerate(self.AFTER):
            at(when, arrive, 20 + index)

    @staticmethod
    def _counters(server):
        return (
            server.arrivals,
            server.completions,
            server.max_queue_seen,
            server.lost_in_service,
            server.dropped_requests,
        )

    def _on_environment(self):
        env = Environment()
        replies = []

        class Host(StubHost):
            def send(self, packet):
                status = packet.server_status
                replies.append(
                    (env.now, packet.request_id, status.queue_size, status.service_rate)
                )

        server = _server(env, Host(), parallelism=self.PARALLELISM)
        self._script(
            lambda when, fn, *args: env.call_at(when, fn, *args),
            lambda index: server.handle_packet(_request(index)),
            server,
        )
        env.run(until=self.HORIZON)
        return self._counters(server), replies

    def _on_flow_engine(self):
        with idle_flow_engine() as engine:
            replies = []

            def respond(server, job, status, queue_delay, service_time):
                replies.append(
                    (engine.now, job, status.queue_size, status.service_rate)
                )

            server = ServerCore(
                engine,
                "server0",
                service_model=StableService(1e-3),
                parallelism=self.PARALLELISM,
                rng=np.random.default_rng(0),
                respond=respond,
            )
            self._script(
                lambda when, fn, *args: engine.post_at(when, fn, args),
                server.handle_arrival,
                server,
            )
            engine.run(until=self.HORIZON)
            return self._counters(server), replies

    def test_scripted_crash_reads_the_same_on_both_drivers(self):
        packet_counters, packet_replies = self._on_environment()
        flow_counters, flow_replies = self._on_flow_engine()
        assert flow_counters == packet_counters
        assert flow_replies == packet_replies
        # The script did what it says: all four of the burst died in the
        # crash (nothing had completed), one arrival was refused, and only
        # the three post-recovery requests were ever answered.
        arrivals, completions, max_queue, lost, dropped = packet_counters
        assert (arrivals, completions, max_queue, lost, dropped) == (7, 3, 4, 4, 1)
        assert sorted(job for _, job, _, _ in packet_replies) == [20, 21, 22]
        # The old epoch's two completions fired after recovery and were
        # ignored: the last reply leaves an empty server behind.
        assert packet_replies[-1][2] == 0
