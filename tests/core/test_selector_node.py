"""Tests for the NetRS selector running on an accelerator.

The selector is ``select``/``fold`` over plain values (a clone is
``(server, rv, status)``, checked for its status here); the packet edge of a
request -- the field rewriting and the RGID check around the selection -- is
the switch's accelerator work, and is exercised through the switch that owns
it.
"""

import numpy as np
import pytest

from repro.core.selector_node import NetRSSelector
from repro.errors import ConfigurationError, ProtocolError
from repro.kvstore.hashing import ConsistentHashRing
from repro.network.accelerator import Accelerator
from repro.network.fabric import Network
from repro.network.fattree import build_fat_tree
from repro.network.packet import (
    MAGIC_RESPONSE,
    ServerStatus,
    magic_transform,
    make_request,
)
from repro.network.switch import ProgrammableSwitch
from repro.selection.c3 import C3Selector
from repro.sim import Environment

SERVERS = [f"server{i}" for i in range(6)]


@pytest.fixture
def setup():
    env = Environment()
    ring = ConsistentHashRing(SERVERS, replication_factor=3, virtual_nodes=8)
    algorithm = C3Selector(
        concurrency_weight=2,
        prior_service_rate=1000.0,
        rng=np.random.default_rng(0),
    )
    selector = NetRSSelector(env, algorithm=algorithm, ring=ring)
    return env, ring, algorithm, selector


@pytest.fixture
def edge(setup):
    """The selector bound to a switch: the packet edge around it."""
    env, ring, algorithm, selector = setup
    network = Network(env, build_fat_tree(4))
    switch = ProgrammableSwitch(
        "agg0.0", network, operator_id=7, accelerator=Accelerator(env, "acc")
    )
    switch.bind_operator(selector, {7: "agg0.0"})
    return switch


def _request(ring, key=5):
    rgid, _ = ring.group_for_key(key)
    return make_request(
        client="client0",
        request_id=1,
        key=key,
        rgid=rgid,
        backup_replica="server0",
        issued_at=0.0,
        netrs=True,
    )


class TestOnRequest:
    def test_selects_a_replica_of_the_group(self, setup, edge):
        env, ring, _, selector = setup
        rgid, replicas = ring.group_for_key(5)
        assert selector.select(rgid, env.now) in replicas
        packet = _request(ring)
        edge._select_and_send(packet, env.now)
        assert packet.dst in replicas
        assert packet.server == packet.dst

    def test_rebuilds_magic_and_rv(self, setup, edge):
        env, ring, _, selector = setup
        packet = _request(ring)
        edge._select_and_send(packet, 0.5)
        assert packet.magic == magic_transform(MAGIC_RESPONSE)
        assert packet.retaining_value == 0.5  # send timestamp, per the paper

    def test_counts_outstanding(self, setup):
        env, ring, algorithm, selector = setup
        rgid, _ = ring.group_for_key(5)
        server = selector.select(rgid, env.now)
        assert algorithm.outstanding(server) == 1
        assert selector.requests_handled == 1

    def test_unknown_rgid_rejected(self, setup):
        env, ring, _, selector = setup
        with pytest.raises(ConfigurationError):
            selector.select(len(ring), env.now)

    def test_missing_rgid_rejected(self, setup, edge):
        env, ring, _, selector = setup
        packet = _request(ring)
        packet.rgid = -1
        with pytest.raises(ProtocolError):
            edge._select_and_send(packet, env.now)

    def test_counts_a_selection_once_the_clock_reaches_it(self, setup):
        """The accelerator runs its work on admission, dated with the instant
        service completes; the counter reports what has completed."""
        env, ring, _, selector = setup
        rgid, _ = ring.group_for_key(5)
        selector.select(rgid, 6.25e-6)
        selector.select(rgid, 11.25e-6)
        assert selector.requests_handled == 0
        env.run(until=6.25e-6)
        assert selector.requests_handled == 1
        env.run(until=1.0)
        assert selector.requests_handled == 2


class TestOnResponse:
    def test_updates_algorithm_state(self, setup):
        env, ring, algorithm, selector = setup
        request = _request(ring)
        # The selection and the fields it stamps, without the send on (the
        # fixture's fabric has no endpoints to deliver to).
        server = request.server = selector.select(request.rgid, env.now)
        request.retaining_value = env.now
        env.run(until=4e-3)
        status = ServerStatus(queue_size=3, service_rate=900.0, timestamp=env.now)
        response = request.reply(server, status, 1024)
        selector.fold(
            (response.server, response.retaining_value, response.server_status), env.now
        )
        assert algorithm.outstanding(server) == 0
        assert selector.responses_handled == 1
        track = algorithm._tracks[server]
        assert track.response_time == pytest.approx(4e-3)
        assert track.queue_size == pytest.approx(3.0)

    def test_missing_status_rejected(self, setup):
        env, ring, _, selector = setup
        server = selector.select(ring.group_for_key(5)[0], env.now)
        with pytest.raises(ProtocolError):
            selector.fold((server, 0.0, None), env.now)

    def test_feedback_loop_shifts_selection(self, setup):
        """Bad feedback about one replica steers later requests away."""
        env, ring, algorithm, selector = setup
        rgid, _ = ring.group_for_key(5)
        loaded = selector.select(rgid, env.now)
        status = ServerStatus(queue_size=30, service_rate=100.0, timestamp=0.0)
        selector.fold((loaded, 0.0, status), env.now)
        picks = {selector.select(rgid, env.now) for _ in range(10)}
        assert loaded not in picks
