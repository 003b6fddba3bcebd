"""Tests for the NetRS packet format and magic-field transform."""

import pytest

from repro.errors import ProtocolError
from repro.network.addressing import SourceMarker
from repro.network.packet import (
    MAGIC_MONITOR,
    MAGIC_PLAIN,
    MAGIC_REQUEST,
    MAGIC_RESPONSE,
    Packet,
    ServerStatus,
    magic_transform,
    magic_untransform,
    make_request,
)
from repro.network.routing import NO_ROUTE


class TestMagicTransform:
    def test_transform_is_invertible(self):
        for magic in (MAGIC_REQUEST, MAGIC_RESPONSE, MAGIC_MONITOR):
            assert magic_untransform(magic_transform(magic)) == magic

    def test_transformed_values_are_distinct(self):
        """f(M_resp) must differ from M_req and M_resp (paper section IV-C)."""
        transformed = magic_transform(MAGIC_RESPONSE)
        assert transformed != MAGIC_REQUEST
        assert transformed != MAGIC_RESPONSE
        assert transformed != MAGIC_MONITOR

    def test_all_magics_distinct(self):
        values = {
            MAGIC_PLAIN,
            MAGIC_REQUEST,
            MAGIC_RESPONSE,
            MAGIC_MONITOR,
            magic_transform(MAGIC_REQUEST),
            magic_transform(MAGIC_RESPONSE),
            magic_transform(MAGIC_MONITOR),
        }
        assert len(values) == 7


class TestMakeRequest:
    def test_netrs_request_has_no_destination(self):
        packet = make_request(
            client="host0.0.0",
            request_id=1,
            key=42,
            rgid=7,
            backup_replica="host1.0.0",
            issued_at=0.0,
            netrs=True,
        )
        assert packet.dst is None
        assert packet.magic == MAGIC_REQUEST
        assert packet.rgid == 7
        assert packet.is_request

    def test_netrs_request_with_dst_rejected(self):
        with pytest.raises(ProtocolError):
            make_request(
                client="c",
                request_id=1,
                key=1,
                rgid=1,
                backup_replica="b",
                issued_at=0.0,
                netrs=True,
                dst="server",
            )

    def test_plain_request_requires_dst(self):
        with pytest.raises(ProtocolError):
            make_request(
                client="c",
                request_id=1,
                key=1,
                rgid=1,
                backup_replica="b",
                issued_at=0.0,
                netrs=False,
            )

    def test_plain_request_is_plain(self):
        packet = make_request(
            client="c",
            request_id=1,
            key=1,
            rgid=3,
            backup_replica="s",
            issued_at=0.0,
            netrs=False,
            dst="s",
        )
        assert packet.magic == MAGIC_PLAIN
        assert packet.rgid == -1  # plain packets carry no NetRS RGID
        assert packet.server == "s"


def _request(netrs=True, magic=None):
    packet = make_request(
        client="host0.0.0",
        request_id=9,
        key=5,
        rgid=2 if netrs else 1,
        backup_replica="host1.1.1",
        issued_at=1.5,
        netrs=netrs,
        dst=None if netrs else "host2.0.0",
    )
    if magic is not None:
        packet.magic = magic
    return packet


class TestReply:
    def test_magic_round_trip_via_selector(self):
        """Request rebuilt by a selector yields a NetRS response."""
        request = _request(magic=magic_transform(MAGIC_RESPONSE))
        request.rsnode_id = 3
        request.retaining_value = 1.25
        status = ServerStatus(2, 1000.0, 2.0)
        response = request.reply("host2.0.0", status, 1024)
        assert response is request  # in place: no second packet
        assert response.magic == MAGIC_RESPONSE
        assert response.rsnode_id == 3
        assert response.retaining_value == 1.25
        assert response.dst == "host0.0.0"
        assert not response.is_request

    def test_drs_request_yields_monitor_response(self):
        request = _request(magic=magic_transform(MAGIC_MONITOR))
        status = ServerStatus(queue_size=0, service_rate=1.0, timestamp=0.0)
        response = request.reply("s", status, 1024)
        assert response.magic == MAGIC_MONITOR

    def test_plain_request_yields_plain_response(self):
        request = _request(netrs=False)
        status = ServerStatus(queue_size=0, service_rate=1.0, timestamp=0.0)
        response = request.reply("host2.0.0", status, 1024)
        assert response.magic == MAGIC_PLAIN

    def test_response_echoes_request_identity(self):
        request = _request(netrs=False)
        status = ServerStatus(queue_size=1, service_rate=2.0, timestamp=0.0)
        response = request.clone().reply("host2.0.0", status, 1024)
        assert response.request_id == request.request_id
        assert response.key == request.key
        assert response.issued_at == request.issued_at

    def test_reply_is_a_freshly_built_response(self):
        """Every field a request alone carries is reset; what names the
        request, its RSNode and its latency stamps is kept -- field for field
        what a new ``Packet`` built from the request would hold."""
        request = _request(magic=magic_transform(MAGIC_RESPONSE))
        request.dst = request.server = "host2.0.0"
        request.rsnode_id, request.retaining_value = 3, 1.25
        request.source_marker = SourceMarker(pod=1, rack=0)
        request.is_redundant = request.is_write = request.is_repair = True
        request.is_migration = True
        request.migration_entries = ((5, 1.0, 2),)
        request.version_ts, request.version_id = 1.0, 2
        request.selected_at, request.server_queue_delay = 1.6, 0.1
        request.server_service_time = 0.2
        request.route, request.route_pos = ("tor0.0", "agg0.0"), 1
        request.route_target, request.hops = "host2.0.0", 4
        status = ServerStatus(2, 1000.0, 2.0)
        expected = Packet(
            src="host2.0.0",
            dst="host0.0.0",
            magic=MAGIC_RESPONSE,
            request_id=9,
            rsnode_id=3,
            retaining_value=1.25,
            server_status=status,
            key=5,
            value_size=512,
            client="host0.0.0",
            server="host2.0.0",
            issued_at=1.5,
            is_redundant=True,
            is_write=True,
        )
        expected.selected_at, expected.server_queue_delay = 1.6, 0.1
        expected.server_service_time = 0.2
        assert request.reply("host2.0.0", status, 512) == expected
        assert expected.route is NO_ROUTE


class TestWireSize:
    def test_plain_packet_smaller_than_netrs(self):
        plain = _request(netrs=False)
        netrs = _request(netrs=True)
        assert plain.wire_accounting()[0] < netrs.wire_accounting()[0]

    def test_netrs_header_overhead_is_small(self):
        """Protocol overhead must stay in the tens of bytes (design goal)."""
        plain = _request(netrs=False)
        netrs = _request(netrs=True)
        assert netrs.wire_accounting()[0] - plain.wire_accounting()[0] <= 16

    def test_response_includes_status_and_payload(self):
        request = _request(netrs=False)
        status = ServerStatus(queue_size=1, service_rate=2.0, timestamp=0.0)
        response = request.reply("s", status, 1024)
        assert response.wire_accounting()[0] > 1024

    def test_source_marker_adds_bytes(self):
        request = _request(netrs=True)
        before = request.wire_accounting()[0]
        request.source_marker = SourceMarker(pod=0, rack=0)
        assert request.wire_accounting()[0] == before + 4


class TestClone:
    def test_clone_is_independent(self):
        """A clone owns its position along the route and its header fields;
        the route itself is immutable, so both packets share one object."""
        packet = _request()
        packet.route = ("a", "b")
        packet.route_pos = 1
        duplicate = packet.clone()
        duplicate.route_pos = 2
        duplicate.rsnode_id = 99
        assert packet.route_pos == 1
        assert packet.rsnode_id != 99
        assert duplicate.route is packet.route
        assert isinstance(packet.route, tuple)

    def test_fresh_packets_share_the_empty_route(self):
        assert _request().route is _request().route is NO_ROUTE
        assert NO_ROUTE == ()

    def test_clone_copies_fields(self):
        packet = _request()
        packet.hops = 5
        packet.retaining_value = 2.5
        duplicate = packet.clone()
        assert duplicate.hops == 5
        assert duplicate.retaining_value == 2.5
        assert duplicate.request_id == packet.request_id


class TestFlowKey:
    def test_flow_key_deterministic(self):
        assert _request().flow_key() == _request().flow_key()

    def test_flow_key_varies_with_request_id(self):
        a = _request()
        b = _request()
        b.request_id = a.request_id + 1
        assert a.flow_key() != b.flow_key()

    def test_salt_changes_key(self):
        packet = _request()
        assert packet.flow_key() != packet.flow_key(salt="x")
