"""Tests for the consistent hash ring and replica groups."""

import pytest

from repro.errors import ConfigurationError
from repro.kvstore.hashing import ConsistentHashRing, stable_hash

SERVERS = [f"server{i}" for i in range(10)]


class TestConstruction:
    def test_needs_enough_servers(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(["a", "b"], replication_factor=3)

    def test_duplicate_servers_rejected(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(["a", "b", "b"], replication_factor=2)

    def test_replication_factor_validated(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(SERVERS, replication_factor=0)

    def test_virtual_nodes_validated(self):
        with pytest.raises(ConfigurationError):
            ConsistentHashRing(SERVERS, virtual_nodes=0)

    def test_ring_size(self):
        ring = ConsistentHashRing(SERVERS, virtual_nodes=8)
        assert len(ring) == 80


class TestLookups:
    @pytest.fixture(scope="class")
    def ring(self):
        return ConsistentHashRing(SERVERS, replication_factor=3, virtual_nodes=16)

    def test_group_has_rf_distinct_servers(self, ring):
        for key in range(500):
            _, replicas = ring.group_for_key(key)
            assert len(replicas) == 3
            assert len(set(replicas)) == 3
            assert all(r in SERVERS for r in replicas)

    def test_lookup_is_deterministic(self, ring):
        assert ring.group_for_key(12345) == ring.group_for_key(12345)

    def test_rgid_resolves_to_same_replicas(self, ring):
        rgid, replicas = ring.group_for_key(999)
        assert ring.groups[rgid] == replicas

    def test_group_database_covers_all_segments(self, ring):
        database = ring.group_database()
        assert len(database) == len(ring)
        assert all(len(replicas) == 3 for replicas in database.values())

    def test_same_servers_same_ring(self):
        a = ConsistentHashRing(SERVERS, virtual_nodes=8)
        b = ConsistentHashRing(SERVERS, virtual_nodes=8)
        for key in range(100):
            assert a.group_for_key(key) == b.group_for_key(key)

    def test_keys_spread_over_servers(self, ring):
        hits = {s: 0 for s in SERVERS}
        for key in range(3000):
            _, replicas = ring.group_for_key(key)
            hits[replicas[0]] += 1
        # Every server should be primary for a non-trivial share.
        assert all(count > 0 for count in hits.values())

    def test_ownership_counts_sum_to_ring_size(self, ring):
        counts = ring.ownership_counts()
        assert sum(counts.values()) == len(ring)

    def test_removal_stability(self):
        """Removing one server relocates only its own keys (consistency)."""
        full = ConsistentHashRing(SERVERS, replication_factor=1, virtual_nodes=32)
        reduced = ConsistentHashRing(
            SERVERS[:-1], replication_factor=1, virtual_nodes=32
        )
        moved = 0
        total = 2000
        for key in range(total):
            _, old = full.group_for_key(key)
            _, new = reduced.group_for_key(key)
            if old[0] != new[0]:
                moved += 1
                assert old[0] == SERVERS[-1]  # only departed server's keys move
        assert 0 < moved < total * 0.35


class TestStableHash:
    def test_stable_values(self):
        assert stable_hash("x") == stable_hash("x")

    def test_spread(self):
        values = {stable_hash(str(i)) for i in range(1000)}
        assert len(values) == 1000
