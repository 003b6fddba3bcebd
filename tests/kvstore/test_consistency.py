"""Consistency-layer tests: determinism, quorum failure, churn, validation.

Pins the guarantees `docs/CONSISTENCY.md` makes by name:

* same-seed write/churn runs are byte-identical across repeats, across
  ``rng_batch_size`` (scalar vs batched RNG streams) and across ``--jobs``
  worker counts (determinism guarantee 3);
* an unsatisfiable write quorum under a crash is a *counted* failure, not
  a hang;
* `ChurnableRing` keeps the segment universe (RGIDs) membership-invariant
  and statically rejects impossible schedules;
* quorum bounds and the fault/churn schedule split are validated at config
  time, while sloppy quorums (R + W <= N) are a note, not an error;
* the flow tier fails fast on every consistency knob.
"""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.exec import ExecutionPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.experiments.sweep import run_sweep
from repro.faults.events import NodeJoin, NodeLeave
from repro.kvstore import hashing
from repro.kvstore.hashing import ConsistentHashRing
from repro.kvstore.membership import ChurnableRing, ChurnCoordinator
from repro.sim import Environment

SERVERS = [f"server{i}" for i in range(6)]
CHURN = "node-leave@0.04:server#1; node-join@0.1:server#1"


def _config(scheme="clirs", churn=CHURN, **overrides):
    """A small mixed read/write quorum config, optionally with churn."""
    defaults = dict(
        total_requests=500,
        write_fraction=0.2,
        write_quorum=2,
        read_quorum=2,
        churn_schedule=churn,
        request_timeout=0.05,
    )
    defaults.update(overrides)
    return ExperimentConfig.tiny(scheme=scheme, seed=7, **defaults)


def _fingerprint(result):
    """Everything the consistency layer can influence, in one tuple."""
    return (
        result.summary(),
        result.write_summary(),
        result.writes_completed,
        result.write_failures,
        result.stale_reads,
        result.read_repairs,
        result.repair_writes_sent,
        result.quorum_degraded_reads,
        result.digest_probes_sent,
        result.migrated_keys,
        result.migration_bytes,
        result.churn_events,
        result.events_executed,
        result.bytes_transferred,
    )


class TestByteIdentity:
    @pytest.mark.parametrize("scheme", ["clirs", "netrs-tor"])
    @pytest.mark.parametrize("churn", [None, CHURN])
    def test_same_seed_runs_identical(self, scheme, churn):
        first = run_experiment(_config(scheme=scheme, churn=churn))
        second = run_experiment(_config(scheme=scheme, churn=churn))
        assert _fingerprint(first) == _fingerprint(second)

    def test_scalar_and_batched_rng_identical(self):
        """The BatchedStream fast path may not change a single byte."""
        scalar = run_experiment(_config(rng_batch_size=0))
        batched = run_experiment(_config(rng_batch_size=1024))
        assert _fingerprint(scalar) == _fingerprint(batched)

    def test_write_runs_actually_exercise_the_layer(self):
        result = run_experiment(_config())
        assert result.writes_completed > 0
        assert result.digest_probes_sent > 0
        assert result.churn_events == 2

    def test_parallel_sweep_identical_to_serial(self):
        """Write/churn sweeps merge byte-identically across --jobs."""
        base = ExperimentConfig.tiny(seed=3, total_requests=400)
        kwargs = dict(
            parameter="write_fraction",
            values=[0.0, 0.2],
            schemes=["clirs"],
            repetitions=1,
            overrides={
                "read_quorum": 2,
                "churn_schedule": CHURN,
                "request_timeout": 0.05,
            },
        )
        serial = run_sweep(base, **kwargs)
        parallel = run_sweep(
            base, **kwargs, execution=ExecutionPolicy(workers=2)
        )
        assert parallel.to_json() == serial.to_json()
        assert parallel.extras == serial.extras
        assert parallel.cells == serial.cells


class TestQuorumUnderCrash:
    def test_unsatisfiable_write_quorum_is_counted_not_hung(self):
        """Crash a replica with W = all: affected writes must fail fast.

        The crashed server swallows its copy of every fanned-out write, so
        any write whose group contains it can never reach W acks.  The run
        must still terminate (the timeout completes the tracker slot) and
        count the losses in ``write_failures``.
        """
        config = _config(
            churn=None,
            write_quorum=None,  # W = replication_factor (all replicas)
            fault_schedule="server-down@0.005:server#0",
        )
        result = run_experiment(config)
        assert result.write_failures > 0
        assert result.writes_completed > 0  # groups without the victim
        assert result.write_failures + result.writes_completed > 0


class TestChurnMigration:
    def test_churn_run_migrates_keys_through_the_fabric(self):
        config = _config()
        result = run_experiment(config)
        assert result.churn_events == 2
        assert result.migrated_keys > 0
        # Every migrated key is charged at the configured value size.
        assert result.migration_bytes == result.migrated_keys * config.value_size

    def test_churn_not_counted_as_faults(self):
        result = run_experiment(_config())
        assert result.faults_injected == 0


class TestChurnableRing:
    def _ring(self):
        return ChurnableRing(SERVERS, replication_factor=3, virtual_nodes=8)

    def test_all_active_matches_plain_ring(self):
        churnable = self._ring()
        plain = ConsistentHashRing(
            SERVERS, replication_factor=3, virtual_nodes=8
        )
        for key in range(200):
            assert churnable.group_for_key(key) == plain.group_for_key(key)

    def test_deactivate_reroutes_around_inactive_owner(self):
        ring = self._ring()
        ring.deactivate("server2")
        for key in range(200):
            _, replicas = ring.group_for_key(key)
            assert "server2" not in replicas
            assert len(replicas) == 3

    def test_rgid_universe_is_membership_invariant(self):
        """In-flight RGIDs must stay resolvable across churn."""
        ring = self._ring()
        before = {key: ring.group_for_key(key)[0] for key in range(200)}
        groups_before = len(ring.group_snapshot())
        ring.deactivate("server2")
        assert len(ring.group_snapshot()) == groups_before
        assert all(
            ring.group_for_key(key)[0] == rgid for key, rgid in before.items()
        )

    def test_rejoin_restores_original_groups(self):
        ring = self._ring()
        snapshot = ring.group_snapshot()
        ring.deactivate("server2")
        ring.activate("server2")
        assert ring.group_snapshot() == snapshot

    def test_memoized_keys_follow_churn(self):
        """Lookups memoized before a leave and a rejoin answer as a ring built
        fresh for the active set after each does."""
        ring = self._ring()
        keys = range(500)
        for key in keys:
            ring.group_for_key(key)
        ring.deactivate("server2")
        fresh = self._ring()
        fresh.deactivate("server2")
        assert [ring.group_for_key(k) for k in keys] == [
            fresh.group_for_key(k) for k in keys
        ]
        ring.activate("server2")
        fresh = self._ring()
        assert [ring.group_for_key(k) for k in keys] == [
            fresh.group_for_key(k) for k in keys
        ]

    def test_churn_hashes_no_key_again(self, monkeypatch):
        # The key memo is the process-wide shared ring's: empty it, or key 8
        # may have been looked up by whatever ran before.
        hashing._shared_ring.cache_clear()
        ring = self._ring()
        ring.group_for_key(7)
        calls = []
        real = hashing.stable_hash
        monkeypatch.setattr(
            hashing, "stable_hash", lambda text: calls.append(text) or real(text)
        )
        ring.deactivate("server2")
        ring.activate("server2")
        ring.deactivate("server4")
        ring.group_for_key(7)
        assert calls == []
        ring.group_for_key(8)  # a key never looked up is hashed
        assert calls == ["key:8"]

    def test_churn_leaves_the_shared_ring_alone(self, monkeypatch):
        """A leave and a join change the churnable ring's groups only: the
        shared ring it borrows from keeps its groups and its memo, and a key
        memoized before either change resolves to the live group after
        each."""
        hashing._shared_ring.cache_clear()
        ring = self._ring()
        shared = hashing.shared_ring(SERVERS, replication_factor=3, virtual_nodes=8)
        keys = range(300)
        for key in keys:
            ring.group_for_key(key)
        groups = list(shared.groups)
        memo = dict(shared._key_cache)
        assert len(memo) == len(keys)
        for change, server in (("deactivate", "server2"), ("activate", "server2"),
                               ("deactivate", "server4")):
            getattr(ring, change)(server)
            assert shared.groups == groups and shared._key_cache == memo
            for key in keys:
                rgid, replicas = ring.group_for_key(key)
                assert rgid == memo[key][0]
                assert replicas == ring.groups[rgid]
                assert all(ring.is_active(s) for s in replicas)
        moved = [key for key in keys if ring.group_for_key(key)[1] != memo[key][1]]
        assert moved  # the memo's own groups are not what a lookup answers
        # A key first looked up mid-churn adds the all-active entry a frozen
        # ring would memoize, never the churned group it answers with.
        fresh = ConsistentHashRing(SERVERS, replication_factor=3, virtual_nodes=8)
        for key in range(300, 400):
            ring.group_for_key(key)
            assert shared._key_cache[key] == fresh.group_for_key(key)
        assert shared.groups == groups

    def test_deactivate_below_replication_factor_rejected(self):
        ring = self._ring()
        for server in SERVERS[:3]:  # 6 -> 3 active: still exactly RF
            ring.deactivate(server)
        with pytest.raises(ConfigurationError, match="replication"):
            ring.deactivate(SERVERS[3])

    def test_state_toggles_validated(self):
        ring = self._ring()
        with pytest.raises(ConfigurationError):
            ring.activate("server0")  # already active
        ring.deactivate("server0")
        with pytest.raises(ConfigurationError):
            ring.deactivate("server0")  # already inactive
        with pytest.raises(ConfigurationError):
            ring.deactivate("not-a-server")


class TestPreflight:
    def _coordinator(self):
        ring = ChurnableRing(SERVERS, replication_factor=3, virtual_nodes=8)
        return ChurnCoordinator(Environment(), ring, {}, value_size=1024)

    def test_valid_leave_then_join_passes(self):
        self._coordinator().preflight(
            [NodeLeave(0.04, "server1"), NodeJoin(0.1, "server1")]
        )

    def test_leave_of_inactive_rejected(self):
        with pytest.raises(ConfigurationError, match="not active"):
            self._coordinator().preflight(
                [NodeLeave(0.04, "server1"), NodeLeave(0.1, "server1")]
            )

    def test_join_of_active_rejected(self):
        with pytest.raises(ConfigurationError, match="already active"):
            self._coordinator().preflight([NodeJoin(0.04, "server1")])

    def test_ring_underflow_rejected(self):
        events = [NodeLeave(0.01 * i, s) for i, s in enumerate(SERVERS[:4])]
        with pytest.raises(ConfigurationError, match="replication_factor"):
            self._coordinator().preflight(events)

    def test_unknown_target_rejected(self):
        with pytest.raises(ConfigurationError, match="universe"):
            self._coordinator().preflight([NodeLeave(0.04, "ghost")])


class TestConfigValidation:
    def test_quorums_exceeding_replica_count_rejected(self):
        with pytest.raises(ConfigurationError, match="write_quorum"):
            ExperimentConfig.tiny(write_fraction=0.1, write_quorum=4)
        with pytest.raises(ConfigurationError, match="read_quorum"):
            ExperimentConfig.tiny(read_quorum=4)
        with pytest.raises(ConfigurationError, match="read_quorum"):
            ExperimentConfig.tiny(read_quorum=0)

    def test_churn_events_rejected_in_fault_schedule(self):
        with pytest.raises(ConfigurationError, match="churn_schedule"):
            ExperimentConfig.tiny(
                fault_schedule="node-leave@0.04:server#1",
                request_timeout=0.05,
            )

    def test_fault_events_rejected_in_churn_schedule(self):
        with pytest.raises(ConfigurationError, match="node-join/node-leave"):
            ExperimentConfig.tiny(churn_schedule="server-down@0.04:server#1")

    def test_sloppy_quorum_is_a_note_not_an_error(self):
        sloppy = ExperimentConfig.tiny(
            write_fraction=0.1, write_quorum=1, read_quorum=1
        )
        notes = sloppy.consistency_notes()
        assert len(notes) == 1 and "sloppy quorum" in notes[0]

    def test_strict_quorum_and_read_only_have_no_note(self):
        strict = ExperimentConfig.tiny(
            write_fraction=0.1, write_quorum=2, read_quorum=2
        )
        assert strict.consistency_notes() == []
        assert ExperimentConfig.tiny().consistency_notes() == []

    def test_describe_surfaces_the_sloppy_note(self):
        config = _config(
            churn=None, total_requests=300, write_quorum=1, read_quorum=1
        )
        result = run_experiment(config)
        assert "sloppy quorum" in result.describe()


class TestNoKnobsNoNewFields:
    def test_read_only_run_reports_zero_consistency_counters(self):
        result = run_experiment(ExperimentConfig.tiny(total_requests=300))
        assert result.writes_completed == 0
        assert result.stale_reads == 0
        assert result.read_repairs == 0
        assert result.digest_probes_sent == 0
        assert result.migrated_keys == 0
        assert result.churn_events == 0

    def test_consistency_fields_elide_from_digest_at_defaults(self):
        from repro.exec.job import config_digest

        config = ExperimentConfig.tiny()
        explicit = dataclasses.replace(config, read_quorum=None)
        assert config_digest(config) == config_digest(explicit)
        assert config_digest(config) != config_digest(
            dataclasses.replace(config, read_quorum=2)
        )
