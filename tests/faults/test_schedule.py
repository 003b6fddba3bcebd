"""FaultSchedule: spec parsing, ordering, validation, seeded randomness."""

import math

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import ExperimentConfig
from repro.faults import (
    FaultSchedule,
    LinkDegrade,
    LinkDown,
    LinkUp,
    NodeJoin,
    NodeLeave,
    RSNodeDown,
    RSNodeUp,
    ServerDown,
    ServerUp,
    parse_fault_schedule,
)
from repro.sim.rng import RngRegistry


class TestParsing:
    def test_every_kind_parses(self):
        spec = (
            "server-down@0.05:server#0;"
            "server-up@0.1:server#0;"
            "link-down@0.2:tor0.0/agg0.0;"
            "link-up@0.3:tor0.0/agg0.0;"
            "link-degrade@0.4:tor0.1/agg0.0*50;"
            "rsnode-down@0.5:busiest;"
            "rsnode-up@0.6:3"
        )
        events = parse_fault_schedule(spec).events
        assert events == (
            ServerDown(0.05, "server#0"),
            ServerUp(0.1, "server#0"),
            LinkDown(0.2, "tor0.0", "agg0.0"),
            LinkUp(0.3, "tor0.0", "agg0.0"),
            LinkDegrade(0.4, "tor0.1", "agg0.0", 50.0),
            RSNodeDown(0.5, "busiest"),
            RSNodeUp(0.6, 3),
        )

    def test_whitespace_and_empty_clauses_ignored(self):
        spec = "  server-down @ 0.05 : server#0 ; ; server-up@0.1:server#0 ;"
        events = parse_fault_schedule(spec).events
        assert events == (
            ServerDown(0.05, "server#0"),
            ServerUp(0.1, "server#0"),
        )

    @pytest.mark.parametrize(
        "spec, fragment",
        [
            ("reboot@0.1:server#0", "unknown fault kind"),
            ("server-down@0.1", "kind@time:target"),
            ("server-down:server#0", "kind@time:target"),
            ("server-down@soon:server#0", "bad time"),
            ("link-down@0.1:tor0.0", "must be 'a/b'"),
            ("link-degrade@0.1:tor0.0/agg0.0", "a/b*factor"),
            ("link-degrade@0.1:tor0.0/agg0.0*slow", "bad factor"),
            ("rsnode-down@0.1:quietest", "operator ID or 'busiest'"),
            ("", "no events"),
            (" ; ; ", "no events"),
        ],
    )
    def test_malformed_clause_is_named(self, spec, fragment):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_fault_schedule(spec)
        assert fragment in str(excinfo.value)

    def test_from_spec_matches_parse(self):
        spec = "server-down@0.05:server#0"
        assert FaultSchedule.from_spec(spec).events == (
            parse_fault_schedule(spec).events
        )


class TestOrdering:
    def test_events_sorted_by_time(self):
        schedule = (
            FaultSchedule()
            .server_up(0.2, "s")
            .server_down(0.1, "s")
        )
        assert [e.at for e in schedule] == [0.1, 0.2]

    def test_ties_keep_insertion_order(self):
        schedule = (
            FaultSchedule()
            .server_down(0.1, "first")
            .server_down(0.1, "second")
            .server_down(0.1, "third")
        )
        assert [e.server for e in schedule] == ["first", "second", "third"]

    def test_len_counts_events(self):
        assert len(FaultSchedule().server_down(0.1, "s")) == 1


class TestValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError, match=">= 0"):
            ServerDown(-0.1, "server#0")

    def test_degrade_factor_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="factor"):
            LinkDegrade(0.1, "a", "b", 0.5)

    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_what_never_fires_is_rejected(self, value):
        """An event at ``inf`` would never fire; a link slowed ``inf`` times
        would deliver its packets at ``t = inf``."""
        for build in (
            lambda: ServerDown(value, "server#0"),
            lambda: NodeLeave(value, "server#0"),
            lambda: RSNodeDown(value, "busiest"),
            lambda: LinkDegrade(0.1, "a", "b", value),
        ):
            with pytest.raises(ConfigurationError, match="finite"):
                build()

    @pytest.mark.parametrize(
        "event_cls, target",
        [
            (ServerDown, ("server#0",)),
            (ServerUp, ("server#0",)),
            (NodeLeave, ("server#0",)),
            (NodeJoin, ("server#0",)),
            (LinkDown, ("a", "b")),
            (LinkUp, ("a", "b")),
            (LinkDegrade, ("a", "b", 2.0)),
            (RSNodeDown, ("busiest",)),
            (RSNodeUp, (0,)),
        ],
    )
    def test_every_event_fires_at_a_finite_time(self, event_cls, target):
        for at in (0.0, 1e300):
            assert event_cls(at, *target).at == at
        for at in (-1e-9, math.inf, -math.inf, math.nan):
            with pytest.raises(ConfigurationError, match="finite and >= 0"):
                event_cls(at, *target)

    @pytest.mark.parametrize(
        "clause",
        [
            "server-down@inf:server#0",
            "server-up@nan:server#0",
            "link-down@-1e-3:tor0.0/agg0.0",
            "rsnode-down@inf:busiest",
            "link-degrade@inf:tor0.0/agg0.0*2",
            "link-degrade@0.01:tor0.0/agg0.0*inf",
            "node-leave@inf:server#1",
        ],
    )
    def test_parser_names_the_clause_out_of_range(self, clause):
        with pytest.raises(ConfigurationError) as excinfo:
            parse_fault_schedule(f"server-down@0.01:server#1;{clause}")
        assert repr(clause) in str(excinfo.value)

    @pytest.mark.parametrize(
        "field, spec",
        [
            ("fault_schedule", "server-down@inf:server#0"),
            ("fault_schedule", "link-degrade@0.01:tor0.0/agg0.0*inf"),
            ("churn_schedule", "node-leave@inf:server#1"),
        ],
    )
    def test_config_validation_rejects_what_never_fires(self, field, spec):
        with pytest.raises(ConfigurationError, match="in fault clause") as excinfo:
            ExperimentConfig.tiny("clirs", 1, request_timeout=0.05, **{field: spec})
        assert repr(spec) in str(excinfo.value)

    @pytest.mark.parametrize(
        "spec, expected",
        [
            ("server-down@0.1:server#0", True),
            ("link-down@0.1:tor0.0/agg0.0", True),
            ("link-degrade@0.1:tor0.0/agg0.0*10", False),
            ("rsnode-down@0.1:busiest", False),
            ("server-up@0.1:server#0", False),
        ],
    )
    def test_requires_timeouts(self, spec, expected):
        assert parse_fault_schedule(spec).requires_timeouts() is expected


class TestDescribe:
    def test_describe_round_trips_through_parser(self):
        spec = (
            "server-down@0.05:server#0;link-degrade@0.4:tor0.1/agg0.0*50;"
            "rsnode-down@0.5:busiest;link-down@0.6:tor0.0/agg0.1"
        )
        schedule = parse_fault_schedule(spec)
        assert parse_fault_schedule(schedule.describe()).events == schedule.events


class TestRandomServerCrashes:
    def _make(self, seed):
        rng = RngRegistry(seed).stream("faults")
        return FaultSchedule.random_server_crashes(
            rng,
            servers=["hostA", "hostB", "hostC"],
            count=4,
            window=(0.0, 1.0),
            downtime=0.05,
        )

    def test_same_seed_same_schedule(self):
        assert self._make(7).describe() == self._make(7).describe()

    def test_different_seed_different_schedule(self):
        assert self._make(7).describe() != self._make(8).describe()

    def test_shape(self):
        schedule = self._make(7)
        downs = [e for e in schedule if isinstance(e, ServerDown)]
        ups = [e for e in schedule if isinstance(e, ServerUp)]
        assert len(downs) == len(ups) == 4
        assert all(0.0 <= e.at <= 1.0 for e in downs)
        assert schedule.requires_timeouts()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(servers=[], count=1, window=(0.0, 1.0), downtime=0.05),
            dict(servers=["h"], count=0, window=(0.0, 1.0), downtime=0.05),
            dict(servers=["h"], count=1, window=(1.0, 0.5), downtime=0.05),
            dict(servers=["h"], count=1, window=(0.0, 1.0), downtime=0.0),
        ],
    )
    def test_bad_arguments_rejected(self, kwargs):
        rng = RngRegistry(1).stream("faults")
        with pytest.raises(ConfigurationError):
            FaultSchedule.random_server_crashes(rng, **kwargs)
