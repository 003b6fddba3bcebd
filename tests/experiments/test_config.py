"""Tests for experiment configuration and derived quantities."""

import dataclasses

import pytest

from repro.errors import ConfigurationError
from repro.experiments.config import (
    NETRS_SCHEMES,
    SCHEMES,
    ExperimentConfig,
)
from repro.experiments.grid import run_grid
from repro.experiments.sweep import sweep_jobs


class TestDerived:
    def test_arrival_rate_matches_paper_definition(self):
        """Paper profile: 0.9 * 100 * 4 / 4ms = 90,000 requests/s."""
        config = ExperimentConfig.paper()
        assert config.arrival_rate() == pytest.approx(90_000.0)

    def test_effective_utilization(self):
        """Paper: 2 * 0.9 / (1 + 3) = 45%."""
        config = ExperimentConfig.paper()
        assert config.effective_utilization() == pytest.approx(0.45)

    def test_extra_hops_budget_is_fraction_of_rate(self):
        config = ExperimentConfig.paper()
        assert config.extra_hops_budget() == pytest.approx(0.2 * 90_000.0)

    def test_prior_service_rate(self):
        config = ExperimentConfig()
        assert config.prior_service_rate() == pytest.approx(4 / 4e-3)

    def test_warmup_requests(self):
        config = ExperimentConfig(total_requests=1000, warmup_fraction=0.1)
        assert config.warmup_requests() == 100

    def test_total_hosts(self):
        assert ExperimentConfig(fat_tree_k=16).total_hosts() == 1024
        assert ExperimentConfig(fat_tree_k=8).total_hosts() == 128


class TestSchemes:
    def test_scheme_flags(self):
        assert not ExperimentConfig(scheme="clirs").netrs
        assert not ExperimentConfig(scheme="clirs").redundancy_enabled
        assert ExperimentConfig(scheme="clirs-r95").redundancy_enabled
        for scheme in NETRS_SCHEMES:
            assert ExperimentConfig(scheme=scheme).netrs

    def test_solver_mapping(self):
        assert ExperimentConfig(scheme="netrs-ilp").solver == "ilp"
        assert ExperimentConfig(scheme="netrs-tor").solver == "tor"
        assert ExperimentConfig(scheme="netrs-greedy").solver == "greedy"
        assert ExperimentConfig(scheme="netrs-core").solver == "core-only"

    def test_all_schemes_valid(self):
        for scheme in SCHEMES:
            ExperimentConfig.tiny(scheme=scheme).validate()


#: Every way a config is made from keyword names, each given one name = 1.
_KEYWORD_PATHS = {
    "tiny": lambda name: ExperimentConfig.tiny(**{name: 1}),
    "small": lambda name: ExperimentConfig.small(**{name: 1}),
    "paper": lambda name: ExperimentConfig.paper(**{name: 1}),
    "replace": lambda name: ExperimentConfig.tiny().replace(**{name: 1}),
    "sweep": lambda name: sweep_jobs(
        ExperimentConfig.tiny(), parameter=name, values=[1], schemes=["clirs"]
    ),
    "grid": lambda name: run_grid(
        ExperimentConfig.tiny(), row_parameter=name, row_values=[1],
        column_parameter="n_clients", column_values=[4], schemes=["clirs"],
    ),
}


class TestValidation:
    def test_unknown_scheme(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(scheme="bogus").validate()

    def test_odd_fat_tree(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(fat_tree_k=5).validate()

    def test_too_many_roles(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(
                fat_tree_k=4, n_servers=10, n_clients=10
            ).validate()

    def test_servers_below_replication(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(n_servers=2, replication_factor=3).validate()

    def test_skew_bounds(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(demand_skew=1.5).validate()

    def test_warmup_bounds(self):
        with pytest.raises(ConfigurationError):
            ExperimentConfig(warmup_fraction=1.0).validate()

    @pytest.mark.parametrize(
        "scheme, period",
        [("clirs", 0.05), ("clirs-r95", 0.05), ("netrs-ilp", 0.0), ("netrs-tor", -1.0)],
    )
    def test_replan_period_needs_a_placement_and_to_be_positive(self, scheme, period):
        with pytest.raises(ConfigurationError, match="replan_period"):
            ExperimentConfig.tiny(scheme=scheme, replan_period=period)
        ExperimentConfig.tiny(scheme="netrs-ilp", replan_period=0.05)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("accelerator_service_time", 0.0),  # was a ZeroDivisionError at build
            ("accelerator_link_delay", -1e-6),  # a bare ValueError at build
            ("accelerator_cores", 0),
            ("redundancy_percentile", 150.0),  # a ValueError mid-run
            ("redundancy_min_samples", 0),  # a NaN timer: "run stalled"
            ("value_size", -5),  # ran, and booked negative wire bytes
            ("mean_service_time", float("nan")),  # hung
            ("mean_service_time", float("inf")),  # raised mid-run
            ("fluctuation_interval", float("nan")),  # hung
            ("fluctuation_interval", 0.0),  # raised mid-run
            ("fluctuation_range", float("nan")),  # ran as stable service
            ("accelerator_service_time", float("nan")),  # "run stalled"
            ("accelerator_link_delay", float("nan")),  # "run stalled"
            ("hot_fraction", 1.0),  # raised mid-run under demand_skew
            ("hot_fraction", 0.0),
            ("key_space", 0),  # raised mid-run
            ("virtual_nodes", 0),
            ("zipf_exponent", 0.0),
            ("parallelism", 0),  # a bare ValueError at build
            ("max_accelerator_utilization", 0.0),  # raised mid-run (NetRS)
            ("max_accelerator_utilization", 1.5),
            ("work_per_request", 0.0),
            ("extra_hops_fraction", -0.1),
            ("utilization", float("inf")),  # ran
        ],
    )
    def test_out_of_range_numbers_fail_at_config_time(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig.tiny(scheme="netrs-ilp", **{field: value})
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig.tiny(scheme="clirs-r95", **{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [
            ("host_link_latency", float("nan")),  # ran, and ended as "run stalled"
            ("request_timeout", float("nan")),
            ("request_timeout", float("inf")),
            ("switch_link_latency", -1e-6),  # a bare ValueError at build
            ("switch_link_latency", float("inf")),
            ("ewma_alpha", 1.0),  # a bare ValueError from the server's rate EWMA
            ("ewma_alpha", -0.1),
            ("seed", -1),  # numpy's ValueError
        ],
    )
    @pytest.mark.parametrize("fidelity", ["packet", "flow"])
    def test_the_fabric_s_own_fields_fail_at_config_time(self, field, value, fidelity):
        with pytest.raises(ConfigurationError, match=field):
            ExperimentConfig.tiny(fidelity=fidelity, **{field: value})
        ExperimentConfig.tiny(  # the edges of every range pass, on either tier
            fidelity=fidelity,
            host_link_latency=0.0, switch_link_latency=0.0, request_timeout=1e-3,
            ewma_alpha=0.0, seed=0,
        )

    @pytest.mark.parametrize("value", ["2", "bogus", 0, -1, True])
    def test_bad_group_granularity_fails_at_config_time(self, value):
        """Was accepted here and raised only when the plan was built."""
        with pytest.raises(ConfigurationError, match="group_granularity"):
            ExperimentConfig(scheme="netrs-ilp", group_granularity=value).validate()

    def test_replace_validates(self):
        config = ExperimentConfig.tiny()
        with pytest.raises(ConfigurationError):
            config.replace(scheme="bogus")

    @pytest.mark.parametrize("path", sorted(_KEYWORD_PATHS))
    @pytest.mark.parametrize("name", ["arrival_rate", "validate", "workload_mode"])
    def test_a_name_that_is_no_field_is_refused(self, name, path):
        """A method, or a field the model no longer has, is named in a
        ConfigurationError wherever a config is made from keywords."""
        with pytest.raises(ConfigurationError, match=f"unknown config field '{name}'"):
            _KEYWORD_PATHS[path](name)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("workload_mode", "closed"),
            ("closed_window", 4),
            ("think_time", 1e-3),
            ("background_traffic_rate", 100.0),
            ("background_packet_size", 1000),
            ("link_bandwidth", 1e9),
            ("track_link_stats", True),
            ("solver_time_limit", 5.0),
        ],
    )
    def test_a_removed_field_is_refused_by_name(self, name, value):
        """The model has open-loop clients, pure-delay links and a placement
        solved to optimality only: an old script's closed-loop,
        cross-traffic, bandwidth, link-stats or solver-budget keyword is
        named, not silently dropped."""
        assert name not in {field.name for field in dataclasses.fields(ExperimentConfig)}
        with pytest.raises(ConfigurationError, match=f"unknown config field '{name}'"):
            ExperimentConfig.tiny(**{name: value})

    def test_replace_returns_copy(self):
        config = ExperimentConfig.tiny()
        other = config.replace(seed=9)
        assert other.seed == 9
        assert config.seed != 9


class TestProfiles:
    def test_paper_profile_dimensions(self):
        config = ExperimentConfig.paper(scheme="netrs-ilp")
        assert config.fat_tree_k == 16
        assert config.n_servers == 100
        assert config.n_clients == 500
        assert config.total_requests == 6_000_000
        assert config.key_space == 100_000_000
        config.validate()

    def test_small_profile_fits_topology(self):
        config = ExperimentConfig.small()
        assert config.n_servers + config.n_clients <= config.total_hosts()

    def test_overrides_apply(self):
        config = ExperimentConfig.small(scheme="netrs-tor", n_clients=16)
        assert config.n_clients == 16
        assert config.scheme == "netrs-tor"

    def test_tiny_is_fast_sized(self):
        config = ExperimentConfig.tiny()
        assert config.total_requests <= 1000
