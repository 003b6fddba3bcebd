"""Property-based tests (hypothesis) on core data structures and invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.placement import solve_greedy, solve_ilp
from repro.core.placement.problem import PlacementProblem, build_operator_specs
from repro.core.plan import make_traffic_groups
from repro.errors import InfeasiblePlanError, RoutingError
from repro.kvstore.hashing import ConsistentHashRing
from repro.kvstore.workload import DemandWeights, OpenLoopWorkload, ZipfSampler
from repro.network.fattree import build_fat_tree
from repro.network.packet import (
    MAGIC_MONITOR,
    MAGIC_REQUEST,
    MAGIC_RESPONSE,
    magic_transform,
    magic_untransform,
)
from repro.network.routing import Router
from repro.network.topology import NodeKind
from repro.sim import Environment
from repro.sim.probes import LatencyRecorder

TOPO = build_fat_tree(4)
ROUTER = Router(TOPO)
HOSTS = [h.name for h in TOPO.hosts]


class TestEventOrdering:
    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=1, max_size=60))
    def test_callbacks_fire_in_time_order(self, delays):
        env = Environment()
        fired = []
        for delay in delays:
            env.call_in(delay, lambda d=delay: fired.append((env.now, d)))
        env.run()
        times = [t for t, _ in fired]
        assert times == sorted(times)
        assert len(fired) == len(delays)

    @given(
        st.lists(
            st.tuples(st.floats(min_value=0, max_value=10), st.integers()),
            min_size=1,
            max_size=40,
        )
    )
    def test_equal_times_preserve_insertion_order(self, items):
        env = Environment()
        fired = []
        for delay, tag in items:
            env.call_in(delay, fired.append, (delay, tag))
        env.run()
        for delay in {d for d, _ in items}:
            expected = [(d, t) for d, t in items if d == delay]
            got = [(d, t) for d, t in fired if d == delay]
            assert got == expected


class TestMagicField:
    @given(st.integers(min_value=0, max_value=2**48 - 1))
    def test_transform_is_an_involution(self, magic):
        assert magic_untransform(magic_transform(magic)) == magic

    @given(st.sampled_from([MAGIC_REQUEST, MAGIC_RESPONSE, MAGIC_MONITOR]))
    def test_transform_never_collides_with_base_magics(self, magic):
        assert magic_transform(magic) not in {
            MAGIC_REQUEST,
            MAGIC_RESPONSE,
            MAGIC_MONITOR,
        }


class TestRoutingProperties:
    @given(
        st.sampled_from(HOSTS),
        st.sampled_from(HOSTS),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_paths_are_wired_and_terminate(self, src, dst, key):
        if src == dst:
            assert ROUTER.path(src, dst, key) == []
            return
        path = ROUTER.path(src, dst, key)
        previous = src
        for node in path:
            assert node in TOPO.neighbors(previous)
            previous = node
        assert path[-1] == dst
        assert len(path) <= 6

    @given(
        st.sampled_from(HOSTS),
        st.sampled_from(HOSTS),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_paths_are_valley_free(self, src, dst, key):
        """Tier sequence descends only after it is done ascending."""
        path = ROUTER.path(src, dst, key)
        tiers = [TOPO.node(n).tier for n in path]
        if not tiers:
            return
        turned_down = False
        previous = TOPO.node(src).tier
        for tier in tiers:
            if tier > previous:  # moving away from core
                turned_down = True
            elif tier < previous and turned_down:
                raise AssertionError(f"valley in path {path}")
            previous = tier

    @given(
        st.sampled_from(HOSTS),
        st.sampled_from([s.name for s in TOPO.switches]),
        st.sampled_from(HOSTS),
        st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_waypoint_paths_pass_the_waypoint(self, src, waypoint, dst, key):
        """Where routing via a waypoint is defined, it visits the waypoint."""
        try:
            up = ROUTER.path(src, waypoint, key)
            down = ROUTER.path(waypoint, dst, key)
        except RoutingError:
            return  # combination not used by NetRS (e.g. foreign-rack ToR)
        full = up + down
        if src != waypoint:
            assert waypoint in full


class TestHashRingProperties:
    @given(
        st.integers(min_value=4, max_value=20),
        st.integers(min_value=1, max_value=3),
        st.lists(st.integers(min_value=0), min_size=1, max_size=50),
    )
    def test_groups_always_have_rf_distinct_members(self, n_servers, rf, keys):
        servers = [f"s{i}" for i in range(n_servers)]
        ring = ConsistentHashRing(
            servers, replication_factor=rf, virtual_nodes=4
        )
        for key in keys:
            rgid, replicas = ring.group_for_key(key)
            assert len(set(replicas)) == rf
            assert ring.groups[rgid] == replicas


class TestZipfProperties:
    @given(
        st.integers(min_value=1, max_value=10**6),
        st.floats(min_value=0.1, max_value=3.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    @settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
    def test_samples_always_in_bounds(self, n, s, seed):
        sampler = ZipfSampler(n, s, np.random.default_rng(seed))
        assert all(1 <= key <= n for key in sampler.draw(100))


class TestDemandWeightProperties:
    @given(
        st.integers(min_value=2, max_value=200),
        st.one_of(st.none(), st.floats(min_value=0.01, max_value=0.99)),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_probabilities_form_a_distribution(self, n, skew, seed):
        weights = DemandWeights(
            n, skew=skew, rng=np.random.default_rng(seed) if skew else None
        )
        assert np.all(weights.probabilities >= 0)
        assert weights.probabilities.sum() == np.float64(1.0) or abs(
            weights.probabilities.sum() - 1.0
        ) < 1e-9
        workload = OpenLoopWorkload(
            Environment(),
            rate=1.0,
            clients=[None] * n,
            weights=weights,
            key_sampler=ZipfSampler(10, 0.99, np.random.default_rng(seed)),
            rng=np.random.default_rng(seed),
            total_requests=1,
        )
        _, clients, _, _ = workload.draw_requests(1)
        assert 0 <= clients[0] < n


class TestLatencyRecorderProperties:
    @given(
        st.lists(
            st.floats(min_value=0, max_value=1e3, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    def test_percentiles_are_monotone_and_bounded(self, samples):
        recorder = LatencyRecorder()
        recorder.extend(samples)
        p50 = recorder.percentile(50)
        p95 = recorder.percentile(95)
        p99 = recorder.percentile(99.9)
        assert min(samples) <= p50 <= p95 <= p99 <= max(samples)
        epsilon = 1e-9 * max(1.0, max(samples))
        assert min(samples) - epsilon <= recorder.mean() <= max(samples) + epsilon


class TestPlacementProperties:
    OPERATORS = build_operator_specs(
        TOPO,
        accelerator_cores=1,
        accelerator_service_time=5e-6,
        max_utilization=0.5,
        work_per_request=2.0,
    )

    @given(
        st.lists(st.sampled_from(HOSTS), min_size=1, max_size=10, unique=True),
        st.floats(min_value=100.0, max_value=40_000.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=0.3),
    )
    @settings(max_examples=25, deadline=None)
    def test_solved_plans_always_satisfy_constraints(
        self, clients, rate, tier_mix, budget_fraction
    ):
        groups = make_traffic_groups(TOPO, clients)
        traffic = {
            g.group_id: (
                rate * (1 - tier_mix),
                rate * tier_mix * 0.7,
                rate * tier_mix * 0.3,
            )
            for g in groups
        }
        total = sum(sum(t) for t in traffic.values())
        problem = PlacementProblem(
            groups=groups,
            operators=self.OPERATORS,
            traffic=traffic,
            extra_hops_budget=budget_fraction * total,
        )
        try:
            ilp = solve_ilp(problem)
        except InfeasiblePlanError:
            ilp = None
        try:
            greedy = solve_greedy(problem)
        except InfeasiblePlanError:
            greedy = None
        # check_assignment runs inside both solvers; re-check here and compare.
        if ilp is not None:
            problem.check_assignment(ilp.assignments)
        if greedy is not None:
            problem.check_assignment(greedy.assignments)
        if ilp is not None and greedy is not None:
            assert ilp.rsnode_count <= greedy.rsnode_count
        # If the exact solver proves infeasibility, greedy must not "succeed".
        if ilp is None:
            assert greedy is None
