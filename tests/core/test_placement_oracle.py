"""Placement optimality against an exhaustive search that is not HiGHS.

On k = 4 fat-trees, the fewest RSNodes a problem admits is found by
enumerating RSNode sets by increasing size and trying every assignment of
the groups to each set.  The search reads only the scalar model
(``eligible``, ``extra_hops_rate``, ``group_load``, ``capacity_groups``),
never the array view the solvers share.
"""

from itertools import combinations

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.core.placement import solve_greedy, solve_ilp
from repro.core.placement.problem import PlacementProblem, build_operator_specs
from repro.core.plan import make_traffic_groups
from repro.errors import InfeasiblePlanError
from repro.network.fattree import build_fat_tree

TOPO = build_fat_tree(4)
HOSTS = [h.name for h in TOPO.hosts]
# 50 000 req/s per operator (U = 0.5, one core, 5 us, two packets a request).
OPERATORS = build_operator_specs(
    TOPO,
    accelerator_cores=1,
    accelerator_service_time=5e-6,
    max_utilization=0.5,
    work_per_request=2.0,
)
# Rates on a coarse grid, so no sum lands within a tolerance of a limit.
RATES = (0.0, 500.0, 4_000.0, 12_000.0, 25_000.0)


def _within(value, limit):
    return value <= limit * (1 + 1e-9) + 1e-6


def search_optimum(problem):
    """The fewest RSNodes of any feasible assignment, found exhaustively.

    Raises:
        InfeasiblePlanError: when no set of operators admits one.
    """
    groups = problem.groups
    load = {g.group_id: problem.group_load(g.group_id) for g in groups}
    capacity_of = {}
    for members, capacity in problem.capacity_groups():
        for operator_id in members:
            capacity_of[operator_id] = (members, capacity)
    budget = problem.extra_hops_budget
    # Per group, the operators that could serve it alone.
    usable = {
        g.group_id: {
            op.operator_id: problem.extra_hops_rate(g, op)
            for op in problem.operators
            if problem.eligible(g, op)
            and _within(load[g.group_id], capacity_of[op.operator_id][1])
            and _within(problem.extra_hops_rate(g, op), budget)
        }
        for g in groups
    }

    def assignable(chosen, index=0, used=None, hops=0.0):
        used = {} if used is None else used
        if index == len(groups):
            return True
        group_id = groups[index].group_id
        for operator_id in chosen:
            if operator_id not in usable[group_id]:
                continue
            members, capacity = capacity_of[operator_id]
            joint = used.get(members, 0.0) + load[group_id]
            extra = hops + usable[group_id][operator_id]
            if not (_within(joint, capacity) and _within(extra, budget)):
                continue
            used[members] = joint
            if assignable(chosen, index + 1, used, extra):
                return True
            used[members] = joint - load[group_id]
        return False

    candidates = sorted({oid for ops in usable.values() for oid in ops})
    if assignable(candidates):
        for size in range(1, len(groups) + 1):
            for chosen in combinations(candidates, size):
                covered = all(
                    any(oid in usable[g.group_id] for oid in chosen) for g in groups
                )
                if covered and assignable(chosen):
                    return size
    raise InfeasiblePlanError(
        "no RSNode set admits a feasible assignment",
        unplaced_groups=tuple(g.group_id for g in groups),
    )


@st.composite
def problems(draw, rates=st.sampled_from(RATES)):
    clients = draw(st.lists(st.sampled_from(HOSTS), min_size=1, max_size=6, unique=True))
    groups = make_traffic_groups(TOPO, clients)
    traffic = {
        g.group_id: draw(st.tuples(rates, rates, rates)) for g in groups
    }
    shared = draw(
        st.lists(
            st.sampled_from([op.operator_id for op in OPERATORS]),
            min_size=2,
            max_size=3,
            unique=True,
        )
    )
    budget = draw(st.sampled_from((0.0, 1_000.0, 8_000.0, 30_000.0, 1e9)))
    return PlacementProblem(
        groups=groups,
        operators=OPERATORS,
        traffic=traffic,
        extra_hops_budget=budget,
        shared_accelerators={
            frozenset(shared): draw(st.sampled_from((30_000.0, 60_000.0)))
        },
    )


@given(problems())
@settings(max_examples=150, deadline=None)
def test_solve_ilp_finds_the_fewest_rsnodes(problem):
    try:
        optimum = search_optimum(problem)
    except InfeasiblePlanError:
        event("infeasible")
        with pytest.raises(InfeasiblePlanError):
            solve_ilp(problem)
        with pytest.raises(InfeasiblePlanError):
            solve_greedy(problem)
        return
    assert problem.rsnode_lower_bound() <= optimum
    plan = solve_ilp(problem)
    assert plan.rsnode_count == optimum
    assert plan.proof in ("bound", "milp")
    event(f"{optimum} RSNodes, proved by {plan.proof}")
    if plan.proof == "bound":
        assert solve_greedy(problem).rsnode_count == optimum


@given(problems(rates=st.floats(min_value=0.0, max_value=1e5)))
@settings(max_examples=40, deadline=None)
def test_array_view_equals_the_scalar_model(problem):
    """Same values, same arithmetic: equality, not a tolerance."""
    arrays = problem.arrays
    capacity_of = {}
    for row, (members, capacity) in enumerate(problem.capacity_groups()):
        assert arrays.capacities[row] == capacity
        capacity_of.update(dict.fromkeys(members, row))
    for i, group in enumerate(problem.groups):
        assert arrays.group_loads[i] == problem.group_load(group.group_id)
        for j, op in enumerate(problem.operators):
            assert arrays.eligible[i, j] == problem.eligible(group, op)
            assert arrays.hops[i, j] == problem.extra_hops_rate(group, op)
    pairs = [
        (i, j)
        for i, group in enumerate(problem.groups)
        for j, op in enumerate(problem.operators)
        if problem.eligible(group, op)
    ]
    assert list(zip(arrays.pair_group, arrays.pair_operator)) == pairs
    assert list(arrays.capacity_row) == [
        capacity_of[op.operator_id] for op in problem.operators
    ]


def test_search_counts_a_budget_that_forces_every_rack_apart():
    """No hop budget and traffic at every tier: each group on its own ToR."""
    groups = make_traffic_groups(TOPO, ["host0.0.0", "host1.0.0", "host2.1.1"])
    problem = PlacementProblem(
        groups=groups,
        operators=OPERATORS,
        traffic={g.group_id: (500.0, 500.0, 500.0) for g in groups},
        extra_hops_budget=0.0,
    )
    assert search_optimum(problem) == 3
    assert solve_ilp(problem).rsnode_count == 3
