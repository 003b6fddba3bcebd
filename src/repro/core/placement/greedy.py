"""Greedy heuristic for RSNode placement.

A fallback/ablation alternative to the exact ILP: first-fit-decreasing
bin packing biased toward operators that can serve many groups.

Strategy: consider groups in decreasing load order.  For each group, try to
reuse an already *open* RSNode (eligible, spare capacity, affordable hops),
preferring the one whose marginal extra-hop cost is smallest; otherwise open
the eligible operator that could also serve the most remaining traffic
(cores first in practice, since they are eligible for everything).

Capacity is tracked per *capacity group* -- a shared accelerator's switch
set or a singleton -- so the paper's shared-accelerator deployments are
handled identically to the ILP.

The heuristic is not optimal -- the placement benchmark quantifies the gap
against the ILP -- but it is fast and never violates a constraint.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List

from repro.core.placement.problem import OperatorSpec, PlacementProblem
from repro.core.plan import SelectionPlan, TrafficGroup
from repro.errors import InfeasiblePlanError
from repro.sim.guard import host_clock


def solve_greedy(problem: PlacementProblem) -> SelectionPlan:
    """Compute a feasible plan greedily; raises on failure.

    Raises:
        InfeasiblePlanError: carrying the groups that could not be placed,
            so the controller can degrade exactly those and retry.
    """
    started = host_clock()
    groups = sorted(
        problem.groups, key=lambda g: problem.group_load(g.group_id), reverse=True
    )
    capacity_key: Dict[int, FrozenSet[int]] = {}
    remaining: Dict[FrozenSet[int], float] = {}
    for members, capacity in problem.capacity_groups():
        remaining[members] = capacity
        for operator_id in members:
            capacity_key[operator_id] = members
    hop_budget = problem.extra_hops_budget
    open_ops: List[OperatorSpec] = []
    assignments: Dict[int, int] = {}
    unplaced: List[int] = []

    def fits(op: OperatorSpec, load: float) -> bool:
        spare = remaining[capacity_key[op.operator_id]]
        return load <= spare * (1 + 1e-9) + 1e-9

    def coverage(op: OperatorSpec) -> int:
        return sum(1 for g in problem.groups if problem.eligible(g, op))

    for group in groups:
        load = problem.group_load(group.group_id)
        placed = False
        # 1. Reuse an open RSNode with the cheapest marginal hop cost.
        candidates = [
            op
            for op in open_ops
            if problem.eligible(group, op)
            and fits(op, load)
            and problem.extra_hops_rate(group, op) <= hop_budget + 1e-12
        ]
        if candidates:
            best = min(candidates, key=lambda op: problem.extra_hops_rate(group, op))
            _assign(assignments, remaining, capacity_key, group, best, load)
            hop_budget -= problem.extra_hops_rate(group, best)
            placed = True
        else:
            # 2. Open a new RSNode: prefer wide coverage, then cheap hops.
            closed = [
                op
                for op in problem.operators
                if op not in open_ops
                and problem.eligible(group, op)
                and fits(op, load)
                and problem.extra_hops_rate(group, op) <= hop_budget + 1e-12
            ]
            if closed:
                best = max(
                    closed,
                    key=lambda op: (
                        coverage(op),
                        -problem.extra_hops_rate(group, op),
                    ),
                )
                open_ops.append(best)
                _assign(assignments, remaining, capacity_key, group, best, load)
                hop_budget -= problem.extra_hops_rate(group, best)
                placed = True
        if not placed:
            unplaced.append(group.group_id)

    if unplaced:
        raise InfeasiblePlanError(
            f"greedy placement failed for {len(unplaced)} group(s)",
            unplaced_groups=tuple(unplaced),
        )
    problem.check_assignment(assignments)
    return SelectionPlan(
        assignments=assignments,
        solver="greedy",
        objective=float(len(set(assignments.values()))),
        solve_time=host_clock() - started,
    )


def _assign(
    assignments: Dict[int, int],
    remaining: Dict[FrozenSet[int], float],
    capacity_key: Dict[int, FrozenSet[int]],
    group: TrafficGroup,
    operator: OperatorSpec,
    load: float,
) -> None:
    assignments[group.group_id] = operator.operator_id
    remaining[capacity_key[operator.operator_id]] -= load
