"""Trivial placement strategies: NetRS-ToR and core-only.

``solve_tor`` is the paper's NetRS-ToR scheme: every traffic group's RSNode
is the operator co-located with its own ToR switch -- zero extra hops, but
as many RSNodes as there are client racks.  ``solve_core_only`` packs all
groups onto the fewest core operators ignoring the hop budget; it exists as
an ablation endpoint (maximally few RSNodes, maximal detours).
"""

from __future__ import annotations

from typing import Dict

from repro.core.placement.problem import PlacementProblem
from repro.core.plan import SelectionPlan
from repro.errors import InfeasiblePlanError
from repro.network.addressing import TIER_CORE, TIER_TOR
from repro.sim.guard import host_clock


def _capacity_state(problem: PlacementProblem):
    """Per-capacity-group remaining budgets (handles shared accelerators)."""
    capacity_key = {}
    remaining = {}
    for members, capacity in problem.capacity_groups():
        remaining[members] = capacity
        for operator_id in members:
            capacity_key[operator_id] = members
    return capacity_key, remaining


def solve_tor(problem: PlacementProblem) -> SelectionPlan:
    """Assign each group to its own rack's ToR operator (NetRS-ToR)."""
    started = host_clock()
    by_switch = {op.switch: op for op in problem.operators if op.tier == TIER_TOR}
    capacity_key, remaining = _capacity_state(problem)
    assignments: Dict[int, int] = {}
    unplaced = []
    for group in problem.groups:
        op = by_switch.get(group.tor)
        if op is None:
            unplaced.append(group.group_id)
            continue
        load = problem.group_load(group.group_id)
        key = capacity_key[op.operator_id]
        if load > remaining[key] * (1 + 1e-9) + 1e-9:
            unplaced.append(group.group_id)
            continue
        remaining[key] -= load
        assignments[group.group_id] = op.operator_id
    if unplaced:
        raise InfeasiblePlanError(
            f"NetRS-ToR placement failed for {len(unplaced)} group(s)",
            unplaced_groups=tuple(unplaced),
        )
    return SelectionPlan(
        assignments=assignments,
        solver="tor",
        objective=float(len(set(assignments.values()))),
        solve_time=host_clock() - started,
    )


def solve_core_only(problem: PlacementProblem) -> SelectionPlan:
    """Pack all groups onto as few core operators as capacity allows.

    Ignores the extra-hops budget by design (ablation endpoint); capacity is
    still respected.
    """
    started = host_clock()
    cores = [op for op in problem.operators if op.tier == TIER_CORE]
    if not cores:
        raise InfeasiblePlanError(
            "no core operators available",
            unplaced_groups=tuple(g.group_id for g in problem.groups),
        )
    groups = sorted(
        problem.groups, key=lambda g: problem.group_load(g.group_id), reverse=True
    )
    capacity_key, remaining = _capacity_state(problem)
    assignments: Dict[int, int] = {}
    unplaced = []
    for group in groups:
        load = problem.group_load(group.group_id)
        target = None
        for op in cores:  # first-fit over a stable order packs tightly
            if load <= remaining[capacity_key[op.operator_id]] * (1 + 1e-9) + 1e-9:
                target = op
                break
        if target is None:
            unplaced.append(group.group_id)
            continue
        remaining[capacity_key[target.operator_id]] -= load
        assignments[group.group_id] = target.operator_id
    if unplaced:
        raise InfeasiblePlanError(
            f"core-only placement failed for {len(unplaced)} group(s)",
            unplaced_groups=tuple(unplaced),
        )
    return SelectionPlan(
        assignments=assignments,
        solver="core-only",
        objective=float(len(set(assignments.values()))),
        solve_time=host_clock() - started,
    )
