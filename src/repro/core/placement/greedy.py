"""Greedy heuristic for RSNode placement.

First-fit-decreasing bin packing biased toward operators that can serve many
groups; :func:`~repro.core.placement.ilp.solve_ilp` runs it first and keeps
its plan when it meets the problem's lower bound.

Strategy: consider groups in decreasing load order.  For each group, try to
reuse an already *open* RSNode (eligible, spare capacity, affordable hops),
preferring the one whose marginal extra-hop cost is smallest; otherwise open
the eligible operator that could also serve the most groups (cores first in
practice, since they are eligible for everything).

Capacity is tracked per *capacity group* -- a shared accelerator's switch
set or a singleton -- so the paper's shared-accelerator deployments are
handled identically to the ILP.

It never violates a constraint, but it can open many more RSNodes than the
ILP (14 against 3 at the default point); it is optimal on the paper's
profile, where one core cannot carry every group and two can.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.placement.problem import PlacementProblem
from repro.core.plan import SelectionPlan
from repro.errors import InfeasiblePlanError
from repro.sim.guard import host_clock


def solve_greedy(problem: PlacementProblem) -> SelectionPlan:
    """Compute a feasible plan greedily; raises on failure.

    Raises:
        InfeasiblePlanError: carrying the groups that could not be placed,
            so the controller can degrade exactly those and retry.
    """
    started = host_clock()
    arrays = problem.arrays
    n_ops = len(problem.operators)
    remaining = arrays.capacities.copy()
    hop_budget = problem.extra_hops_budget
    coverage = arrays.eligible.sum(axis=0)
    opened_as = np.full(n_ops, n_ops)  # open order; n_ops while closed
    n_open = 0
    assignments: Dict[int, int] = {}
    unplaced: List[int] = []

    for gi in np.argsort(-arrays.group_loads, kind="stable"):
        group_id = problem.groups[gi].group_id
        load = arrays.group_loads[gi]
        pairs = slice(arrays.group_start[gi], arrays.group_start[gi + 1])
        ops = arrays.pair_operator[pairs]
        hops = arrays.pair_hops[pairs]
        spare = remaining[arrays.capacity_row[ops]]
        usable = np.flatnonzero(
            (load <= spare * (1 + 1e-9) + 1e-9) & (hops <= hop_budget + 1e-12)
        )
        rank = opened_as[ops[usable]]
        reusable = rank < n_ops
        if reusable.any():
            # 1. Reuse an open RSNode: cheapest marginal hops, earliest opened.
            candidates = usable[reusable]
            best = candidates[np.lexsort((rank[reusable], hops[candidates]))[0]]
        elif usable.size:
            # 2. Open a new RSNode: widest coverage, then cheapest hops, then
            #    operator order.
            best = usable[np.lexsort((hops[usable], -coverage[ops[usable]]))[0]]
            opened_as[ops[best]] = n_open
            n_open += 1
        else:
            unplaced.append(group_id)
            continue
        assignments[group_id] = problem.operators[ops[best]].operator_id
        remaining[arrays.capacity_row[ops[best]]] -= load
        hop_budget -= hops[best]

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
