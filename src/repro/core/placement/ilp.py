"""Exact ILP solver for RSNode placement (paper Equations 1-7).

Decision variables: ``P[i][j]`` (group ``i`` selected at operator ``j``, only
materialized for eligible pairs -- Equation (4) prunes the rest) and
``D[j]`` (operator ``j`` is an RSNode).  The objective minimizes
``sum(D_j)``; an optional epsilon-weighted extra-hops term breaks ties in
favor of cheaper plans without ever trading an RSNode for hops.

The paper solves this with Gurobi/CPLEX; we use SciPy's HiGHS backend
(``scipy.optimize.milp``), which is likewise exact.  A time limit reproduces
the paper's early-termination/suboptimal-plan trade-off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.core.placement.problem import PlacementProblem
from repro.core.plan import SelectionPlan
from repro.errors import InfeasiblePlanError, PlacementError
from repro.sim.guard import host_clock


def solve_ilp(
    problem: PlacementProblem,
    *,
    time_limit: Optional[float] = None,
    hop_tie_break: bool = True,
) -> SelectionPlan:
    """Solve the placement ILP exactly; raises on infeasibility.

    Args:
        problem: The placement inputs.
        time_limit: Optional solver wall-clock budget in seconds; a feasible
            incumbent found within the budget is returned even if optimality
            was not proven.
        hop_tie_break: Add an epsilon extra-hops term to the objective so
            equally sized plans prefer fewer extra hops.
    """
    started = host_clock()
    groups = problem.groups
    operators = problem.operators
    op_index = {op.operator_id: j for j, op in enumerate(operators)}

    # Variable layout: first all eligible P pairs, then D per operator.
    pairs: List[Tuple[int, int]] = []  # (group list index, operator list index)
    for gi, group in enumerate(groups):
        eligible = [op_index[op.operator_id] for op in problem.eligible_operators(group)]
        if not eligible:
            raise InfeasiblePlanError(
                f"group {group.group_id} has no eligible operator",
                unplaced_groups=(group.group_id,),
            )
        pairs.extend((gi, oj) for oj in eligible)
    n_pairs = len(pairs)
    n_ops = len(operators)
    n_vars = n_pairs + n_ops

    # Objective: minimize sum(D) (+ epsilon * normalized extra hops).
    c = np.zeros(n_vars)
    c[n_pairs:] = 1.0
    if hop_tie_break:
        hop_cost = np.array(
            [
                problem.extra_hops_rate(groups[gi], operators[oj])
                for gi, oj in pairs
            ]
        )
        scale = max(problem.extra_hops_budget, hop_cost.max(), 1.0)
        # Keep the tie-break strictly smaller than 1 in total so it can never
        # buy an extra RSNode.
        c[:n_pairs] = hop_cost / (scale * max(n_pairs, 1) * 4.0)

    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    lower: List[float] = []
    upper: List[float] = []
    row = 0

    # Equation (5): each group selected exactly once.
    for gi in range(len(groups)):
        for k, (pg, _po) in enumerate(pairs):
            if pg == gi:
                rows.append(row)
                cols.append(k)
                data.append(1.0)
        lower.append(1.0)
        upper.append(1.0)
        row += 1

    # Equation (3): P_ij <= D_j.
    for k, (_pg, po) in enumerate(pairs):
        rows.extend([row, row])
        cols.extend([k, n_pairs + po])
        data.extend([1.0, -1.0])
        lower.append(-np.inf)
        upper.append(0.0)
        row += 1

    # Equation (6): accelerator capacity, one row per capacity group (a
    # shared accelerator's switch set, or a singleton otherwise).
    for member_ids, capacity in problem.capacity_groups():
        member_indexes = {op_index[oid] for oid in member_ids}
        touched = False
        for k, (pg, po) in enumerate(pairs):
            if po in member_indexes:
                rows.append(row)
                cols.append(k)
                data.append(problem.group_load(groups[pg].group_id))
                touched = True
        if touched:
            lower.append(-np.inf)
            upper.append(capacity)
            row += 1

    # Equation (7): global extra-hops budget.
    for k, (pg, po) in enumerate(pairs):
        cost = problem.extra_hops_rate(groups[pg], operators[po])
        if cost:
            rows.append(row)
            cols.append(k)
            data.append(cost)
    lower.append(-np.inf)
    upper.append(problem.extra_hops_budget)
    row += 1

    constraint_matrix = csr_matrix(
        (data, (rows, cols)), shape=(row, n_vars)
    )
    constraints = LinearConstraint(constraint_matrix, lower, upper)
    bounds = Bounds(lb=np.zeros(n_vars), ub=np.ones(n_vars))
    integrality = np.ones(n_vars)

    options: Dict[str, object] = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    result = milp(
        c,
        constraints=constraints,
        bounds=bounds,
        integrality=integrality,
        options=options,
    )
    if result.status not in (0, 1) or result.x is None:
        # status 0 = optimal, 1 = iteration/time limit (may carry incumbent).
        raise InfeasiblePlanError(
            f"placement ILP infeasible or unsolved: {result.message}",
            unplaced_groups=tuple(g.group_id for g in groups),
        )

    x = np.asarray(result.x)
    assignments: Dict[int, int] = {}
    for k, (pg, po) in enumerate(pairs):
        if x[k] > 0.5:
            assignments[groups[pg].group_id] = operators[po].operator_id
    if len(assignments) != len(groups):
        raise PlacementError(
            "solver returned an incomplete assignment "
            f"({len(assignments)}/{len(groups)} groups)"
        )
    problem.check_assignment(assignments)
    return SelectionPlan(
        assignments=assignments,
        solver="ilp",
        objective=float(len(set(assignments.values()))),
        solve_time=host_clock() - started,
    )
