"""Exact ILP solver for RSNode placement (paper Equations 1-7).

Decision variables: ``P[i][j]`` (group ``i`` selected at operator ``j``, only
materialized for eligible pairs -- Equation (4) prunes the rest) and
``D[j]`` (operator ``j`` is an RSNode).  The objective minimizes
``sum(D_j)``; an optional epsilon-weighted extra-hops term breaks ties in
favor of cheaper plans without ever trading an RSNode for hops.

The paper solves this with Gurobi/CPLEX; we use SciPy's HiGHS backend
(``scipy.optimize.milp``), which is likewise exact.  Before it, the greedy
heuristic runs: when its RSNode count meets
:meth:`~repro.core.placement.problem.PlacementProblem.rsnode_lower_bound`
no plan has fewer, and its plan is returned without the MILP (the
paper-size solve takes milliseconds instead of a minute and more).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import csr_matrix

from repro.core.placement.greedy import solve_greedy
from repro.core.placement.problem import PlacementProblem
from repro.core.plan import SelectionPlan
from repro.errors import InfeasiblePlanError, PlacementError
from repro.sim.guard import host_clock

#: ``scipy.optimize.milp``'s status for a problem proven infeasible; 0 is
#: optimal, anything else means the solver stopped without an answer.
_HIGHS_INFEASIBLE = 2


def solve_ilp(
    problem: PlacementProblem,
    *,
    hop_tie_break: bool = True,
) -> SelectionPlan:
    """Solve the placement ILP exactly.

    Raises :class:`~repro.errors.InfeasiblePlanError` when no plan exists
    (the controller then degrades a group and retries), and
    :class:`~repro.errors.PlacementError` when HiGHS stops without deciding.

    The plan's ``proof`` says how its RSNode count was shown minimal:
    ``"bound"`` (the greedy plan meets the lower bound) or ``"milp"``.

    Args:
        problem: The placement inputs.
        hop_tie_break: Add an epsilon extra-hops term to the objective so
            equally sized plans prefer fewer extra hops (within HiGHS's
            relative gap; the bound path keeps the greedy plan's hops).
    """
    started = host_clock()
    arrays = problem.arrays
    groups = problem.groups
    empty = np.flatnonzero(~arrays.eligible.any(axis=1))
    if empty.size:
        group_id = groups[empty[0]].group_id
        raise InfeasiblePlanError(
            f"group {group_id} has no eligible operator",
            unplaced_groups=(group_id,),
        )

    try:
        greedy = solve_greedy(problem)
    except InfeasiblePlanError:
        greedy = None
    if greedy is not None and greedy.rsnode_count == problem.rsnode_lower_bound():
        return SelectionPlan(
            assignments=greedy.assignments,
            solver="ilp",
            objective=greedy.objective,
            solve_time=host_clock() - started,
            proof="bound",
        )

    # Variable layout: first all eligible P pairs, then D per operator.
    pair_group = arrays.pair_group
    pair_operator = arrays.pair_operator
    n_groups = len(groups)
    n_pairs = pair_group.size
    n_ops = len(problem.operators)
    n_vars = n_pairs + n_ops
    pair_ids = np.arange(n_pairs)

    # Objective: minimize sum(D) (+ epsilon * normalized extra hops).
    c = np.zeros(n_vars)
    c[n_pairs:] = 1.0
    if hop_tie_break:
        hop_cost = arrays.pair_hops
        scale = max(problem.extra_hops_budget, hop_cost.max(), 1.0)
        # Keep the tie-break strictly smaller than 1 in total so it can never
        # buy an extra RSNode.
        c[:n_pairs] = hop_cost / (scale * max(n_pairs, 1) * 4.0)

    # Equation (5): each group selected exactly once (rows 0..groups-1).
    # Equation (3): P_ij <= D_j, one row per pair.
    link_rows = np.repeat(n_groups + pair_ids, 2)
    link_cols = np.column_stack((pair_ids, n_pairs + pair_operator)).ravel()
    link_data = np.tile([1.0, -1.0], n_pairs)
    # Equation (6): accelerator capacity, one row per capacity group (a
    # shared accelerator's switch set, or a singleton otherwise) that any
    # pair touches.
    pair_capacity = arrays.capacity_row[pair_operator]
    touched, capacity_rows = np.unique(pair_capacity, return_inverse=True)
    by_capacity = np.argsort(pair_capacity, kind="stable")
    first_capacity_row = n_groups + n_pairs
    # Equation (7): global extra-hops budget, the last row.
    hop_pairs = np.flatnonzero(arrays.pair_hops)
    hop_row = first_capacity_row + touched.size

    rows = np.concatenate(
        (
            pair_group,
            link_rows,
            first_capacity_row + capacity_rows[by_capacity],
            np.full(hop_pairs.size, hop_row),
        )
    )
    cols = np.concatenate((pair_ids, link_cols, by_capacity, hop_pairs))
    data = np.concatenate(
        (
            np.ones(n_pairs),
            link_data,
            arrays.group_loads[pair_group[by_capacity]],
            arrays.pair_hops[hop_pairs],
        )
    )
    lower = np.concatenate(
        (np.ones(n_groups), np.full(n_pairs + touched.size + 1, -np.inf))
    )
    upper = np.concatenate(
        (
            np.ones(n_groups),
            np.zeros(n_pairs),
            arrays.capacities[touched],
            [problem.extra_hops_budget],
        )
    )

    constraint_matrix = csr_matrix((data, (rows, cols)), shape=(hop_row + 1, n_vars))
    constraints = LinearConstraint(constraint_matrix, lower, upper)
    bounds = Bounds(lb=np.zeros(n_vars), ub=np.ones(n_vars))
    integrality = np.ones(n_vars)

    result = milp(c, constraints=constraints, bounds=bounds, integrality=integrality)
    if result.status == _HIGHS_INFEASIBLE:
        raise InfeasiblePlanError(
            f"placement ILP infeasible: {result.message}",
            unplaced_groups=tuple(g.group_id for g in groups),
        )
    if result.status != 0 or result.x is None:
        # Stopped without a proof either way (a limit, a numerical failure):
        # no group is shown unplaceable, so none is degraded for it.
        raise PlacementError(
            f"placement ILP unsolved (HiGHS status {result.status}): {result.message}"
        )

    chosen = np.flatnonzero(np.asarray(result.x)[:n_pairs] > 0.5)
    assignments = {
        groups[pair_group[k]].group_id: problem.operators[pair_operator[k]].operator_id
        for k in chosen
    }
    if len(assignments) != n_groups:
        raise PlacementError(
            "solver returned an incomplete assignment "
            f"({len(assignments)}/{n_groups} groups)"
        )
    problem.check_assignment(assignments)
    return SelectionPlan(
        assignments=assignments,
        solver="ilp",
        objective=float(len(set(assignments.values()))),
        solve_time=host_clock() - started,
        proof="milp",
        mip_node_count=int(result.mip_node_count),
    )
