"""Placement plans pinned to literals, and the paper-size solve's path.

The literals were recorded before the solvers moved to the array view of
:class:`~repro.core.placement.problem.PlacementProblem`: greedy plans, and
ILP plans wherever HiGHS still runs, must not move, and HiGHS must be handed
the same model byte for byte (``MODEL`` digests).  Where greedy meets the
lower bound, ``solve_ilp`` keeps greedy's plan: same RSNode count, possibly
other RSNodes.
"""

import hashlib
from functools import lru_cache

import numpy as np
import pytest
from scipy.optimize import OptimizeResult

import repro.core.placement.ilp as ilp_module
from repro.core.placement import solve_greedy
from repro.errors import InfeasiblePlanError, PlacementError
from repro.experiments import ExperimentConfig, build_scenario
from repro.experiments.scenarios import bootstrap_traffic

TINY, SMALL_32 = "tiny", "small-32"


def _config(profile, seed):
    if profile == TINY:
        return ExperimentConfig.tiny(scheme="netrs-ilp", seed=seed)
    return ExperimentConfig.small(scheme="netrs-ilp", seed=seed, n_clients=32)


def _model_digest(c, constraints, bounds, integrality):
    """What HiGHS is handed: objective, constraint matrix, row and column bounds."""
    digest = hashlib.sha256()
    matrix = constraints.A
    for array in (
        np.asarray(c),
        matrix.indptr,
        matrix.indices,
        matrix.data,
        np.asarray(constraints.lb),
        np.asarray(constraints.ub),
        np.asarray(bounds.lb),
        np.asarray(bounds.ub),
        np.asarray(integrality),
    ):
        digest.update(str(array.dtype).encode())
        digest.update(str(array.shape).encode())
        digest.update(np.ascontiguousarray(array).tobytes())
    digest.update(str(matrix.shape).encode())
    return digest.hexdigest()[:16]


@lru_cache(maxsize=None)
def _built(profile, seed):
    """The scenario's plan, the greedy plan of its problem, the models solved,
    the problem."""
    models = []
    real_milp = ilp_module.milp

    def spy(c, *, constraints, bounds, integrality, **options):
        models.append(_model_digest(c, constraints, bounds, integrality))
        return real_milp(
            c, constraints=constraints, bounds=bounds, integrality=integrality, **options
        )

    ilp_module.milp = spy
    try:
        scenario = build_scenario(_config(profile, seed))
    finally:
        ilp_module.milp = real_milp
    problem = scenario.controller.build_problem(bootstrap_traffic(scenario))
    return scenario.plan, solve_greedy(problem).assignments, models, problem


# (profile, seed): (ILP plan, digest of the one model HiGHS solved)
ILP = {
    (TINY, 0): ({1: 8, 2: 10, 3: 10, 4: 15, 5: 17, 6: 17}, "4b949e8f48af2901"),
    (TINY, 1): ({1: 2, 2: 2, 3: 2, 4: 2, 5: 19, 6: 20}, "6ceba11f02d83ca4"),
    (TINY, 42): ({1: 7, 2: 11, 3: 14, 4: 14, 5: 17, 6: 17}, "0ec2270df52cdf3a"),
    (SMALL_32, 0): (
        {
            **dict.fromkeys((1, 2, 3, *range(7, 19), 22, 23, 24), 10),
            **dict.fromkeys((4, 5, 6), 27),
            **dict.fromkeys((19, 20, 21), 67),
        },
        "fcd07dff7c056370",
    ),
    (SMALL_32, 16): (
        {
            **dict.fromkeys((*range(1, 8), *range(12, 19), 21, 22, 23), 12),
            **dict.fromkeys((8, 9, 10, 11), 36),
            **dict.fromkeys((19, 20), 59),
        },
        "15dbc1c54521864a",
    ),
}

GREEDY = {
    (TINY, 0): {1: 5, 2: 1, 3: 12, 4: 15, 5: 19, 6: 1},
    (TINY, 42): {1: 5, 2: 1, 3: 1, 4: 16, 5: 19, 6: 20},
    (SMALL_32, 0): {
        **dict.fromkeys((1, 2, 3, 4, 5, 6, 7, 8, 9, 13, 16, 21), 1),
        **dict.fromkeys((10, 11, 12), 41),
        14: 55,
        15: 56,
        17: 57,
        18: 64,
        19: 69,
        20: 71,
        22: 73,
        23: 78,
        24: 79,
    },
}


@pytest.mark.parametrize("case", sorted(ILP), ids=lambda case: f"{case[0]}-{case[1]}")
def test_ilp_plan_and_model_where_highs_runs(case):
    plan, _greedy, models, _problem = _built(*case)
    assignments, model = ILP[case]
    assert plan.proof == "milp"
    assert plan.assignments == assignments
    assert models == [model]


@pytest.mark.parametrize("case", sorted(GREEDY), ids=lambda case: f"{case[0]}-{case[1]}")
def test_greedy_plan(case):
    assert _built(*case)[1] == GREEDY[case]


@pytest.mark.parametrize(
    "case, rsnodes", [((TINY, 5), 1), ((SMALL_32, 23), 2)], ids=["tiny-5", "small-32-23"]
)
def test_greedy_meeting_the_bound_skips_highs(case, rsnodes):
    """HiGHS found the same RSNode count on both; greedy's plan is kept."""
    plan, greedy, models, _problem = _built(*case)
    assert plan.proof == "bound"
    assert plan.mip_node_count == 0
    assert plan.solver == "ilp"
    assert plan.rsnode_count == rsnodes
    assert plan.assignments == greedy
    assert models == []


def test_benchmark_cell_solves_at_the_root():
    """The benchmark's fixed ``pkt-netrs-ilp`` cell: HiGHS proves the
    3-RSNode plan at its first branch-and-bound node."""
    plan, _greedy, _models, problem = _built(SMALL_32, 0)
    assert plan.proof == "milp"
    assert plan.rsnode_count == 3
    assert plan.mip_node_count == 1
    assert problem.plan_extra_hops(plan.assignments) == pytest.approx(5737.5)


def _stopped_once(status, monkeypatch):
    """A controller whose next HiGHS solve reports ``status`` (the ones after
    it are real), and the list of solves it made."""
    scenario = build_scenario(_config(TINY, 0))
    solves = []
    real_milp = ilp_module.milp

    def stop_first(c, **options):
        solves.append(status)
        if len(solves) == 1:
            return OptimizeResult(status=status, x=None, message="stopped", mip_node_count=7)
        return real_milp(c, **options)

    monkeypatch.setattr(ilp_module, "milp", stop_first)
    return scenario.controller, bootstrap_traffic(scenario), solves


def test_a_stopped_solve_degrades_no_group(monkeypatch):
    """HiGHS stopping without an answer (status 1: a limit) proves nothing
    about the groups: the plan fails, and no group goes to DRS for it."""
    controller, traffic, solves = _stopped_once(1, monkeypatch)
    with pytest.raises(PlacementError) as raised:
        controller.plan(traffic)
    assert not isinstance(raised.value, InfeasiblePlanError)
    assert solves == [1]
    assert not controller.current_plan.drs_groups


def test_an_infeasible_solve_degrades_a_group(monkeypatch):
    """Status 2 is a proof of infeasibility: the controller degrades the
    busiest group and solves again (section III-C)."""
    controller, traffic, solves = _stopped_once(2, monkeypatch)
    plan = controller.plan(traffic)
    assert len(plan.drs_groups) == 1
    assert len(plan.assignments) == len(controller.groups) - 1


def test_paper_profile_plan_is_proven_by_the_bound():
    """127 groups, 320 operators: HiGHS takes about 100 CPU-s to prove this
    2-RSNode plan optimal.  Asserted on the plan's path, not on time."""
    plan = build_scenario(ExperimentConfig.paper(scheme="netrs-ilp", seed=1)).plan
    assert plan.proof == "bound"
    assert plan.rsnode_count == 2
    assert not plan.drs_groups
