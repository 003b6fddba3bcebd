"""Capacity relation: raising ``accelerator_cores`` or
``max_accelerator_utilization`` never adds a Degraded Replica Selection group.

An accelerator may carry ``U * cores / service_time`` packets a second
(PAPER.md section III-B, the ILP's capacity row), and the controller degrades
a group to DRS only while no plan fits the traffic into that (section III-C).
More capacity leaves every plan that fitted still fitting, so the count of
degraded groups can only fall or stay.  Only set-up is needed: the plan is
deployed by ``build_scenario``, before the first event.

The capacities sit where groups start to degrade (a few hundredths of the
paper's U = 0.5 on these profiles).  The ILP's small-profile cells stop at
U * cores = 0.01, where its degrade loop ends in a few HiGHS solves: between
0.01 and 0.04 a single small ILP build spends from seconds to minutes proving
that groups must degrade.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.scenarios import build_scenario

SEEDS = range(8)
CORES = (1, 2, 4)
UTILIZATIONS = (0.0025, 0.005, 0.01, 0.02)

#: (scheme, profile) -> the (cores, U) grid it is held to.
CELLS = {
    ("netrs-ilp", "tiny"): (CORES, UTILIZATIONS),
    ("netrs-ilp", "small"): ((1, 2), (0.0025, 0.005)),
    ("netrs-greedy", "tiny"): (CORES, UTILIZATIONS),
    ("netrs-greedy", "small"): (CORES, UTILIZATIONS),
    ("netrs-tor", "tiny"): (CORES, UTILIZATIONS),
    ("netrs-tor", "small"): (CORES, UTILIZATIONS),
}


def _drs_groups(profile, scheme, seed, cores, utilization):
    config = getattr(ExperimentConfig, profile)(
        scheme=scheme,
        seed=seed,
        accelerator_cores=cores,
        max_accelerator_utilization=utilization,
    )
    return len(build_scenario(config).plan.drs_groups)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("scheme, profile", sorted(CELLS))
def test_more_capacity_never_adds_a_drs_group(scheme, profile, seed):
    cores, utilizations = CELLS[scheme, profile]
    drs = {
        (c, u): _drs_groups(profile, scheme, seed, c, u)
        for c in cores
        for u in utilizations
    }
    raised = [
        (low, high)
        for low in drs
        for high in drs
        if low != high and high[0] >= low[0] and high[1] >= low[1]
    ]
    added = [(low, high) for low, high in raised if drs[high] > drs[low]]
    assert added == [], {cell: drs[cell] for pair in added for cell in pair}
    # Not vacuous: the grid's scarcest capacity degrades groups.
    assert drs[min(drs)] > 0
