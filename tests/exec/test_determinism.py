"""End-to-end determinism: parallel sweeps are byte-identical to serial.

This is the engine's core contract (ISSUE 1 acceptance criterion): running
the same grid on a worker pool must merge to exactly the result a serial
run produces, down to the JSON dump.
"""

import pytest

from repro.exec import ExecutionPolicy
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweep import run_sweep


@pytest.fixture(scope="module")
def sweep_kwargs():
    return dict(
        parameter="utilization",
        values=[0.3, 0.9],
        schemes=["clirs", "netrs-tor"],
        repetitions=1,
    )


@pytest.fixture(scope="module")
def base():
    return ExperimentConfig.tiny(seed=3, total_requests=500)


def test_parallel_sweep_byte_identical_to_serial(base, sweep_kwargs):
    serial = run_sweep(base, **sweep_kwargs)
    parallel = run_sweep(
        base, **sweep_kwargs, execution=ExecutionPolicy(workers=2)
    )
    assert parallel.to_json() == serial.to_json()
    assert parallel.raw == serial.raw
    assert parallel.extras == serial.extras
    assert parallel.cells == serial.cells


def test_parallel_grid_identical_to_serial(base):
    from repro.experiments.grid import run_grid

    kwargs = dict(
        row_parameter="utilization",
        row_values=[0.3, 0.9],
        column_parameter="n_clients",
        column_values=[8],
        schemes=["clirs"],
    )
    serial = run_grid(base, **kwargs)
    parallel = run_grid(base, **kwargs, execution=ExecutionPolicy(workers=2))
    assert parallel.cells == serial.cells
