"""API-contract tests: every module imports and keeps its ``__all__`` true, and
the documented public surface stays importable."""

import importlib
import inspect
import pkgutil

import pytest

import repro

PUBLIC_MODULES = [
    "repro",
    "repro.sim",
    "repro.network",
    "repro.kvstore",
    "repro.selection",
    "repro.core",
    "repro.core.placement",
    "repro.exec",
    "repro.faults",
    "repro.mesoscale",
    "repro.experiments",
    "repro.analysis",
    "repro.cli",
]


def _every_module():
    """Every ``repro.*`` module but ``__main__`` ones (importing runs them)."""
    return sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if info.name.rsplit(".", 1)[-1] != "__main__"
    )


@pytest.mark.parametrize("module_name", ["repro", *_every_module()])
def test_all_matches_the_public_definitions(module_name):
    """Both directions: every ``__all__`` entry resolves, and a module that
    declares ``__all__`` lists every public class and function it defines."""
    module = importlib.import_module(module_name)
    declared = getattr(module, "__all__", None)
    if declared is None:
        return
    missing = [name for name in declared if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names nothing for {missing}"
    unlisted = sorted(
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and (inspect.isclass(value) or inspect.isfunction(value))
        and value.__module__ == module_name
        and name not in declared
    )
    assert unlisted == [], f"{module_name} defines but does not list {unlisted}"


def test_sim_exports_what_the_simulator_runs_on():
    """A callback engine, its errors, RNG streams and the latency recorder."""
    import repro.sim

    assert sorted(repro.sim.__all__) == [
        "BatchedStream",
        "Environment",
        "LatencyRecorder",
        "RngRegistry",
        "SimulationError",
        "StopSimulation",
    ]


def test_readme_quickstart_runs():
    """The README's quickstart snippet must stay valid."""
    from repro.experiments import ExperimentConfig, run_experiment

    config = ExperimentConfig.small(scheme="netrs-ilp", seed=1).replace(
        total_requests=300, n_clients=8, n_servers=6, fat_tree_k=4
    )
    result = run_experiment(config)
    assert set(result.summary()) == {"mean", "p95", "p99", "p999"}
    assert result.plan_description.startswith("RSP[")


def test_version_is_consistent():
    import repro
    from repro._version import __version__

    assert repro.__version__ == __version__


def test_module_docstrings_exist():
    """Every public module documents itself."""
    for module_name in PUBLIC_MODULES:
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a docstring"
