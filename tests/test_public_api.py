"""API-contract tests: the documented public surface stays importable."""

import importlib

import pytest

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


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_module_imports(module_name):
    importlib.import_module(module_name)


@pytest.mark.parametrize("module_name", PUBLIC_MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    for name in getattr(module, "__all__", []):
        assert hasattr(module, name), f"{module_name}.{name} missing"


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
