"""One-replica relation: with ``replication_factor=1`` every key has one
server to go to, so every selection algorithm must give the same samples.

A selector that changes a run without a choice to make -- by drawing from a
stream the others leave alone, by delaying or reordering sends, or by
reading state the single-replica path never updates -- breaks it.
"""

import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment
from repro.selection.registry import available_algorithms

SCHEMES = ("clirs", "clirs-r95", "netrs-tor", "netrs-ilp")


@pytest.mark.parametrize("fidelity", ["packet", "flow"])
@pytest.mark.parametrize("scheme", SCHEMES)
def test_every_selector_gives_the_same_samples_with_one_replica(scheme, fidelity):
    config = ExperimentConfig.tiny(
        seed=5, scheme=scheme, fidelity=fidelity, replication_factor=1
    )
    samples = {
        algorithm: run_experiment(config.replace(algorithm=algorithm)).latency.samples
        for algorithm in available_algorithms()
    }
    reference = samples["c3"]
    differing = sorted(name for name, got in samples.items() if list(got) != list(reference))
    assert differing == []
