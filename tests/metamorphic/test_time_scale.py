"""Time-scale relation: multiply every time constant of the model by ``c``
and every latency sample scales by ``c``.

The arrival rate follows on its own, because ``utilization`` fixes
``t_kv * A``, so the scaled run is the same system in other units: the
paper's Fig. 7 premise that "absolute latency scales with t_kv"
(PAPER.md section V-A).  A power of two scales every float exactly, so
``c = 2`` must be bit-exact; any other ``c`` rounds differently along the
way and holds to 1e-12 relative.  A constant of the model written in
absolute seconds instead of derived from the config breaks the relation.
Fault, timeout and replan times are not scaled here.
"""

import numpy as np
import pytest

from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import run_experiment

#: Every time constant of the paper's model.
TIME_CONSTANTS = (
    "switch_link_latency",
    "host_link_latency",
    "mean_service_time",
    "fluctuation_interval",
    "accelerator_service_time",
    "accelerator_link_delay",
)

SCHEMES = ("clirs", "clirs-r95", "netrs-tor", "netrs-ilp")

#: The packet engine, and ``fidelity="flow"`` with and without the SoA
#: engine (which runs CliRS and CliRS-R95; the scalar engine the rest).
ENGINES = {
    "packet": {},
    "flow": {"fidelity": "flow"},
    "soa": {"fidelity": "flow", "vector_batch": 256},
}

#: A tiny cell whose cold-start requests outlast R95's fallback threshold
#: under one scale and not the other if that threshold is absolute seconds
#: (499 of 540 CliRS-R95 samples then move at c = 2).
SEED = 4


def _scaled(config, c):
    return config.replace(**{name: getattr(config, name) * c for name in TIME_CONSTANTS})


def _samples(config):
    return np.asarray(run_experiment(config).latency.samples, dtype=float)


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_doubling_every_time_constant_doubles_every_sample_exactly(scheme, engine):
    config = ExperimentConfig.tiny(seed=SEED, scheme=scheme, **ENGINES[engine])
    base = _samples(config)
    scaled = _samples(_scaled(config, 2.0))
    assert len(scaled) == len(base)
    mismatched = np.count_nonzero(scaled != 2.0 * base)
    assert mismatched == 0, f"{mismatched} of {len(base)} samples off"


@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("scheme", SCHEMES)
def test_tripling_every_time_constant_triples_every_sample(scheme, engine):
    config = ExperimentConfig.tiny(seed=SEED, scheme=scheme, **ENGINES[engine])
    base = _samples(config)
    scaled = _samples(_scaled(config, 3.0))
    assert len(scaled) == len(base)
    np.testing.assert_allclose(scaled, 3.0 * base, rtol=1e-12, atol=0.0)
