"""Mesoscale fidelity tier: flow-level simulation with a packet-tier gate.

The packet engine (:mod:`repro.network`) builds every switch and moves a
packet object through the fabric for every message (the events either tier
spends per request are measured in docs/MESOSCALE.md), which caps
experiments near the paper's 1024-host evaluation.  This package provides the second fidelity tier:
requests become a handful of scheduled completions from an analytic
path model (:mod:`repro.mesoscale.flow`), with the selection algorithms,
RNG streams and client/server queue logic shared with the packet tier, so a
flow run is bit-identical to the packet run of the same config.

Select it with ``ExperimentConfig(fidelity="flow")`` (or ``--fidelity flow``
on the CLI): ``run_experiment`` then runs the fastest engine with the packet
engine's result -- a flow engine where
:func:`~repro.mesoscale.support.flow_models` holds, the packet engine
elsewhere -- and collects it as it collects a packet run.  A flow engine
replaces only the wire: its endpoints are made by the scenario builders of
:mod:`repro.experiments.scenarios`.  :mod:`repro.mesoscale.validate` and
``netrs validate-fidelity`` gate the identity.  See docs/MESOSCALE.md.

Two performance layers ride on top of the flow tier, both byte-identical
to it: the struct-of-arrays fast path (:mod:`repro.mesoscale.vector`,
``vector_batch > 0``, on the client-side plain-C3 configs it covers) and
the sharded parallel loop (:mod:`repro.mesoscale.shard`, ``shards > 1``).
"""

from repro.mesoscale.flow import FlowEngine
from repro.mesoscale.shard import (
    merge_outcomes,
    run_sharded_flow_experiment,
    shard_configs,
)
from repro.mesoscale.support import FLOW_SCHEMES, flow_models
from repro.mesoscale.vector import VectorFlowEngine
from repro.mesoscale.validate import (
    FidelityReport,
    VALIDATION_SCENARIOS,
    validate_fidelity,
)

__all__ = [
    "FLOW_SCHEMES",
    "FidelityReport",
    "FlowEngine",
    "VALIDATION_SCENARIOS",
    "VectorFlowEngine",
    "flow_models",
    "merge_outcomes",
    "run_sharded_flow_experiment",
    "shard_configs",
    "validate_fidelity",
]
