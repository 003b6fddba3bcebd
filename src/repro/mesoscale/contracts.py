"""Declared contracts of the flow tier (checked by ``netrs contracts``).

The flow tier (:mod:`repro.mesoscale.flow`) *drives* the packet tier's
endpoints -- server, client, workload, service fluctuation and accelerator
exist once, in :mod:`repro.kvstore` and :mod:`repro.network.accelerator` --
and the NetRS selector (:mod:`repro.core.selector_node`) is one class whose
``select``/``fold`` every tier calls, so there is no endpoint copy to
police.  The struct-of-arrays engine (:mod:`repro.mesoscale.vector`) is one
inlined loop over a different data structure, held to the scalar engine by
the runtime byte-identity suites (``tests/mesoscale/test_vector.py``).

What can still drift silently, and is therefore declared here for
``repro.lint.contracts``: the C3 score, spelled out at three sites (CON001,
an anchored expression), and the RNG surface (CON002) -- the stream
*families* both tiers create (a renamed family is a silently different
seed) and the ordered draws the vector tier's block prologue makes on the
shared mixed-family arrival stream, pinned against the one workload
(``OpenLoopWorkload``).  Anything not declared is drift and fails CI.
"""

from __future__ import annotations

from repro.lint.contracts import (
    AnchorSite,
    ContractRegistry,
    DrawSequencePair,
    ExprAnchor,
    Site,
    StreamFamilyContract,
)

_FLOW = "src/repro/mesoscale/flow.py"
_VECTOR = "src/repro/mesoscale/vector.py"
_WORKLOAD = "src/repro/kvstore/workload.py"
_C3 = "src/repro/selection/c3.py"
_SCENARIOS = "src/repro/experiments/scenarios.py"

#: Both tiers must create the same named stream families.  ``background``
#: is packet-only: the flow tier rejects background traffic outright
#: (``ensure_flow_supported``), so no stream is ever created for it.
STREAM_FAMILIES = (
    StreamFamilyContract(
        name="packet-vs-flow stream families",
        reference_paths=(_SCENARIOS,),
        mirror_paths=(_FLOW,),
        reference_only=("background",),
    ),
)

#: The arrival stream is the one *mixed-family* stream: demand-weight
#: sampling, the write-fraction check and the inter-arrival exponential
#: all draw from it, so their relative order is load-bearing.  The scalar
#: flow engine runs ``OpenLoopWorkload`` itself; the vector tier rolls the
#: same process forward a block at a time and is pinned against it.
DRAW_SEQUENCES = (
    # Per request: client pick, then the inter-arrival gap.  The key draw
    # lives on its own batched stream (not an arrival-stream draw on either
    # side).  The write-fraction draw is reference-only: the flow tier is
    # read-only (``ensure_flow_supported`` rejects ``write_fraction > 0``),
    # so the workload never makes it there.
    DrawSequencePair(
        name="vector arrival-stream draw order",
        reference=Site(_WORKLOAD, "OpenLoopWorkload._arrival"),
        mirror=Site(_VECTOR, "VectorFlowEngine._load_chunk"),
        reference_rng="_rng",
        mirror_rng="rng",
        reference_only_draws=("<rng>.random",),
    ),
    # Both open with one exponential on the arrival stream (the workload
    # schedules its first arrival; the vector tier seeds the block cursor
    # with the same value).
    DrawSequencePair(
        name="vector opening arrival draw",
        reference=Site(_WORKLOAD, "OpenLoopWorkload.start"),
        mirror=Site(_VECTOR, "VectorFlowEngine.run"),
        reference_rng="_rng",
        mirror_rng="_arrival_rng",
    ),
)

#: The C3 cubic scoring formula, pinned at every site that spells it out:
#: the method, the inlined scalar loop, and the vector tier's inlined copy
#: of that loop (float arithmetic is evaluation-order sensitive, so
#: "equivalent math" is not enough).
EXPR_ANCHORS = (
    ExprAnchor(
        name="c3-cubic-score",
        expr="resp - expected_service + q_hat ** exponent * expected_service",
        sites=(
            AnchorSite(
                Site(_C3, "C3Selector.score"),
                renames=(
                    ("track.response_time", "resp"),
                    ("self.cubic_exponent", "exponent"),
                ),
            ),
            AnchorSite(
                Site(_C3, "C3Selector.select"),
                renames=(("track.response_time", "resp"),),
            ),
            AnchorSite(
                Site(_VECTOR, "VectorFlowEngine._drain_fast"),
                renames=(("track.response_time", "resp"),),
            ),
        ),
    ),
)

CONTRACTS = ContractRegistry(
    expr_anchors=list(EXPR_ANCHORS),
    stream_families=list(STREAM_FAMILIES),
    draw_sequences=list(DRAW_SEQUENCES),
)
