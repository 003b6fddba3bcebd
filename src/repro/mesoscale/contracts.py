"""Declared flow-vs-packet mirror contracts (checked by ``netrs contracts``).

The flow tier (:mod:`repro.mesoscale.flow`) replays the packet tier's
client/server/selector/workload logic line for line; that claim is enforced
statically by ``repro.lint.contracts`` (rule CON001), which compares each
pair below as normalized ASTs.  Every rename, drop and equivalence here is
a *reviewed, allowed* rewrite -- the flow tier's transport substitutions
(``host.send`` -> closed-form delivery, ``env.call_in`` -> the micro-heap)
and its read-only-path omissions (writes, trace sinks, fault-free guards).
Anything not declared is drift and fails CI.

When you edit one side of a pair, replay the edit into the other side in
the same commit; if the rewrite is genuinely tier-specific, declare it
here -- the declaration is the reviewable artifact.

CON002 contracts bind the RNG surface: the stream *families* both tiers
create (a renamed family is a silently different seed) and the ordered
draws on the shared mixed-family arrival stream.

The vectorized flow tier (:mod:`repro.mesoscale.vector`) is a third layer
of the same discipline: its batched prologue and flat endpoints replay the
scalar flow tier, with the *scalar* engine as oracle.  Most of its surface
is structurally vectorized (one megaloop instead of per-entity methods)
and is covered by the runtime byte-identity suites instead; the endpoints
below stayed statement-shaped, so they get static pairs too, and its
arrival-stream draw order is pinned against ``FlowEngine._arrival``.
"""

from __future__ import annotations

from repro.lint.contracts import (
    AnchorSite,
    ContractRegistry,
    DrawSequencePair,
    ExprAnchor,
    MirrorPair,
    Site,
    StreamFamilyContract,
)

_FLOW = "src/repro/mesoscale/flow.py"
_VECTOR = "src/repro/mesoscale/vector.py"
_SERVER = "src/repro/kvstore/server.py"
_CLIENT = "src/repro/kvstore/client.py"
_WORKLOAD = "src/repro/kvstore/workload.py"
_FLUCTUATION = "src/repro/kvstore/fluctuation.py"
_SELECTOR_NODE = "src/repro/core/selector_node.py"
_C3 = "src/repro/selection/c3.py"
_SCENARIOS = "src/repro/experiments/scenarios.py"

#: The packet tier's write path sends real packets; the flow tier reuses
#: the entry and lets the engine deliver analytically.  These makeup
#: statements are the declared transport substitution for KVClient.issue.
_ISSUE_NETRS_PACKET = (
    "packet = make_request(client=self.name, request_id=request_id, key=key, "
    "rgid=rgid, backup_replica=backup, issued_at=now, netrs=True)"
)
_ISSUE_CLIRS_PACKET = (
    "packet = make_request(client=self.name, request_id=request_id, key=key, "
    "rgid=rgid, backup_replica=target, issued_at=now, netrs=False, dst=target)"
)
_RETRY_NETRS_PACKET = (
    "packet = make_request(client=self.name, request_id=request_id, "
    "key=entry.key, rgid=entry.rgid, backup_replica=backup, "
    "issued_at=entry.issued_at, netrs=True)"
)
_RETRY_CLIRS_PACKET = (
    "packet = make_request(client=self.name, request_id=request_id, "
    "key=entry.key, rgid=entry.rgid, backup_replica=target, "
    "issued_at=entry.issued_at, netrs=False, dst=target)"
)
_REDUNDANT_PACKET = (
    "duplicate = make_request(client=self.name, request_id=request_id, "
    "key=entry.key, rgid=entry.rgid, backup_replica=target, "
    "issued_at=entry.issued_at, netrs=False, dst=target)"
)

MIRROR_PAIRS = (
    # -- KVServer <-> _FlowServer --------------------------------------
    MirrorPair(
        name="server.fail",
        reference=Site(_SERVER, "KVServer.fail"),
        mirror=Site(_FLOW, "_FlowServer.fail"),
    ),
    MirrorPair(
        name="server.recover",
        reference=Site(_SERVER, "KVServer.recover"),
        mirror=Site(_FLOW, "_FlowServer.recover"),
    ),
    MirrorPair(
        name="server.arrival",
        reference=Site(_SERVER, "KVServer.handle_packet"),
        mirror=Site(_FLOW, "_FlowServer.handle_arrival"),
        # Version digests and migration transfers are consistency-protocol
        # metadata (docs/CONSISTENCY.md); the flow tier rejects write/churn
        # configs up front, so the dispatch has no mirror.
        drop_reference=(
            "if packet.is_digest or packet.is_migration: ...",
        ),
        equivalences=(
            (
                "self._begin_service(packet, arrived_at=self.env.now)",
                "self._begin(client, rid, rv)",
            ),
            (
                "self._waiting.append((packet, self.env.now))",
                "self._waiting.append((client, rid, rv))",
            ),
        ),
    ),
    MirrorPair(
        name="server.begin_service",
        reference=Site(_SERVER, "KVServer._begin_service"),
        mirror=Site(_FLOW, "_FlowServer._begin"),
        # The packet tier stamps per-packet telemetry; the flow tier has no
        # packet.  The calibration scale multiplies by exactly 1.0 in
        # fidelity-checked runs.
        drop_reference=(
            "packet.server_queue_delay = self.env.now - arrived_at",
            "packet.server_service_time = duration",
        ),
        drop_mirror=(
            "engine = self.engine",
            "duration *= engine.service_time_scale",
        ),
        renames=(
            ("self.service_model.current_mean", "self._mean.mean_at(engine.now)"),
        ),
        equivalences=(
            (
                "self.env.post_in(duration, self._complete, (packet, duration, self._epoch))",
                "engine._post(duration, self._complete, (client, rid, rv, duration, self._epoch))",
            ),
        ),
    ),
    MirrorPair(
        name="server.complete",
        reference=Site(_SERVER, "KVServer._complete"),
        mirror=Site(_FLOW, "_FlowServer._complete"),
        # LWW version folding only matters once writes exist, and the flow
        # tier rejects write workloads (mesoscale.support).
        drop_reference=("self._fold_version(packet, response)",),
        drop_mirror=("engine = self.engine",),
        equivalences=(
            (
                "response = make_response(packet, server=self.name, "
                "status=self.status(), value_size=self.value_size)",
                "status = ServerStatus(queue_size=len(self._waiting) + self._in_service, "
                "service_rate=self.parallelism / self._ewma_service_time, "
                "timestamp=engine.now)",
            ),
            (
                "self.host.send(response)",
                "engine._send_response(self, client, rid, rv, status)",
            ),
            (
                "next_packet, arrived_at = self._waiting.popleft()",
                "next_client, next_rid, next_rv = self._waiting.popleft()",
            ),
            (
                "self._begin_service(next_packet, arrived_at)",
                "self._begin(next_client, next_rid, next_rv)",
            ),
        ),
    ),
    # -- KVClient <-> _FlowClient --------------------------------------
    MirrorPair(
        name="client.issue",
        reference=Site(_CLIENT, "KVClient.issue"),
        mirror=Site(_FLOW, "_FlowClient.issue"),
        renames=(("self.env", "engine"),),
        drop_reference=(
            _ISSUE_NETRS_PACKET,
            _ISSUE_CLIRS_PACKET,
            "delay = self._redundancy_threshold()",
            "if self.read_quorum > 1: ...",
        ),
        drop_mirror=("engine = self.engine",),
        equivalences=(
            ("request_id = next(self._request_ids)", "request_id = next(engine._ids)"),
            (
                "backup = self.selector.select(replicas, now)",
                "self.selector.select(replicas, now)",
            ),
            (
                "entry = _Outstanding(key=key, rgid=rgid, replicas=replicas, "
                "issued_at=now, record=record, primary_target=primary_target)",
                "entry = _Entry(key, rgid, replicas, now, record, primary_target)",
            ),
            (
                "self.host.send(packet)",
                "if self.netrs:\n"
                "    engine._send_via_operator(self, request_id, entry)\n"
                "else:\n"
                "    engine._send_request(self, request_id, entry, primary_target)",
            ),
            (
                "entry.timer = engine.call_in(delay, self._fire_redundant, request_id)",
                "engine._post(self._redundancy_threshold(), self._fire_redundant, (request_id,))",
            ),
            (
                "entry.timeout_timer = engine.call_in(self.request_timeout, "
                "self._on_timeout, request_id)",
                "engine._post(self.request_timeout, self._on_timeout, (request_id,))",
            ),
        ),
    ),
    MirrorPair(
        # No declarations at all: the bodies agree once the assert is
        # stripped and math.isnan(x) is canonicalized to x != x.
        name="client.redundancy_threshold",
        reference=Site(_CLIENT, "KVClient._redundancy_threshold"),
        mirror=Site(_FLOW, "_FlowClient._redundancy_threshold"),
    ),
    MirrorPair(
        name="client.fire_redundant",
        reference=Site(_CLIENT, "KVClient._fire_redundant"),
        mirror=Site(_FLOW, "_FlowClient._fire_redundant"),
        renames=(("self.env", "self.engine"),),
        drop_reference=(
            _REDUNDANT_PACKET,
            "duplicate.is_redundant = True",
        ),
        equivalences=(
            (
                "self.host.send(duplicate)",
                "self.engine._send_request(self, request_id, entry, target)",
            ),
        ),
    ),
    MirrorPair(
        name="client.on_timeout",
        reference=Site(_CLIENT, "KVClient._on_timeout"),
        mirror=Site(_FLOW, "_FlowClient._on_timeout"),
        renames=(("self.env", "engine"),),
        # Send accounting and the packet build live inside the branches on
        # the mirror side but after them on the reference side; both are
        # dropped and the remaining selector/entry state must agree.
        drop_reference=(
            _RETRY_NETRS_PACKET,
            _RETRY_CLIRS_PACKET,
            "self.requests_sent += 1",
            "self.host.send(packet)",
            "if self.on_complete is not None: ...",
            "if entry.quorum is not None and entry.quorum.data_seen: ...",
        ),
        drop_mirror=(
            "engine = self.engine",
            "self.requests_sent += 1",
            "engine._send_via_operator(self, request_id, entry)",
            "engine._send_request(self, request_id, entry, target)",
        ),
        equivalences=(
            (
                "backup = self.selector.select(entry.replicas, now)",
                "self.selector.select(entry.replicas, now)",
            ),
            (
                "if self.tracker is not None:\n    self.tracker.complete()",
                "engine._complete_request()",
            ),
            (
                "entry.timeout_timer = engine.call_in(delay, self._on_timeout, request_id)",
                "engine._post(delay, self._on_timeout, (request_id,))",
            ),
        ),
    ),
    MirrorPair(
        name="client.handle_response",
        reference=Site(_CLIENT, "KVClient.handle_packet"),
        mirror=Site(_FLOW, "_FlowClient.handle_response"),
        renames=(
            ("self.env", "engine"),
            ("packet.request_id", "request_id"),
            ("packet.server", "server"),
        ),
        # Write acks, trace sinks, timer cancellation and the on_complete
        # hook are packet-tier-only surfaces (the flow tier is read-only,
        # its timers self-disarm on entry.done, and closed-loop/trace
        # instrumentation is unsupported -- see mesoscale.support).
        drop_reference=(
            "status = packet.server_status",
            "if packet.is_digest: ...",
            "if entry is not None and entry.is_write: ...",
            "if entry.quorum is not None: ...",
            "if self.trace_sink is not None: ...",
            "if entry.timer is not None: ...",
            "if entry.timeout_timer is not None: ...",
            "if self.on_complete is not None: ...",
        ),
        drop_mirror=("engine = self.engine",),
        equivalences=(
            (
                "if status is not None and entry is not None: ...",
                "if entry is not None: ...",
            ),
            (
                "if self.tracker is not None:\n    self.tracker.complete()",
                "engine._complete_request()",
            ),
        ),
    ),
    # -- service fluctuation -------------------------------------------
    MirrorPair(
        name="fluctuation.draw",
        reference=Site(_FLUCTUATION, "BimodalFluctuation._draw"),
        mirror=Site(_FLOW, "_Fluctuation._draw"),
        renames=(("self.base_service_time", "self.base"),),
    ),
    # -- NetRS selector (accelerator work) -----------------------------
    MirrorPair(
        name="selector.on_request",
        reference=Site(_SELECTOR_NODE, "NetRSSelector.on_request"),
        mirror=Site(_FLOW, "FlowEngine._select_work"),
        renames=(
            ("self.env.now", "self._now"),
            ("self.algorithm", "op.selector"),
            ("packet.rgid", "entry.rgid"),
            ("self.requests_handled", "op.requests_handled"),
        ),
        # The flow tier's entry always carries a valid RGID (no wire
        # parsing), and the packet rebuild has no packet to rebuild.
        drop_reference=(
            "if packet.rgid < 0: ...",
            "packet.dst = server",
            "packet.server = server",
            "packet.retaining_value = now",
            "packet.selected_at = now",
            "packet.magic = magic_transform(MAGIC_RESPONSE)",
        ),
        equivalences=(
            ("return packet", "return (op, client, rid, server, now)"),
        ),
    ),
    MirrorPair(
        name="selector.on_response",
        reference=Site(_SELECTOR_NODE, "NetRSSelector.on_response"),
        mirror=Site(_FLOW, "FlowEngine._absorb_response"),
        renames=(
            ("self.env.now", "now"),
            ("self.algorithm", "op.selector"),
            ("packet.server", "server_name"),
            ("packet.server_status", "status"),
            ("packet.retaining_value", "rv"),
            ("self.responses_handled", "op.responses_handled"),
            ("response_time", "now - rv"),
        ),
        drop_reference=(
            "if packet.server_status is None: ...",
            "response_time = self.env.now - packet.retaining_value",
        ),
        drop_mirror=(
            "now = self._now",
            "return None",
        ),
    ),
    # -- scalar flow tier <-> vectorized flow tier ---------------------
    MirrorPair(
        # The vector server reads queue depth into a local instead of the
        # scalar tier's ``queue_size`` property (same expression, hoisted
        # out of the double read); everything else is line for line.
        name="vector.server.arrival",
        reference=Site(_FLOW, "_FlowServer.handle_arrival"),
        mirror=Site(_VECTOR, "_VFlowServer.handle_arrival"),
        renames=(("self.queue_size", "queued"),),
        drop_mirror=("queued = len(self._waiting) + self._in_service",),
    ),
    MirrorPair(
        # The vector engine keeps RGIDs in a rid-indexed array instead of
        # per-request entry objects; the selector interaction is identical.
        name="vector.selector.on_request",
        reference=Site(_FLOW, "FlowEngine._select_work"),
        mirror=Site(_VECTOR, "VectorFlowEngine._select_work"),
        renames=(("entry.rgid", "self._rgid_of[rid]"),),
    ),
    # -- workload arrival loop -----------------------------------------
    MirrorPair(
        name="workload.arrival",
        reference=Site(_WORKLOAD, "OpenLoopWorkload._arrival"),
        mirror=Site(_FLOW, "FlowEngine._arrival"),
        renames=(
            ("self._rng", "self._arrival_rng"),
            ("self.key_sampler", "self._sampler"),
            ("self.warmup_requests", "self._warmup"),
            ("self.total_requests", "self._total"),
            ("self.rate", "self._rate"),
            ("self.env.call_in", "self._post"),
        ),
        drop_reference=("if self.on_finished is not None: ...",),
        equivalences=(
            (
                "if self.write_fraction and self._arrival_rng.random() < self.write_fraction:\n"
                "    self.writes_issued += 1\n"
                "    self.clients[index].issue_write(key, record=record)\n"
                "else:\n"
                "    self.clients[index].issue(key, record=record)",
                "self.clients[index].issue(key, record=record)",
            ),
        ),
    ),
)

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
#: all draw from it, so their relative order is load-bearing.  The
#: write-fraction draw is reference-only: the flow tier is read-only and
#: ``ensure_flow_supported`` rejects ``write_fraction > 0``, so the draw
#: is never made on either side of a fidelity-checked run.
DRAW_SEQUENCES = (
    DrawSequencePair(
        name="arrival-stream draw order",
        reference=Site(_WORKLOAD, "OpenLoopWorkload._arrival"),
        mirror=Site(_FLOW, "FlowEngine._arrival"),
        reference_rng="_rng",
        mirror_rng="_arrival_rng",
        reference_only_draws=("<rng>.random",),
    ),
    # The vector tier rolls the workload forward a block at a time, but the
    # per-request draws on the shared arrival stream keep the scalar order:
    # client pick, then the inter-arrival gap.  The key draw lives on its
    # own batched stream (not an arrival-stream draw on either side).
    DrawSequencePair(
        name="vector arrival-stream draw order",
        reference=Site(_FLOW, "FlowEngine._arrival"),
        mirror=Site(_VECTOR, "VectorFlowEngine._load_chunk"),
        reference_rng="_arrival_rng",
        mirror_rng="rng",
    ),
    # Both engines open with one exponential on the arrival stream (the
    # scalar tier posts the first arrival; the vector tier seeds the block
    # cursor with the same value).
    DrawSequencePair(
        name="vector opening arrival draw",
        reference=Site(_FLOW, "FlowEngine.run"),
        mirror=Site(_VECTOR, "VectorFlowEngine.run"),
        reference_rng="_arrival_rng",
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
    mirror_pairs=list(MIRROR_PAIRS),
    expr_anchors=list(EXPR_ANCHORS),
    stream_families=list(STREAM_FAMILIES),
    draw_sequences=list(DRAW_SEQUENCES),
)
