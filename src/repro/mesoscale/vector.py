"""Struct-of-arrays whole-request fast path for the flow tier.

:class:`VectorFlowEngine` re-runs the exact experiment of
:class:`~repro.mesoscale.flow.FlowEngine` -- same named RNG streams in the
same order, same float-addition order, same tie-breaking -- for the configs
whose whole request lifecycle it can inline: client-side selection with
plain C3 (:func:`repro.mesoscale.support.vector_eligible`; everything else
runs the scalar engine or the packet engine, and constructing this one on it
is a :class:`~repro.errors.ConfigurationError`).  It is one path:

* the open-loop requests (arrival times, client indexes, keys) come
  ``vector_batch`` at a time from the workload's own block draw,
  :meth:`~repro.kvstore.workload.OpenLoopWorkload.draw_requests`, the one
  every engine reads (``_load_chunk``);
* key -> replica-group resolution and the per-(request, replica) locality
  class run over the block in one pass (``hop_class_batch`` kernel);
* the deterministic request delivery time for each locality class is one
  vectorized chained-add over the block (``path_chain`` kernel) -- the same
  IEEE additions the scalar ``_send_along`` performs hop by hop, evaluated
  element-wise, so the timestamps are bit-equal;
* arrivals never touch the heap: a cursor over the block merges with the
  micro-heap on the scalar engine's exact ``(time, seq)`` order, with the
  sequence numbers the scalar tier *would* have assigned simulated at the
  same points;
* one loop (``_drain_fast``) runs issue + C3 scoring, server arrival,
  service completion, response fold and the R95 duplicate inline, over flat
  events; only a live request timeout (``_v_on_timeout``) is a call.

Per-request mutable state lives in flat rid-indexed arrays (issue time,
primary target, replica tuple, done/alive bytemaps) with the rare fields
(duplicate counts, retry attempts, tried sets) in sparse dicts, replacing
the scalar tier's per-request ``_Outstanding`` + ``_outstanding`` dict.
Construction -- streams, roles, ring, selectors, service models, the fault
injector -- is the scalar engine's own; the scalar engine remains the oracle:
the byte-identity suites in ``tests/mesoscale/test_vector.py`` hold every
sample and counter of this path equal to its, and
``tests/selection/test_c3.py`` pins the inlined C3 score to the spelling of
``C3Selector.score``.
"""

from __future__ import annotations

from array import array
from bisect import insort
from heapq import heappop, heappush
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.kvstore.client import _BACKOFF_CAP
from repro.kvstore.fluctuation import StableService
from repro.kvstore.server import ServerCore
from repro.mesoscale.flow import FlowEngine
from repro.mesoscale.support import vector_eligible
from repro.sim.core import collector_parked

_INF = float("inf")

#: Event kinds of the drain's flat events ``(time, seq, kind, *args)``.
#: Whatever else runs on the engine clock (service-fluctuation ticks) keeps
#: the scalar shape ``(time, seq, fn, args)`` and is dispatched as a call;
#: heap order never compares past the unique ``seq``, so the shapes coexist.
#: The two kinds on the wire end in their leg's ledger, ``(base, hops, size,
#: overhead)``, which ``FlowEngine._settle`` reads at the stop.
_DELIVER = object()  # server, client, rid, *ledger: a request copy reaches its server
_COMPLETE = object()  # server, client, rid, duration, epoch: a service ends
_RESPONSE = object()  # client, rid, server name, queue size, service rate, *ledger
_REDUNDANT = object()  # client, rid: the R95 duplicate timer
_TIMEOUT = object()  # client, rid: the request timeout timer


# ---------------------------------------------------------------------------
# SoA kernels
# ---------------------------------------------------------------------------
def path_chain(times: np.ndarray, hops: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Chained per-hop delay accumulation over a block of start times.

    ``out[i] = times[i] + hops[0] + hops[1] + ...`` with one element-wise
    addition per hop -- the same float-addition order the scalar
    ``FlowEngine._send_along`` performs per request, so delivery
    timestamps are bit-equal to the scalar chain.
    """
    out[:] = times
    for delay in hops:
        out += delay
    return out


def hop_class_batch(
    client_rack: np.ndarray,
    client_pod: np.ndarray,
    replica_rack: np.ndarray,
    replica_pod: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Locality class (0=same rack, 1=same pod, 2=cross-pod) per (request, replica).

    Class c maps to hop count 2c+2 and indexes the ``path_chain`` delivery
    tables.
    """
    same_rack = replica_rack == client_rack[:, None]
    same_pod = replica_pod == client_pod[:, None]
    out[...] = np.where(same_rack, 0, np.where(same_pod, 1, 2))
    return out


class _VFlowServer(ServerCore):
    """A ``ServerCore``'s state plus what the drain loop caches per server.

    State-copied from the server the scalar constructor built.  The queue
    and EWMA arithmetic run inlined in ``_drain_fast`` (jobs are bare
    ``(client, rid)`` pairs: nothing there reads a queueing delay);
    ``fail``/``recover`` are inherited, so server-fault schedules act on the
    same fields.
    """

    __slots__ = ("_resp_plan", "_fastdraw", "_mean_const")

    def __init__(self, base: ServerCore) -> None:
        for name in ServerCore.__slots__:
            setattr(self, name, getattr(base, name))
        # client name -> (hop delays, hop count, bytes, overhead bytes)
        self._resp_plan: Dict[str, tuple] = {}
        # Stable-service means never change; folding the constant out lets
        # the drain loop skip the model (fluctuating servers keep a None
        # here and read the model's current tick).
        model = self.service_model
        self._mean_const = (
            model.mean_service_time if type(model) is StableService else None
        )
        # Service draws are the stream's only family, so the family lock the
        # first scalar draw would take is taken up front and the drain reads
        # the pre-drawn block directly (same values, same refill points).
        self._fastdraw = self._draws.block_size > 0
        if self._fastdraw:
            self._draws._lock("exponential")


class VectorFlowEngine(FlowEngine):
    """Flow engine draining precomputed struct-of-arrays request blocks.

    Construction is inherited wholesale -- the stream creation order, role
    placement, ring, servers, clients and fault injector are the scalar
    engine's own.  Only the request lifecycle is replaced: arrivals come
    from a block cursor (``_load_chunk``) and the endpoints run inlined over
    flat arrays in ``_drain_fast``.
    """

    def __init__(
        self,
        config,
        *,
        vector_batch: Optional[int] = None,
    ) -> None:
        with collector_parked():
            if not vector_eligible(config):
                raise ConfigurationError(
                    "VectorFlowEngine inlines client-side plain-C3 selection "
                    "(scheme clirs/clirs-r95, algorithm='c3') on a config the "
                    "flow engine models; run_experiment runs any other on the "
                    "scalar FlowEngine or the packet engine (docs/MESOSCALE.md)"
                )
            super().__init__(config)
            if vector_batch is None:
                vector_batch = config.vector_batch
            self._chunk = max(1, vector_batch)
            # The workload object is the scalar engine's: this engine draws
            # its blocks and keeps its counters, but posts no arrival.
            workload = self.workload
            self._total = workload.total_requests
            self._warmup = workload.warmup_requests
            self.per_client_counts = workload.per_client_counts
            self._timeout = config.request_timeout
            self._redundancy = self.clients[0].redundancy
            self._req_size, self._req_overhead = self._sizes["request"]
            # hop class -> response-delivery plan (filled lazily): plans depend
            # only on the locality class of the pair, not on its identity.
            self._resp_by_class: Dict[int, tuple] = {}
            self._cls_hops = (2, 4, 6)  # hop count per locality class
            # Per-hop delays per class, in scalar chain order: tuples for the
            # legs' ledgers, vectors for the path_chain kernel.
            self._cls_path = tuple(self._full_path[count] for count in self._cls_hops)
            self._hop_arrays = tuple(
                np.asarray(hops, dtype=np.float64) for hops in self._cls_path
            )
            geometry = self.geometry
            self._client_rack_arr = np.asarray(
                [geometry.rack_index(name) for name in self.client_hosts],
                dtype=np.int64,
            )
            self._client_pod_arr = np.asarray(geometry.rack_pod, dtype=np.int64)[
                self._client_rack_arr
            ]
            self._rg_codes: Dict[int, Tuple[Tuple[int, ...], Tuple[int, ...]]] = {}
            # The drain loop hoists the C3 scoring constants once: every
            # client's selector is built from the one config, so they agree.
            selector = self.clients[0].selector
            self._sel_prior = selector.prior_service_rate
            self._sel_weight = selector.concurrency_weight
            self._sel_exponent = selector.cubic_exponent
            self._sel_alpha = selector.ewma_alpha
            # In place: the fault injector holds this dict.
            servers = self.servers
            for name, server in servers.items():
                servers[name] = _VFlowServer(server)
            # (client, rgid) -> the C3 tracks of the group's replicas, in replica
            # order, for the inlined select loop (a server's name is the
            # replica tuple's at the same index): replica groups are frozen with
            # the ring and C3 tracks are created once and never dropped, so the
            # tuple is stable.  Tracks are created on the first select touching
            # them, exactly when the scalar scoring loop would.
            self._track_cache: List[Dict[int, tuple]] = [
                {} for _ in self.clients
            ]
            # -- dense per-request state (rid-indexed; rids are 1..total) -------
            total = self._total
            self._issued_at = array("d", [0.0]) * (total + 1)
            self._primary: List[str] = [""] * (total + 1)
            self._replicas_of: List[Tuple[str, ...]] = [()] * (total + 1)
            self._done = bytearray(total + 1)
            self._alive = bytearray(total + 1)
            # -- sparse per-request state (zero for the vast majority) ----------
            self._dup_sent: Dict[int, int] = {}
            self._attempts: Dict[int, int] = {}
            self._late_seen: Dict[int, int] = {}
            self._tried: Dict[int, Tuple[str, ...]] = {}
            # -- redundancy-policy constants (inlined _redundancy_threshold) ----
            policy = self._redundancy
            if policy is not None:
                self._red_min = policy.min_samples
                self._red_pct = policy.percentile
                self._red_mult = policy.fallback_multiplier
                # Same single multiplication _redundancy_threshold performs on
                # its no-history branch, done once.
                self._red_default = policy.fallback_multiplier * policy.cold_start_mean

    # ------------------------------------------------------------------
    # SoA prologue: the workload's next block, resolved
    # ------------------------------------------------------------------
    def _load_chunk(self, lo: int) -> tuple:
        """Draw the ``vector_batch`` requests from ``lo`` on from the
        workload and precompute over the block what the drain reads per
        request.

        Returns ``(hi, times, clients, replicas, rgids, classes, width,
        paths)``: the block ends before request ``hi``; ``classes`` holds
        request ``j``'s locality class for replica ``i`` at ``j * width +
        i``, and ``paths[c]`` its delivery time over class ``c``.
        """
        hi = min(lo + self._chunk, self._total)
        n = hi - lo
        times, clients, keys, writes = self.workload.draw_requests(n)
        ring = self.ring
        key_cache = ring._key_cache
        group_for_key = ring.group_for_key
        rgids: List[int] = [0] * n
        replicas_list: List[Tuple[str, ...]] = [()] * n
        for j in range(n):
            # Inlined ConsistentHashRing.group_for_key cache probe (Zipf
            # workloads hit it almost always; misses hash + memoize there).
            key = keys[j]
            hit = key_cache.get(key)
            if hit is None:
                hit = group_for_key(key)
            rgids[j], replicas_list[j] = hit
        del keys, writes  # spent: keep them off the allocation peak below
        # Dense state for the whole block in one splice.
        self._issued_at[lo + 1 : hi + 1] = times
        self._replicas_of[lo + 1 : hi + 1] = replicas_list
        self._alive[lo + 1 : hi + 1] = b"\x01" * n
        # Locality classes + per-class delivery-time tables (sends bypass
        # _send_along entirely).
        rg_codes = self._rg_codes
        rack_index = self.geometry.rack_index
        rack_pod = self.geometry.rack_pod
        replica_racks: List[Tuple[int, ...]] = [()] * n
        replica_pods: List[Tuple[int, ...]] = [()] * n
        for j in range(n):
            rgid = rgids[j]
            codes = rg_codes.get(rgid)
            if codes is None:
                racks = tuple(rack_index(name) for name in replicas_list[j])
                codes = (racks, tuple(rack_pod[r] for r in racks))
                rg_codes[rgid] = codes
            replica_racks[j] = codes[0]
            replica_pods[j] = codes[1]
        times_arr = np.frombuffer(times, dtype=np.float64)
        client_rows = np.frombuffer(clients, dtype=np.int64)
        crack = self._client_rack_arr[client_rows]
        cpod = self._client_pod_arr[client_rows]
        srack = np.asarray(replica_racks, dtype=np.int64)
        spod = np.asarray(replica_pods, dtype=np.int64)
        cls = np.empty((n, srack.shape[1]), dtype=np.uint8)
        hop_class_batch(crack, cpod, srack, spod, cls)
        path = np.empty((3, n), dtype=np.float64)
        for index, hops in enumerate(self._hop_arrays):
            path_chain(times_arr, hops, path[index])
        # Delivery times unboxed: indexing an array("d") yields the float.
        paths = [array("d", row.tobytes()) for row in path]
        return (
            hi, times, clients, replicas_list, rgids, cls.tobytes(), cls.shape[1], paths
        )

    # ------------------------------------------------------------------
    # Drain loop: block cursor merged with the micro-heap on (time, seq)
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> None:
        """Drive the experiment until completion (or the safety horizon)."""
        # The seq the workload's start() posts the first arrival with.  The
        # arrival is never a heap event: the drain merges a (time, seq)
        # cursor over the block against the heap head, which is exactly the
        # order heap events would pop in.
        self._seq += 1
        first_seq = self._seq
        self._drain_fast(until, first_seq)
        self._settle()

    def _legs_in_flight(self):
        """The ledgers of the deliveries and responses still on the heap."""
        return (
            entry[-4:]
            for entry in self._heap
            if entry[2] is _DELIVER or entry[2] is _RESPONSE
        )

    def _drain_fast(self, until: Optional[float], first_seq: int) -> None:
        """The whole request lifecycle inlined into one frame.

        Event for event this executes what the scalar engine's loop would
        -- same event order, same arithmetic, same RNG draws -- but issue +
        C3 scoring, server arrival, service completion, response fold, the
        R95 duplicate and dead timers run inside this loop's frame, keyed on
        the kind of the popped event, so the common path pays no Python
        calls and no repeated attribute loads.  Two things leave the frame:
        a live request timeout (``_v_on_timeout``; retry logic is cold) and
        whatever else was posted on the engine clock as ``(time, seq, fn,
        args)`` (service-fluctuation ticks, fault transitions), dispatched as
        a call.

        Four bookkeeping devices keep the loop allocation-free without
        changing observable state:

        * **Pending-arrival merge** -- arrival times are monotone and only
          one arrival is outstanding at a time, so the arrival "event" is a
          ``(pa_time, pa_seq)`` local compared lexicographically against the
          heap head instead of a pushed-and-popped heap entry.  ``pa_seq``
          is the exact sequence number the heap event would have carried, so
          the merged order is the heap's own.
        * **Lazy clock** -- ``self.now`` and ``self._seq`` are written only
          where code outside this frame can observe them (calls out, tracker
          callbacks, loop exit); every inlined branch uses the popped
          ``when`` and the local ``seq`` directly.
        * **Local accounting** -- transmissions / bytes / overhead accumulate
          in frame locals and enter the engine counters at loop exit; what
          runs outside the frame only ever adds to them.  A leg is accounted
          whole at its send, its ledger on its event, and what a stopped run
          never sent is given back after the loop (``_settle``).
        * **Flat events** -- ``(time, seq, kind, *args)`` without the inner
          args tuple (one allocation per event instead of two).  The stop
          flag is re-checked exactly where something that can set it runs
          (tracker callbacks, live timeouts, calls out), preserving the
          scalar loop's exit points.
        """
        heap = self._heap
        bounded = until is not None
        alive = self._alive
        done = self._done
        issued_at = self._issued_at
        primary = self._primary
        clients = self.clients
        per_client_counts = self.per_client_counts
        track_cache = self._track_cache
        servers = self.servers
        cls_hops = self._cls_hops
        cls_path = self._cls_path
        req_size = self._req_size
        req_overhead = self._req_overhead
        replicas_of = self._replicas_of
        full_path = self._full_path
        hop_count = self.geometry.hop_count
        prior = self._sel_prior
        weight = self._sel_weight
        exponent = self._sel_exponent
        t_alpha = self._sel_alpha
        policy = self._redundancy
        has_red = policy is not None
        red_min = self._red_min if has_red else 0
        red_pct = self._red_pct if has_red else 0.0
        red_mult = self._red_mult if has_red else 0.0
        red_default = self._red_default if has_red else 0.0
        timeout = self._timeout
        warmup = self._warmup
        recorder = self.recorder
        tracker = self.tracker
        dup_sent = self._dup_sent
        attempts = self._attempts
        late_seen = self._late_seen
        total = self._total
        cursor = 0  # requests issued so far: the next one is b_*[cursor - b_lo]
        b_lo = 0
        (b_hi, b_times, b_clients, b_replicas, b_rgids, b_cls, b_width,
         b_path) = self._load_chunk(b_lo)
        seq = self._seq
        micro = 0
        acc_tx = 0
        acc_bytes = 0
        acc_overhead = 0
        when = self.now
        pa_time = b_times[0]
        pa_seq = first_seq
        while True:
            if heap:
                head = heap[0]
                when = head[0]
                if pa_time < when or (pa_time == when and pa_seq < head[1]):
                    head = None
                    when = pa_time
            elif pa_time < _INF:
                head = None
                when = pa_time
            else:
                break
            if bounded and when > until:
                when = until
                break
            micro += 1
            if head is None:
                # ---- issue the request under the cursor (OpenLoopWorkload.
                # _arrival + ClientCore.issue over the block's rows)
                j = cursor - b_lo
                cidx = b_clients[j]
                per_client_counts[cidx] += 1
                client = clients[cidx]
                rid = cursor + 1
                replicas = b_replicas[j]
                selector = client.selector
                # Inlined C3Selector.select + note_sent (plain C3: no rate
                # limiter): the exact single-pass scoring loop, tie-breaks
                # delegated back to the selector so the RNG stream position
                # matches.
                selector.selections += 1
                cache = track_cache[cidx]
                group_tracks = cache.get(b_rgids[j])
                if group_tracks is None:
                    tracks = selector._tracks
                    built = []
                    for server_name in replicas:
                        track = tracks.get(server_name)
                        if track is None:
                            track = selector._track(server_name)
                        built.append(track)
                    group_tracks = tuple(built)
                    cache[b_rgids[j]] = group_tracks
                best_track = None
                best_score = _INF
                winners = None
                target_index = 0
                index = 0
                for track in group_tracks:
                    rate = track.service_rate
                    if not rate > 0:
                        rate = prior
                    expected_service = 1.0 / rate
                    q_hat = 1.0 + track.outstanding * weight + track.queue_size
                    score = (
                        track.response_time
                        - expected_service
                        + (q_hat**exponent) * expected_service
                    )
                    if score < best_score:
                        best_track = track
                        best_score = score
                        target_index = index
                        winners = None
                    elif score == best_score:
                        if winners is None:
                            winners = [replicas[target_index]]
                        winners.append(replicas[index])
                    index += 1
                if winners is None:
                    target = replicas[target_index]
                else:
                    target = selector._tie_break(winners)
                    target_index = replicas.index(target)
                    best_track = selector._tracks[target]
                best_track.outstanding += 1  # note_sent
                primary[rid] = target
                client.requests_sent += 1
                cls = b_cls[j * b_width + target_index]
                hops = cls_hops[cls]
                acc_tx += hops
                acc_bytes += req_size * hops
                seq += 1
                heappush(
                    heap,
                    (b_path[cls][j], seq, _DELIVER, servers[target], client, rid,
                     when, cls_path[cls], req_size, req_overhead),
                )
                if has_red:
                    # Inlined ClientCore._redundancy_threshold (cached
                    # percentile after min_samples, mean fallback in warmup).
                    history = client._history
                    if len(history._samples) >= red_min:
                        if (
                            client._cached_threshold is None
                            or client._samples_since_refresh >= 25
                        ):
                            client._cached_threshold = history.percentile(red_pct)
                            client._samples_since_refresh = 0
                        threshold = client._cached_threshold
                    else:
                        mean = history.mean()
                        if mean != mean:  # NaN: no history yet
                            threshold = red_default
                        else:
                            threshold = red_mult * mean
                    seq += 1
                    heappush(
                        heap, (when + threshold, seq, _REDUNDANT, client, rid)
                    )
                if timeout is not None:
                    seq += 1
                    heappush(
                        heap, (when + timeout, seq, _TIMEOUT, client, rid)
                    )
                cursor += 1
                if cursor < total:
                    if cursor >= b_hi:
                        b_lo = cursor
                        (b_hi, b_times, b_clients, b_replicas, b_rgids, b_cls,
                         b_width, b_path) = self._load_chunk(b_lo)
                    seq += 1
                    pa_time = b_times[cursor - b_lo]
                    pa_seq = seq
                else:
                    pa_time = _INF
                continue
            heappop(heap)
            cb = head[2]
            if cb is _DELIVER:
                # ---- a request copy reaches its server (ServerCore.
                # handle_arrival + _begin)
                server = head[3]
                if server.down:
                    server.dropped_requests += 1
                    continue
                server.arrivals += 1
                waiting = server._waiting
                queued = len(waiting) + server._in_service
                if queued + 1 > server.max_queue_seen:
                    server.max_queue_seen = queued + 1
                if server._in_service < server.parallelism:
                    server._in_service += 1
                    mean = server._mean_const
                    if mean is None:
                        # Fluctuating mean: the model's current tick (its
                        # redraws are micro-events of their own).
                        mean = server.service_model.current_mean
                    if server._fastdraw:
                        draws = server._draws
                        pos = draws._pos
                        block = draws._block
                        if pos >= len(block):
                            draws._refill()
                            block = draws._block
                            pos = 0
                        draws._pos = pos + 1
                        duration = block[pos] * mean
                    else:
                        duration = server._draws.exponential(mean)
                    seq += 1
                    heappush(
                        heap,
                        (when + duration, seq, _COMPLETE,
                         server, head[4], head[5], duration, server._epoch),
                    )
                else:
                    waiting.append((head[4], head[5]))
                continue
            if cb is _COMPLETE:
                # ---- service completion (ServerCore._complete; the reply is
                # priced by the memoized per-(server, client) hop plan and
                # carries (queue size, service rate) in place of a ServerStatus)
                server = head[3]
                if head[7] != server._epoch:
                    continue  # scheduled before a crash: died with the server
                server._in_service -= 1
                server.completions += 1
                alpha = server._alpha
                duration = head[6]
                server._ewma_service_time = (
                    alpha * server._ewma_service_time + (1 - alpha) * duration
                )
                waiting = server._waiting
                queue_size = len(waiting) + server._in_service
                service_rate = server.parallelism / server._ewma_service_time
                client = head[4]
                plan = server._resp_plan.get(client.name)
                if plan is None:
                    plan = self._response_plan(server.name, client.name)
                    server._resp_plan[client.name] = plan
                hops_t, count, nbytes, noverhead, size, overhead = plan
                t = when
                for delay in hops_t:
                    t += delay
                acc_tx += count
                acc_bytes += nbytes
                acc_overhead += noverhead
                seq += 1
                heappush(
                    heap,
                    (t, seq, _RESPONSE,
                     client, head[5], server.name, queue_size, service_rate,
                     when, hops_t, size, overhead),
                )
                if waiting:
                    next_client, next_rid = waiting.popleft()
                    server._in_service += 1
                    mean = server._mean_const
                    if mean is None:
                        mean = server.service_model.current_mean
                    if server._fastdraw:
                        draws = server._draws
                        pos = draws._pos
                        block = draws._block
                        if pos >= len(block):
                            draws._refill()
                            block = draws._block
                            pos = 0
                        draws._pos = pos + 1
                        duration = block[pos] * mean
                    else:
                        duration = server._draws.exponential(mean)
                    seq += 1
                    heappush(
                        heap,
                        (when + duration, seq, _COMPLETE,
                         server, next_client, next_rid, duration, server._epoch),
                    )
                continue
            if cb is _RESPONSE:
                # ---- response at the client (ClientCore.handle_response with
                # C3Selector.note_response's EWMA fold inlined)
                client = head[3]
                rid = head[4]
                client.responses_received += 1
                rid_alive = alive[rid]
                if rid_alive:
                    selector = client.selector
                    track = selector._tracks.get(head[5])
                    if track is None:
                        track = selector._track(head[5])
                    if track.outstanding > 0:
                        track.outstanding -= 1
                    latency = when - issued_at[rid]
                    if track.feedback_count == 0:
                        track.response_time = latency
                        track.queue_size = float(head[6])
                        track.service_rate = head[7]
                    else:
                        track.response_time = (
                            t_alpha * track.response_time + (1 - t_alpha) * latency
                        )
                        track.queue_size = (
                            t_alpha * track.queue_size + (1 - t_alpha) * head[6]
                        )
                        track.service_rate = (
                            t_alpha * track.service_rate + (1 - t_alpha) * head[7]
                        )
                    track.feedback_count += 1
                    track.last_feedback_at = when
                    selector.feedback_updates += 1
                    if not done[rid]:
                        done[rid] = 1
                        # Inlined LatencyRecorder.add: latency is a
                        # response-minus-issue difference, so the negative
                        # guard cannot fire; the sorted mirror (built by the
                        # R95 percentile queries) stays consistent.  Only
                        # an R95 client keeps a history.
                        if has_red:
                            history = client._history
                            history._samples.append(latency)
                            mirror = history._sorted
                            if mirror is not None:
                                insort(mirror, latency)
                            client._samples_since_refresh += 1
                        if rid > warmup:
                            recorder._samples.append(latency)
                            mirror = recorder._sorted
                            if mirror is not None:
                                insort(mirror, latency)
                        if not dup_sent.get(rid, 0) and not attempts.get(rid, 0):
                            alive[rid] = 0
                        # Inlined CompletionTracker.complete.
                        completed = tracker.completed + 1
                        tracker.completed = completed
                        if completed == tracker.expected:
                            self.now = when
                            for callback in tracker._callbacks:
                                callback()
                            if self._stopped:
                                break
                        continue
                client.late_responses += 1
                if rid_alive:
                    if attempts.get(rid, 0):
                        client.duplicates_suppressed += 1
                    seen = late_seen.get(rid, 0) + 1
                    late_seen[rid] = seen
                    if seen >= dup_sent.get(rid, 0) + attempts.get(rid, 0):
                        alive[rid] = 0
                continue
            if cb is _REDUNDANT:
                rid = head[4]
                if done[rid] or not alive[rid]:
                    # Dead timer: the scalar handler's no-op early return
                    # (the event still counts as executed).
                    continue
                # ---- live redundant duplicate (ClientCore._fire_redundant +
                # _send_request; kept inline: R95 fires one for roughly
                # every tenth request)
                client = head[3]
                primary_target = primary[rid]
                others = [r for r in replicas_of[rid] if r != primary_target]
                if not others:
                    continue
                cdraws = client._draws
                if cdraws is not None and len(others) > 1:
                    target = others[int(cdraws.integers(len(others)))]
                else:
                    target = others[0]
                selector = client.selector
                track = selector._tracks.get(target)
                if track is None:
                    track = selector._track(target)
                track.outstanding += 1  # note_sent
                dup_sent[rid] = dup_sent.get(rid, 0) + 1
                client.redundant_sent += 1
                hops_t = full_path[hop_count(client.name, target)]
                t = when
                for delay in hops_t:
                    t += delay
                n_hops = len(hops_t)
                acc_tx += n_hops
                acc_bytes += req_size * n_hops
                acc_overhead += req_overhead * n_hops
                seq += 1
                heappush(
                    heap,
                    (t, seq, _DELIVER, servers[target], client, rid,
                     when, hops_t, req_size, req_overhead),
                )
                continue
            if cb is _TIMEOUT:
                rid = head[4]
                if done[rid] or not alive[rid]:
                    continue
                # Live timeout: it can lose the request and stop the run.
                self._seq = seq
                self.now = when
                self._v_on_timeout(head[3], rid)
                seq = self._seq
                if self._stopped:
                    break
                continue
            # Posted on the engine clock by code outside this frame.
            self._seq = seq
            self.now = when
            cb(*head[3])
            seq = self._seq
            if self._stopped:
                break
        self._seq = seq
        self.now = when
        self.workload.issued = cursor
        self.transmissions += acc_tx
        self.bytes_transferred += acc_bytes
        self.netrs_overhead_bytes += acc_overhead
        self.micro_events += micro

    def _v_on_timeout(self, client, rid: int) -> None:
        """A live request timed out: give it up, or retry and re-arm.

        ``ClientCore._on_timeout`` over the flat arrays (the drain has
        already dropped timers of finished requests).  The retry is one
        flat delivery event, priced like a first copy.
        """
        client.timeouts += 1
        attempts = self._attempts.get(rid, 0)
        if attempts >= client.max_retries:
            self._done[rid] = 1
            client.requests_lost += 1
            self._alive[rid] = 0
            self.tracker.complete()
            return
        attempts += 1
        self._attempts[rid] = attempts
        client.retries += 1
        now = self.now
        replicas = self._replicas_of[rid]
        tried = self._tried.get(rid)
        if tried is None:
            tried = (self._primary[rid],)
        untried = tuple(r for r in replicas if r not in tried)
        candidates = untried or replicas
        if len(candidates) > 1:
            target = client.selector.select(candidates, now)
        else:
            target = candidates[0]
        self._tried[rid] = tried + (target,)
        self._primary[rid] = target
        client.selector.note_sent(target, now)
        client.requests_sent += 1
        hops = self._full_path[self.geometry.hop_count(client.name, target)]
        t = now
        for delay in hops:
            t += delay
        size, overhead = self._req_size, self._req_overhead
        self._account(len(hops), size, overhead)
        heap = self._heap
        self._seq += 1
        heappush(
            heap,
            (t, self._seq, _DELIVER, self.servers[target], client, rid,
             now, hops, size, overhead),
        )
        delay = client.request_timeout * min(2.0**attempts, _BACKOFF_CAP)
        self._seq += 1
        heappush(heap, (now + delay, self._seq, _TIMEOUT, client, rid))

    def _response_plan(self, server_name: str, client_name: str) -> tuple:
        """Memoizable response-delivery plan for one (server, client) pair.

        Plans are shared per locality class: the hop-delay chain and the
        byte accounting depend only on the hop count, so the per-pair memo
        in ``_VFlowServer._resp_plan`` resolves misses with one dict probe
        here instead of rebuilding the tuple per pair.
        """
        hop_key = self.geometry.hop_count(server_name, client_name)
        plan = self._resp_by_class.get(hop_key)
        if plan is None:
            hops = self._full_path[hop_key]
            size, overhead = self._sizes["response"]
            count = len(hops)
            plan = (hops, count, size * count, overhead * count, size, overhead)
            self._resp_by_class[hop_key] = plan
        return plan
