"""The flow-level engine: requests as scheduled completions, not packets.

The packet tier spends ~10 engine events per request walking every hop of
the fat-tree.  Under the paper's default link model those hops are *pure
constant delays*: every ECMP path between two hosts is latency-equal, so the
network's only contribution to a request's latency is a deterministic sum of
per-hop constants.  The flow tier exploits that: it keeps the **exact**
client, server, selector and workload logic of the packet tier (same code
shapes, same named RNG streams, same EWMA arithmetic) but replaces packet
forwarding with closed-form path delays, and runs request/completion
micro-events on a lean internal heap instead of the generic engine schedule.

The :class:`~repro.sim.core.Environment` is still the macro clock: fault
transitions and periodic completion-batch heartbeats run on it, so
``env.events_executed`` counts a handful of events per *run* rather than ten
per *request*.  Micro-events (arrival, service completion, response
delivery, timers) are counted separately in ``FlowEngine.micro_events``.

Fidelity: with ``link_bandwidth=None`` (the paper's configuration) the flow
tier accumulates per-hop delays with the same float additions the packet
engine performs hop by hop, consumes the same named RNG streams in the same
order, and mirrors queueing/EWMA/timer logic line for line -- CliRS runs are
bit-comparable to the packet tier up to tie-breaking noise (validated by
``netrs validate-fidelity``).  With ``link_bandwidth`` set, serialization
and access-link queueing are added analytically (M/D/1 mean waiting), which
is an approximation; see docs/MESOSCALE.md.
"""

from __future__ import annotations

import itertools
from collections import deque
from heapq import heappop, heappush
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.faults.events import (
    LinkDegrade,
    LinkDown,
    LinkUp,
    ServerDown,
    ServerUp,
)
from repro.faults.schedule import parse_fault_schedule
from repro.kvstore.client import CompletionTracker, RedundancyPolicy
from repro.kvstore.hashing import shared_ring
from repro.kvstore.workload import DemandWeights, ZipfSampler
from repro.mesoscale.geometry import FatTreeGeometry
from repro.mesoscale.support import ensure_flow_supported
from repro.network.packet import (
    _SIZE_MF,
    _SIZE_RGID,
    _SIZE_RID,
    _SIZE_RV,
    _SIZE_SM,
    _SIZE_SSL,
    _SIZE_UDP_HEADERS,
    ServerStatus,
)
from repro.selection.registry import create_selector
from repro.sim.core import Environment
from repro.sim.probes import LatencyRecorder
from repro.sim.rng import RngRegistry

#: Retry-backoff cap, kept equal to ``repro.kvstore.client._BACKOFF_CAP`` so
#: both tiers retransmit on identical schedules (docs/FAULTS.md).
_BACKOFF_CAP = 8.0

#: Completions between environment heartbeats (the flow tier's only steady
#: engine events): keeps ``env.now`` tracking the flow clock at negligible
#: event cost.
_FLUSH_EVERY = 4096

_MicroFn = Callable[..., None]


class _Fluctuation:
    """Replays the packet tier's :class:`BimodalFluctuation` as a timeline.

    The packet tier ticks a per-server timer every ``interval`` seconds and
    redraws the mean; each tick consumes one draw from the server's
    ``fluctuation.{name}`` stream.  Here the same draws are made lazily when
    service beginnings cross tick boundaries.  Boundaries accumulate with
    the same float additions as the packet tier's ``call_in`` chain, and
    begin-times are non-decreasing per server, so a single forward pointer
    reproduces the exact tick-aligned mean sequence.
    """

    __slots__ = ("base", "range_parameter", "interval", "_draws", "_current", "_next")

    def __init__(self, base: float, range_parameter: float, interval: float, draws) -> None:
        self.base = base
        self.range_parameter = range_parameter
        self.interval = interval
        self._draws = draws
        self._current = self._draw()  # construction-time draw, like the model
        self._next = 0.0 + interval

    def _draw(self) -> float:
        if self._draws.random() < 0.5:
            return self.base
        return self.base / self.range_parameter

    def mean_at(self, t: float) -> float:
        while t >= self._next:
            self._current = self._draw()
            self._next += self.interval
        return self._current


class _StableMean:
    """Constant-mean stand-in for ``StableService``."""

    __slots__ = ("_mean",)

    def __init__(self, mean: float) -> None:
        self._mean = mean

    def mean_at(self, t: float) -> float:
        return self._mean


class _Entry:
    """Flow-tier mirror of ``repro.kvstore.client._Outstanding`` (read path)."""

    __slots__ = (
        "key",
        "rgid",
        "replicas",
        "issued_at",
        "record",
        "primary_target",
        "done",
        "duplicates_sent",
        "attempts",
        "tried",
        "late_seen",
    )

    def __init__(self, key, rgid, replicas, issued_at, record, primary_target):
        self.key = key
        self.rgid = rgid
        self.replicas = replicas
        self.issued_at = issued_at
        self.record = record
        self.primary_target = primary_target
        self.done = False
        self.duplicates_sent = 0
        self.attempts = 0
        self.tried: Tuple[str, ...] = ()
        self.late_seen = 0


class _FlowServer:
    """Np-slot FIFO server, logic mirrored from ``KVServer`` line for line."""

    __slots__ = (
        "engine",
        "name",
        "parallelism",
        "_draws",
        "_alpha",
        "_mean",
        "_waiting",
        "_in_service",
        "_ewma_service_time",
        "completions",
        "arrivals",
        "max_queue_seen",
        "down",
        "_epoch",
        "dropped_requests",
        "lost_in_service",
    )

    def __init__(self, engine, name, *, parallelism, draws, alpha, mean_model):
        self.engine = engine
        self.name = name
        self.parallelism = parallelism
        self._draws = draws
        self._alpha = alpha
        self._mean = mean_model
        self._waiting: Deque[tuple] = deque()
        self._in_service = 0
        self._ewma_service_time = mean_model.mean_at(0.0)
        self.completions = 0
        self.arrivals = 0
        self.max_queue_seen = 0
        self.down = False
        self._epoch = 0
        self.dropped_requests = 0
        self.lost_in_service = 0

    @property
    def queue_size(self) -> int:
        return len(self._waiting) + self._in_service

    def fail(self) -> None:
        if self.down:
            return
        self.down = True
        self._epoch += 1
        self.lost_in_service += self._in_service + len(self._waiting)
        self._waiting.clear()
        self._in_service = 0

    def recover(self) -> None:
        self.down = False

    def handle_arrival(self, client, rid: int, rv: Optional[float]) -> None:
        if self.down:
            self.dropped_requests += 1
            return
        self.arrivals += 1
        if self.queue_size + 1 > self.max_queue_seen:
            self.max_queue_seen = self.queue_size + 1
        if self._in_service < self.parallelism:
            self._begin(client, rid, rv)
        else:
            self._waiting.append((client, rid, rv))

    def _begin(self, client, rid: int, rv: Optional[float]) -> None:
        engine = self.engine
        self._in_service += 1
        # Service drawn at *begin* time (same stream position as KVServer);
        # the calibration scale is 1.0 in normal runs and multiplies exactly.
        duration = self._draws.exponential(self._mean.mean_at(engine.now))
        duration *= engine.service_time_scale
        engine._post(duration, self._complete, (client, rid, rv, duration, self._epoch))

    def _complete(self, client, rid, rv, duration, epoch) -> None:
        if epoch != self._epoch:
            return  # scheduled before a crash: died with the server
        engine = self.engine
        self._in_service -= 1
        self.completions += 1
        self._ewma_service_time = (
            self._alpha * self._ewma_service_time + (1 - self._alpha) * duration
        )
        status = ServerStatus(
            queue_size=len(self._waiting) + self._in_service,
            service_rate=self.parallelism / self._ewma_service_time,
            timestamp=engine.now,
        )
        engine._send_response(self, client, rid, rv, status)
        if self._waiting:
            next_client, next_rid, next_rv = self._waiting.popleft()
            self._begin(next_client, next_rid, next_rv)


class _FlowClient:
    """Flow-tier mirror of ``KVClient`` (read path, timers as micro-events)."""

    __slots__ = (
        "engine",
        "name",
        "ring",
        "selector",
        "recorder",
        "netrs",
        "redundancy",
        "_draws",
        "_outstanding",
        "_history",
        "_cached_threshold",
        "_samples_since_refresh",
        "request_timeout",
        "max_retries",
        "requests_sent",
        "redundant_sent",
        "responses_received",
        "late_responses",
        "timeouts",
        "retries",
        "requests_lost",
        "duplicates_suppressed",
    )

    def __init__(
        self,
        engine,
        name,
        *,
        ring,
        selector,
        recorder,
        netrs,
        redundancy,
        draws,
        request_timeout,
        max_retries,
    ):
        self.engine = engine
        self.name = name
        self.ring = ring
        self.selector = selector
        self.recorder = recorder
        self.netrs = netrs
        self.redundancy = redundancy
        self._draws = draws
        self._outstanding: Dict[int, _Entry] = {}
        self._history = LatencyRecorder()
        self._cached_threshold: Optional[float] = None
        self._samples_since_refresh = 0
        self.request_timeout = request_timeout
        self.max_retries = max_retries
        self.requests_sent = 0
        self.redundant_sent = 0
        self.responses_received = 0
        self.late_responses = 0
        self.timeouts = 0
        self.retries = 0
        self.requests_lost = 0
        self.duplicates_suppressed = 0

    # -- issuing -------------------------------------------------------
    def issue(self, key: int, record: bool = True) -> int:
        engine = self.engine
        rgid, replicas = self.ring.group_for_key(key)
        request_id = next(engine._ids)
        now = engine.now
        if self.netrs:
            # Backup draw kept for RNG parity with the packet tier even
            # though the flow tier never degrades to the backup.
            self.selector.select(replicas, now)
            primary_target = ""
        else:
            target = self.selector.select(replicas, now)
            self.selector.note_sent(target, now)
            primary_target = target
        entry = _Entry(key, rgid, replicas, now, record, primary_target)
        if primary_target:
            entry.tried = (primary_target,)
        self._outstanding[request_id] = entry
        self.requests_sent += 1
        if self.netrs:
            engine._send_via_operator(self, request_id, entry)
        else:
            engine._send_request(self, request_id, entry, primary_target)
        if self.redundancy is not None:
            engine._post(
                self._redundancy_threshold(), self._fire_redundant, (request_id,)
            )
        if self.request_timeout is not None:
            engine._post(self.request_timeout, self._on_timeout, (request_id,))
        return request_id

    def _redundancy_threshold(self) -> float:
        policy = self.redundancy
        if len(self._history) >= policy.min_samples:
            if self._cached_threshold is None or self._samples_since_refresh >= 25:
                self._cached_threshold = self._history.percentile(policy.percentile)
                self._samples_since_refresh = 0
            return self._cached_threshold
        mean = self._history.mean()
        if mean != mean:  # NaN: no history yet
            return policy.fallback_multiplier * 10e-3
        return policy.fallback_multiplier * mean

    def _fire_redundant(self, request_id: int) -> None:
        entry = self._outstanding.get(request_id)
        if entry is None or entry.done:
            return
        others = [r for r in entry.replicas if r != entry.primary_target]
        if not others:
            return
        if self._draws is not None and len(others) > 1:
            target = others[int(self._draws.integers(len(others)))]
        else:
            target = others[0]
        self.selector.note_sent(target, self.engine.now)
        entry.duplicates_sent += 1
        self.redundant_sent += 1
        self.engine._send_request(self, request_id, entry, target)

    # -- timeouts & retries -------------------------------------------
    def _on_timeout(self, request_id: int) -> None:
        entry = self._outstanding.get(request_id)
        if entry is None or entry.done:
            return
        engine = self.engine
        self.timeouts += 1
        if entry.attempts >= self.max_retries:
            entry.done = True
            self.requests_lost += 1
            del self._outstanding[request_id]
            engine._complete_request()
            return
        entry.attempts += 1
        self.retries += 1
        now = engine.now
        if self.netrs:
            self.selector.select(entry.replicas, now)  # fresh backup draw
            self.requests_sent += 1
            engine._send_via_operator(self, request_id, entry)
        else:
            untried = tuple(r for r in entry.replicas if r not in entry.tried)
            candidates = untried or entry.replicas
            if len(candidates) > 1:
                target = self.selector.select(candidates, now)
            else:
                target = candidates[0]
            entry.tried = entry.tried + (target,)
            entry.primary_target = target
            self.selector.note_sent(target, now)
            self.requests_sent += 1
            engine._send_request(self, request_id, entry, target)
        delay = self.request_timeout * min(2.0**entry.attempts, _BACKOFF_CAP)
        engine._post(delay, self._on_timeout, (request_id,))

    # -- responses -----------------------------------------------------
    def handle_response(self, request_id: int, server: str, status: ServerStatus) -> None:
        engine = self.engine
        self.responses_received += 1
        now = engine.now
        entry = self._outstanding.get(request_id)
        if entry is not None:
            self.selector.note_response(server, now - entry.issued_at, status, now)
        if entry is None or entry.done:
            self.late_responses += 1
            if entry is not None:
                if entry.attempts:
                    self.duplicates_suppressed += 1
                entry.late_seen += 1
                if entry.late_seen >= entry.duplicates_sent + entry.attempts:
                    self._outstanding.pop(request_id, None)
            return
        entry.done = True
        latency = now - entry.issued_at
        self._history.add(latency)
        self._samples_since_refresh += 1
        if entry.record:
            self.recorder.add(latency)
        if entry.duplicates_sent == 0 and entry.attempts == 0:
            del self._outstanding[request_id]
        engine._complete_request()


class _FlowAccelerator:
    """Deterministic-service FIFO accelerator, mirroring ``Accelerator``."""

    __slots__ = ("engine", "cores", "service_time", "link_delay", "_busy", "_queue", "processed", "busy_time", "max_queue_seen")

    def __init__(self, engine, *, cores, service_time, link_delay):
        self.engine = engine
        self.cores = cores
        self.service_time = service_time
        self.link_delay = link_delay
        self._busy = 0
        self._queue: Deque[tuple] = deque()
        self.processed = 0
        self.busy_time = 0.0
        self.max_queue_seen = 0

    def submit_at(self, when: float, work: _MicroFn, args: tuple, done: Optional[_MicroFn]) -> None:
        """Ship a job over the switch<->accelerator link at time ``when``."""
        self.engine._post_at(when + self.link_delay, self._enqueue, ((work, args, done),))

    def _enqueue(self, job: tuple) -> None:
        if self._busy < self.cores:
            self._busy += 1
            self.engine._post(self.service_time, self._complete, (job,))
        else:
            self._queue.append(job)
            if len(self._queue) > self.max_queue_seen:
                self.max_queue_seen = len(self._queue)

    def _complete(self, job: tuple) -> None:
        work, args, done = job
        self.processed += 1
        self.busy_time += self.service_time
        result = work(*args)
        if done is not None and result is not None:
            self.engine._post(self.link_delay, done, result)
        if self._queue:
            self.engine._post(self.service_time, self._complete, (self._queue.popleft(),))
        else:
            self._busy -= 1

    def utilization(self, now: float) -> float:
        if now <= 0:
            return 0.0
        return self.busy_time / (self.cores * now)


class _FlowOperator:
    """A NetRS RSNode at one client-fronting ToR (selector + accelerator)."""

    __slots__ = ("tor", "selector", "accelerator", "requests_handled", "responses_handled")

    def __init__(self, tor, selector, accelerator):
        self.tor = tor
        self.selector = selector
        self.accelerator = accelerator
        self.requests_handled = 0
        self.responses_handled = 0


class _FaultDriver:
    """Maps PR5 fault events onto flow-model state (docs/FAULTS.md)."""

    def __init__(self, engine, schedule) -> None:
        self.engine = engine
        self.faults_injected = 0
        self._down_since: Dict[str, float] = {}
        self._closed_downtime = 0.0
        self._resolved = [self._resolve(event) for event in schedule.events]
        self.has_link_events = any(
            isinstance(e, (LinkDown, LinkUp, LinkDegrade)) for e in self._resolved
        )

    def _resolve(self, event):
        if isinstance(event, (ServerDown, ServerUp)):
            return type(event)(event.at, self._resolve_node(event.server))
        if isinstance(event, (LinkDown, LinkUp)):
            return type(event)(
                event.at, self._resolve_node(event.a), self._resolve_node(event.b)
            )
        if isinstance(event, LinkDegrade):
            return LinkDegrade(
                event.at,
                self._resolve_node(event.a),
                self._resolve_node(event.b),
                event.factor,
            )
        raise ConfigurationError(
            f"{type(event).__name__} fault events are packet-tier only "
            "(fidelity='flow' has no RSNode failure path)"
        )

    def _resolve_node(self, ref: str) -> str:
        engine = self.engine
        ref = ref.strip()
        if ref.startswith("tor(") and ref.endswith(")"):
            return engine.geometry.tor_name(self._resolve_node(ref[4:-1]))
        for prefix, pool in (
            ("server#", engine.server_hosts),
            ("client#", engine.client_hosts),
        ):
            if ref.startswith(prefix):
                try:
                    index = int(ref[len(prefix):])
                except ValueError:
                    raise ConfigurationError(
                        f"bad fault target index in {ref!r}"
                    ) from None
                if not 0 <= index < len(pool):
                    raise ConfigurationError(
                        f"fault target {ref!r} out of range "
                        f"(have {len(pool)} such hosts)"
                    )
                return pool[index]
        if not engine.geometry.is_host(ref):
            raise ConfigurationError(
                f"fault target {ref!r} is not a host in the flow tier "
                "(use 'server#i', 'client#i', 'tor(...)' or a host name)"
            )
        return ref

    def arm(self) -> None:
        env = self.engine.env
        self._handles = [
            env.call_at(event.at, self._apply, event) for event in self._resolved
        ]
        self.engine._env_times = sorted(event.at for event in self._resolved)

    def disarm(self) -> None:
        """Cancel the transitions still scheduled (each pins the environment)."""
        for handle in self._handles:
            handle.cancel()

    def _apply(self, event) -> None:
        engine = self.engine
        self.faults_injected += 1
        now = engine.env.now
        if isinstance(event, ServerDown):
            server = engine.servers[event.server]
            if not server.down:
                server.fail()
                self._open_window(f"server:{event.server}", now)
        elif isinstance(event, ServerUp):
            server = engine.servers[event.server]
            if server.down:
                server.recover()
                self._close_window(f"server:{event.server}", now)
        elif isinstance(event, LinkDown):
            engine._fail_link(event.a, event.b)
            self._open_window(self._link_key(event.a, event.b), now)
        elif isinstance(event, LinkUp):
            engine._restore_link(event.a, event.b)
            self._close_window(self._link_key(event.a, event.b), now)
        else:  # LinkDegrade
            engine._degrade_link(event.a, event.b, event.factor)

    @staticmethod
    def _link_key(a: str, b: str) -> str:
        lo, hi = (a, b) if a <= b else (b, a)
        return f"link:{lo}/{hi}"

    def _open_window(self, key: str, now: float) -> None:
        self._down_since.setdefault(key, now)

    def _close_window(self, key: str, now: float) -> None:
        started = self._down_since.pop(key, None)
        if started is not None:
            self._closed_downtime += now - started

    def unavailability(self, now: float) -> float:
        open_windows = sum(now - started for started in self._down_since.values())
        return self._closed_downtime + open_windows


class FlowEngine:
    """One flow-level experiment: state, micro-event loop and accounting.

    Lifetime: build, :meth:`run` once, read the counters, :meth:`teardown`.
    ``run_flow_experiment`` does all four (and parks the cyclic collector
    meanwhile); a caller driving an engine by hand owes it the teardown, or
    leaves a ~30 000-object reference cycle for a full collection to find.
    """

    def __init__(
        self,
        config,
        *,
        env: Optional[Environment] = None,
        service_time_scale: float = 1.0,
    ) -> None:
        config.validate()
        ensure_flow_supported(config)
        if service_time_scale <= 0:
            raise ConfigurationError("service_time_scale must be positive")
        self.config = config
        self.env = env if env is not None else Environment(compaction=config.engine_compaction)
        self.service_time_scale = service_time_scale
        self.geometry = FatTreeGeometry(config.fat_tree_k)
        rng = RngRegistry(config.seed)
        self.rng = rng
        batch = config.rng_batch_size

        # --- clock & micro-event machinery --------------------------------
        self._now = self.env.now
        self._heap: List[tuple] = []
        self._seq = 0
        self._ids = itertools.count(1)
        self.micro_events = 0
        self.heartbeats = 0
        self._since_flush = 0
        self._stopped = False
        self._env_times: List[float] = []

        # --- roles (identical to scenarios._assign_roles) ------------------
        host_names = self.geometry.hosts
        order = rng.stream("placement").permutation(len(host_names))
        shuffled = [host_names[i] for i in order]
        self.client_hosts = sorted(shuffled[: config.n_clients])
        self.server_hosts = sorted(
            shuffled[config.n_clients : config.n_clients + config.n_servers]
        )
        self.ring = shared_ring(
            self.server_hosts,
            replication_factor=config.replication_factor,
            virtual_nodes=config.virtual_nodes,
        )

        # --- link model ----------------------------------------------------
        h = config.host_link_latency
        s = config.switch_link_latency
        self._host_lat = h
        self._switch_lat = s
        self._full_path = {2: (h, h), 4: (h, s, s, h), 6: (h, s, s, s, s, h)}
        self._from_tor = {2: (h,), 4: (s, s, h), 6: (s, s, s, s, h)}
        self._to_tor = {2: (h,), 4: (h, s, s), 6: (h, s, s, s, s)}
        self._sizes = _wire_sizes(config)
        if config.link_bandwidth is not None:
            self._apply_bandwidth_model(config)
        self._dead_links: set = set()
        self._degraded: Dict[Tuple[str, str], float] = {}
        self._guarded = False  # hop-level fault checks only when link faults exist
        self.packets_dropped = 0
        self.transmissions = 0
        self.bytes_transferred = 0
        self.netrs_overhead_bytes = 0

        # --- servers -------------------------------------------------------
        self.servers: Dict[str, _FlowServer] = {}
        for name in self.server_hosts:
            if config.fluctuation_range > 1.0:
                mean_model = _Fluctuation(
                    config.mean_service_time,
                    config.fluctuation_range,
                    config.fluctuation_interval,
                    rng.batched(f"fluctuation.{name}", batch),
                )
            else:
                mean_model = _StableMean(config.mean_service_time)
            self.servers[name] = _FlowServer(
                self,
                name,
                parallelism=config.parallelism,
                draws=rng.batched(f"service.{name}", batch),
                alpha=config.ewma_alpha,
                mean_model=mean_model,
            )

        # --- clients -------------------------------------------------------
        self.recorder = LatencyRecorder()
        self.tracker = CompletionTracker(config.total_requests)
        self.tracker.when_done(self._stop)
        redundancy = (
            RedundancyPolicy(
                percentile=config.redundancy_percentile,
                min_samples=config.redundancy_min_samples,
            )
            if config.redundancy_enabled
            else None
        )
        self.clients: List[_FlowClient] = []
        for name in self.client_hosts:
            selector = create_selector(
                config.algorithm,
                concurrency_weight=config.n_clients,
                prior_service_rate=config.prior_service_rate(),
                rng=rng.stream(f"selector.client.{name}"),
            )
            self.clients.append(
                _FlowClient(
                    self,
                    name,
                    ring=self.ring,
                    selector=selector,
                    recorder=self.recorder,
                    netrs=config.netrs,
                    redundancy=redundancy,
                    draws=(
                        rng.batched(f"redundancy.{name}", batch)
                        if redundancy
                        else None
                    ),
                    request_timeout=config.request_timeout,
                    max_retries=config.max_retries,
                )
            )

        # --- NetRS operators (netrs-tor: one RSNode per client ToR) --------
        self.operators: Dict[str, _FlowOperator] = {}
        self._operator_of: Dict[str, _FlowOperator] = {}
        if config.netrs:
            tors = sorted({self.geometry.tor_name(name) for name in self.client_hosts})
            n_rsnodes = len(tors)
            for index, tor in enumerate(tors, start=1):
                selector = create_selector(
                    config.algorithm,
                    concurrency_weight=n_rsnodes,
                    prior_service_rate=config.prior_service_rate(),
                    rng=rng.stream(f"selector.operator.{index}"),
                )
                accelerator = _FlowAccelerator(
                    self,
                    cores=config.accelerator_cores,
                    service_time=config.accelerator_service_time,
                    link_delay=config.accelerator_link_delay,
                )
                self.operators[tor] = _FlowOperator(tor, selector, accelerator)
            for name in self.client_hosts:
                self._operator_of[name] = self.operators[self.geometry.tor_name(name)]

        # --- workload ------------------------------------------------------
        self.weights = DemandWeights(
            config.n_clients,
            skew=config.demand_skew,
            hot_fraction=config.hot_fraction,
            rng=rng.stream("workload.skew") if config.demand_skew is not None else None,
        )
        self._sampler = ZipfSampler(
            config.key_space, config.zipf_exponent, rng.batched("workload.keys", batch)
        )
        self._arrival_rng = rng.stream("workload.arrivals")
        self._rate = config.arrival_rate()
        self._total = config.total_requests
        self._warmup = config.warmup_requests()
        self.issued = 0
        self.per_client_counts = [0] * config.n_clients

        # --- faults --------------------------------------------------------
        self.faults: Optional[_FaultDriver] = None
        if config.fault_schedule:
            self.faults = _FaultDriver(self, parse_fault_schedule(config.fault_schedule))
            self.faults.arm()
            self._guarded = self.faults.has_link_events

    # ------------------------------------------------------------------
    # Clock & scheduling
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def _post(self, delay: float, fn: _MicroFn, args: tuple = ()) -> None:
        self._seq += 1
        heappush(self._heap, (self._now + delay, self._seq, fn, args))

    def _post_at(self, when: float, fn: _MicroFn, args: tuple = ()) -> None:
        self._seq += 1
        heappush(self._heap, (when, self._seq, fn, args))

    def _stop(self) -> None:
        self._stopped = True

    def _complete_request(self) -> None:
        self.tracker.complete()
        self._since_flush += 1
        if self._since_flush >= _FLUSH_EVERY:
            self._since_flush = 0
            env = self.env
            env.post_at(self._now, self._heartbeat)
            env.run(until=self._now)

    def _heartbeat(self) -> None:
        self.heartbeats += 1

    def run(self, until: Optional[float] = None) -> None:
        """Drive the experiment until completion (or the safety horizon)."""
        self._post(
            self._arrival_rng.exponential(1.0 / self._rate), self._arrival  # repro: noqa(PERF001) - mixed-family arrival stream, mirrors OpenLoopWorkload
        )
        heap = self._heap
        env = self.env
        env_times = self._env_times
        while heap and not self._stopped:
            entry = heappop(heap)
            when = entry[0]
            if until is not None and when > until:
                self._now = until
                break
            if env_times and env_times[0] <= when:
                # Fault transitions fire on the macro clock, strictly before
                # any micro-event at or after their timestamp (same ordering
                # as the packet tier's build-time-scheduled fault events).
                while env_times and env_times[0] <= when:
                    env.run(until=env_times.pop(0))
            self._now = when
            self.micro_events += 1
            entry[2](*entry[3])
        if self._now > env.now:
            env.run(until=self._now)

    def teardown(self) -> None:
        """Release everything the run built; the engine is unusable afterwards.

        An engine is one large reference cycle: every client, server and
        accelerator points back at it, and the tracker, the fault schedule
        and the events left on the heap hold its bound methods.  Merely
        dropped, it waits for a full pass of the cyclic collector, which a
        flow run keeps parked (``run_flow_experiment``).  Emptying the
        instance dict cuts every one of those cycles at the engine, whatever
        attributes a later change adds, so all the engine owned is freed by
        reference count here; what it shares (the recorder the result keeps,
        a caller's ``env``, the interned ring) is only released.
        """
        if self.faults is not None:
            self.faults.disarm()
        self.__dict__.clear()

    # ------------------------------------------------------------------
    # Workload (mirrors OpenLoopWorkload._arrival, read-only path)
    # ------------------------------------------------------------------
    def _arrival(self) -> None:
        index = self.weights.sample(self._arrival_rng)
        key = self._sampler.sample()
        record = self.issued >= self._warmup
        self.per_client_counts[index] += 1
        self.issued += 1
        self.clients[index].issue(key, record=record)
        if self.issued < self._total:
            self._post(
                self._arrival_rng.exponential(1.0 / self._rate), self._arrival  # repro: noqa(PERF001) - mixed-family arrival stream, mirrors OpenLoopWorkload
            )

    # ------------------------------------------------------------------
    # Link state (flow-model mapping of fabric faults)
    # ------------------------------------------------------------------
    def _check_access_link(self, a: str, b: str) -> Tuple[str, str]:
        host, other = (a, b) if self.geometry.is_host(a) else (b, a)
        if not self.geometry.is_host(host) or other != self.geometry.tor_name(host):
            raise ConfigurationError(
                f"no host-access link {a} <-> {b} in the flow model"
            )
        return host, other

    def _fail_link(self, a: str, b: str) -> None:
        self._check_access_link(a, b)
        self._dead_links.add((a, b))
        self._dead_links.add((b, a))

    def _restore_link(self, a: str, b: str) -> None:
        self._check_access_link(a, b)
        self._dead_links.discard((a, b))
        self._dead_links.discard((b, a))
        self._degraded.pop((a, b), None)
        self._degraded.pop((b, a), None)

    def _degrade_link(self, a: str, b: str, factor: float) -> None:
        self._check_access_link(a, b)
        self._degraded[(a, b)] = factor
        self._degraded[(b, a)] = factor

    # ------------------------------------------------------------------
    # Analytic delivery (the flow tier's replacement for packet forwarding)
    # ------------------------------------------------------------------
    def _account(self, hops: int, size: int, overhead: int) -> None:
        self.transmissions += hops
        self.bytes_transferred += size * hops
        self.netrs_overhead_bytes += overhead * hops

    def _send_along(
        self,
        hops: Tuple[float, ...],
        first_link: Optional[Tuple[str, str]],
        last_link: Optional[Tuple[str, str]],
        size: int,
        overhead: int,
        fn: _MicroFn,
        args: tuple,
    ) -> None:
        """Deliver along a fixed hop sequence, accumulating per-hop delays.

        Fast path: one float addition per hop (the exact additions the
        packet engine performs via per-hop ``post_in``), one micro-event at
        the far end.  Guarded path (only when the fault schedule contains
        link events): the first and last access-link crossings are checked
        against dead/degraded state at their actual transmit times.
        """
        t = self._now
        if not self._guarded:
            for d in hops:
                t += d
            self._account(len(hops), size, overhead)
            self._post_at(t, fn, args)
            return
        if first_link is not None and first_link in self._dead_links:
            self.packets_dropped += 1
            return
        first = hops[0]
        if first_link is not None:
            factor = self._degraded.get(first_link)
            if factor is not None:
                first *= factor
        t += first
        if last_link is None:
            for d in hops[1:]:
                t += d
            self._account(len(hops), size, overhead)
            self._post_at(t, fn, args)
            return
        for d in hops[1:-1]:
            t += d
        self._account(len(hops) - 1, size, overhead)
        self._post_at(
            t, self._final_hop, (last_link, hops[-1], size, overhead, fn, args)
        )

    def _final_hop(self, link, lat, size, overhead, fn, args) -> None:
        """Cross the destination access link at its real transmit time."""
        if link in self._dead_links:
            self.packets_dropped += 1
            return
        factor = self._degraded.get(link)
        if factor is not None:
            lat *= factor
        self._account(1, size, overhead)
        self._post_at(self._now + lat, fn, args)

    # -- CliRS paths ---------------------------------------------------
    def _send_request(self, client: _FlowClient, rid: int, entry: _Entry, target: str) -> None:
        hops = self._full_path[self.geometry.hop_count(client.name, target)]
        size, overhead = self._sizes["request"]
        first = last = None
        if self._guarded:
            first = (client.name, self.geometry.tor_name(client.name))
            last = (self.geometry.tor_name(target), target)
        self._send_along(
            hops, first, last, size, overhead,
            self.servers[target].handle_arrival, (client, rid, None),
        )

    def _send_response(self, server, client, rid, rv, status) -> None:
        if self.config.netrs:
            self._send_netrs_response(server, client, rid, rv, status)
            return
        hops = self._full_path[self.geometry.hop_count(server.name, client.name)]
        size, overhead = self._sizes["response"]
        first = last = None
        if self._guarded:
            first = (server.name, self.geometry.tor_name(server.name))
            last = (self.geometry.tor_name(client.name), client.name)
        self._send_along(
            hops, first, last, size, overhead,
            client.handle_response, (rid, server.name, status),
        )

    # -- NetRS paths (netrs-tor: RSNode at the client's ToR) -----------
    def _send_via_operator(self, client: _FlowClient, rid: int, entry: _Entry) -> None:
        op = self._operator_of[client.name]
        link = (client.name, self.geometry.tor_name(client.name))
        lat = self._host_lat
        if self._guarded:
            if link in self._dead_links:
                self.packets_dropped += 1
                return
            factor = self._degraded.get(link)
            if factor is not None:
                lat *= factor
        size, overhead = self._sizes["netrs_request"]
        self._account(1, size, overhead)
        # Host -> ToR, then ToR -> accelerator (submit adds the link delay).
        op.accelerator.submit_at(
            self._now + lat, self._select_work, (op, client, rid, entry), self._forward_selected
        )

    def _select_work(self, op: _FlowOperator, client, rid, entry):
        """Accelerator work: mirror of ``NetRSSelector.on_request``."""
        now = self._now
        candidates = self.ring.replicas(entry.rgid)
        server = op.selector.select(candidates, now)
        op.selector.note_sent(server, now)
        op.requests_handled += 1
        return (op, client, rid, server, now)  # retaining value = now

    def _forward_selected(self, op, client, rid, server, rv) -> None:
        """Rebuilt request leaves the ToR toward the selected server."""
        hops = self._from_tor[self.geometry.hop_count(client.name, server)]
        size, overhead = self._sizes["netrs_request"]
        last = (self.geometry.tor_name(server), server) if self._guarded else None
        self._send_along(
            hops, None, last, size, overhead,
            self.servers[server].handle_arrival, (client, rid, rv),
        )

    def _send_netrs_response(self, server, client, rid, rv, status) -> None:
        hops = self._to_tor[self.geometry.hop_count(server.name, client.name)]
        # The source marker is stamped at the server's ToR ingress, so the
        # first hop travels unmarked and every later hop carries 4 more
        # bytes -- mirror the packet tier's per-hop accounting exactly.
        size, overhead = self._sizes["netrs_response"]
        lat = hops[0]
        if self._guarded:
            link = (server.name, self.geometry.tor_name(server.name))
            if link in self._dead_links:
                self.packets_dropped += 1
                return
            factor = self._degraded.get(link)
            if factor is not None:
                lat *= factor
        self._account(1, size, overhead)
        t = self._now + lat
        for d in hops[1:]:
            t += d
        if len(hops) > 1:
            marked_size, marked_overhead = self._sizes["netrs_response_marked"]
            self._account(len(hops) - 1, marked_size, marked_overhead)
        self._post_at(t, self._tor_response, (client, rid, rv, server.name, status))

    def _tor_response(self, client, rid, rv, server_name, status) -> None:
        """Response reaches the client's ToR: clone to the RSNode, forward."""
        op = self._operator_of[client.name]
        op.accelerator.submit_at(
            self._now, self._absorb_response, (op, rv, server_name, status), None
        )
        link = (self.geometry.tor_name(client.name), client.name)
        lat = self._host_lat
        if self._guarded:
            if link in self._dead_links:
                self.packets_dropped += 1
                return
            factor = self._degraded.get(link)
            if factor is not None:
                lat *= factor
        size, overhead = self._sizes["netrs_response_marked"]
        self._account(1, size, overhead)
        self._post_at(lat + self._now, client.handle_response, (rid, server_name, status))

    def _absorb_response(self, op: _FlowOperator, rv, server_name, status):
        """Accelerator work: mirror of ``NetRSSelector.on_response``."""
        now = self._now
        op.selector.note_response(server_name, now - rv, status, now)
        op.responses_handled += 1
        return None

    # ------------------------------------------------------------------
    # Bandwidth model (analytic, see docs/MESOSCALE.md "Serialization")
    # ------------------------------------------------------------------
    def _apply_bandwidth_model(self, config) -> None:
        bandwidth = config.link_bandwidth
        req_size = self._sizes["request"][0]
        resp_size = self._sizes["response"][0]
        if config.netrs:
            req_size = self._sizes["netrs_request"][0]
            resp_size = self._sizes["netrs_response_marked"][0]
        s_req = req_size * 8.0 / bandwidth
        s_resp = resp_size * 8.0 / bandwidth
        lam_client = self._rate / config.n_clients
        lam_server = self._rate / config.n_servers
        wait_req = _md1_wait(lam_server, s_req)
        wait_resp = _md1_wait(lam_server, s_resp)
        wait_client_req = _md1_wait(lam_client, s_req)
        wait_client_resp = _md1_wait(lam_client, s_resp)

        def widen(hops, first_extra, mid_extra, last_extra):
            widened = [d + mid_extra for d in hops]
            widened[0] = hops[0] + first_extra
            widened[-1] = hops[-1] + last_extra
            return tuple(widened)

        for count in (2, 4, 6):
            self._full_path[count] = widen(
                self._full_path[count], s_req + wait_client_req, s_req, s_req + wait_req
            )
            self._from_tor[count] = widen(
                self._from_tor[count], s_req, s_req, s_req + wait_req
            )
            self._to_tor[count] = widen(
                self._to_tor[count], s_resp + wait_resp, s_resp, s_resp
            )
        # Response final hop onto the client access link.
        self._host_lat_response = self._host_lat + s_resp + wait_client_resp
        # CliRS responses reuse _full_path sized for requests; rebuild a
        # response-direction table instead.
        base = {2: (self._host_lat, self._host_lat),
                4: (self._host_lat, self._switch_lat, self._switch_lat, self._host_lat),
                6: (self._host_lat,) + (self._switch_lat,) * 4 + (self._host_lat,)}
        self._response_path = {
            count: widen(base[count], s_resp + wait_resp, s_resp, s_resp + wait_client_resp)
            for count in (2, 4, 6)
        }

    # ------------------------------------------------------------------
    # Result accounting helpers
    # ------------------------------------------------------------------
    def accelerator_max_utilization(self) -> float:
        if not self.operators:
            return 0.0
        now = self._now
        return max(op.accelerator.utilization(now) for op in self.operators.values())

    def selector_requests_handled(self) -> int:
        return sum(op.requests_handled for op in self.operators.values())


def _md1_wait(rate: float, service: float) -> float:
    """Mean M/D/1 waiting time ``rho * S / (2 (1 - rho))`` for one link."""
    rho = rate * service
    if rho >= 1.0:
        raise ConfigurationError(
            f"link_bandwidth saturates an access link (rho={rho:.2f}); "
            "the analytic flow model needs rho < 1"
        )
    return rho * service / (2.0 * (1.0 - rho))


def _wire_sizes(config) -> Dict[str, Tuple[int, int]]:
    """Per-packet (wire bytes, NetRS-overhead bytes) by packet kind.

    Mirrors the inlined sizing in ``Network.transmit``: CliRS requests are
    plain UDP; responses add the status segment and the value payload; NetRS
    packets add the fixed NetRS header plus RGID (and, for responses past
    the server's ToR, the source marker).
    """
    payload = 16  # empty-request placeholder payload, as in wire_size()
    value = 16 if config.value_size == 0 else config.value_size
    status = _SIZE_SSL + 12  # ServerStatus.wire_size() is fixed at 12 bytes
    netrs_fixed = _SIZE_RID + _SIZE_MF + _SIZE_RV
    return {
        "request": (_SIZE_UDP_HEADERS + payload, 0),
        "response": (_SIZE_UDP_HEADERS + status + value, 0),
        "netrs_request": (
            _SIZE_UDP_HEADERS + netrs_fixed + _SIZE_RGID + payload,
            netrs_fixed + _SIZE_RGID,
        ),
        # Responses drop the RGID segment (it is request-only wire data).
        "netrs_response": (
            _SIZE_UDP_HEADERS + netrs_fixed + status + value,
            netrs_fixed,
        ),
        "netrs_response_marked": (
            _SIZE_UDP_HEADERS + netrs_fixed + _SIZE_SM + status + value,
            netrs_fixed + _SIZE_SM,
        ),
    }
