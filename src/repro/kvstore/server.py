"""Key-value server: Np-parallel queue with fluctuating exponential service.

A server processes up to ``parallelism`` requests concurrently (paper:
``Np = 4``); excess requests wait in FIFO order.  Each request's service time
is exponential with the *current* fluctuating mean.  Every response
piggybacks a :class:`~repro.network.packet.ServerStatus` -- the queue size at
departure and the server's EWMA service-rate estimate -- which is the
feedback channel C3-style selectors rely on.

The model exists once, in :class:`ServerCore`: queue, service slots, rate
EWMA and the crash epoch, written against a clock (``env.now``,
``env.post_in``) and one injected callable, ``respond``, that puts a finished
job's reply on the wire.  The job itself is opaque to it.  Two drivers run
that body: :class:`KVServer` on the packet fabric (jobs are request packets,
``respond`` rewrites one into its reply and hands it to the host) and the
flow engine (:mod:`repro.mesoscale.flow`: jobs are ``(client, request id,
retaining value)``, ``respond`` prices the return path in closed form).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Protocol, Tuple

from repro.network.host import Host
from repro.network.packet import Packet, ServerStatus
from repro.sim.core import Environment
from repro.sim.rng import DrawSource


class ServiceModel(Protocol):
    """Provides the time-varying mean service time."""

    #: Mean service time right now (an attribute: read once per request).
    current_mean: float

    def start(self, env: Environment) -> None:
        """Begin any time-varying behaviour."""
        ...  # pragma: no cover - protocol definition


#: ``respond(server, job, status, queue_delay, service_time)``: reply to a
#: finished ``job``.  The two durations are what the server measured for it.
Respond = Callable[["ServerCore", Any, ServerStatus, float, float], None]


class ServerCore:
    """The replica server model: Np slots, FIFO queue, rate EWMA, crash epoch.

    ``env`` is anything with the clock surface ``now`` / ``post_in`` (an
    :class:`~repro.sim.core.Environment` or a flow engine).
    """

    __slots__ = (
        "env",
        "name",
        "service_model",
        "parallelism",
        "_draws",
        "_alpha",
        "_respond",
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

    def __init__(
        self,
        env: Environment,
        name: str,
        *,
        service_model: ServiceModel,
        parallelism: int = 4,
        rng: DrawSource,
        rate_ewma_alpha: float = 0.9,
        respond: Respond,
    ) -> None:
        if parallelism < 1:
            raise ValueError(f"parallelism must be >= 1, got {parallelism}")
        if not 0 <= rate_ewma_alpha < 1:
            raise ValueError("rate_ewma_alpha must be in [0, 1)")
        self.env = env
        self.name = name
        self.service_model = service_model
        self.parallelism = parallelism
        self._draws = rng
        self._alpha = rate_ewma_alpha
        self._respond = respond
        self._waiting: Deque[Tuple[Any, float]] = deque()  # (job, arrived_at)
        self._in_service = 0
        # EWMA of observed service durations seeds at the nominal mean so the
        # first piggybacked rates are sane.
        self._ewma_service_time = service_model.current_mean
        # Accounting
        self.completions = 0
        self.arrivals = 0
        self.max_queue_seen = 0
        # Crash-stop state (see repro.faults and docs/FAULTS.md).  The epoch
        # stamps in-flight completions so work scheduled before a crash dies
        # with the server instead of completing across it.
        self.down = False
        self._epoch = 0
        self.dropped_requests = 0
        self.lost_in_service = 0
        service_model.start(env)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def queue_size(self) -> int:
        """Pending requests: waiting plus in service (what C3 piggybacks)."""
        return len(self._waiting) + self._in_service

    @property
    def service_rate_estimate(self) -> float:
        """EWMA-based aggregate drain rate (requests/second)."""
        return self.parallelism / self._ewma_service_time

    # ------------------------------------------------------------------
    # Crash-stop faults
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Crash the server: lose the queue and all requests in service.

        Idempotent.  Requests arriving while down are dropped (and counted
        in ``dropped_requests``); clients recover them via their timeout and
        retry path.  The EWMA rate estimate survives the crash -- the paper's
        feedback channel carries no tombstones, so stale state after
        recovery is part of the model.
        """
        if self.down:
            return
        self.down = True
        self._epoch += 1
        self.lost_in_service += self._in_service + len(self._waiting)
        self._waiting.clear()
        self._in_service = 0

    def recover(self) -> None:
        """Bring a crashed server back with an empty queue (idempotent)."""
        self.down = False

    # ------------------------------------------------------------------
    # Queue and service slots
    # ------------------------------------------------------------------
    def handle_arrival(self, job: Any) -> None:
        """Accept one request: serve it now or queue it behind the Np slots."""
        if self.down:
            self.dropped_requests += 1
            return
        self.arrivals += 1
        queued = len(self._waiting) + self._in_service
        if queued + 1 > self.max_queue_seen:
            self.max_queue_seen = queued + 1
        if self._in_service < self.parallelism:
            self._begin(job, 0.0)
        else:
            self._waiting.append((job, self.env.now))

    def _begin(self, job: Any, queue_delay: float) -> None:
        self._in_service += 1
        duration = self._draws.exponential(self.service_model.current_mean)
        self.env.post_in(
            duration, self._complete, (job, queue_delay, duration, self._epoch)
        )

    def _complete(
        self, job: Any, queue_delay: float, duration: float, epoch: int
    ) -> None:
        if epoch != self._epoch:
            # Scheduled before a crash: that work died with the server.
            return
        self._in_service -= 1
        self.completions += 1
        self._ewma_service_time = (
            self._alpha * self._ewma_service_time + (1 - self._alpha) * duration
        )
        now = self.env.now
        status = ServerStatus(
            len(self._waiting) + self._in_service,
            self.parallelism / self._ewma_service_time,
            now,
        )
        self._respond(self, job, status, queue_delay, duration)
        if self._waiting:
            next_job, arrived_at = self._waiting.popleft()
            self._begin(next_job, now - arrived_at)


class KVServer(ServerCore):
    """One replica server on the packet fabric: the wire edge of the model.

    Jobs are request packets, each answered in its own packet
    (:meth:`Packet.reply`).  Besides replying to them, the packet edge
    owns everything that only exists as packets: the per-key version store,
    digest probes and migration installs (docs/CONSISTENCY.md).
    """

    __slots__ = (
        "host",
        "value_size",
        "_versions",
        "digest_requests",
        "repairs_applied",
        "migration_keys_in",
        "migration_bytes_in",
    )

    def __init__(
        self,
        env: Environment,
        host: Host,
        *,
        service_model: ServiceModel,
        parallelism: int = 4,
        rng: DrawSource,
        value_size: int = 1024,
        rate_ewma_alpha: float = 0.9,
    ) -> None:
        super().__init__(
            env,
            host.name,
            service_model=service_model,
            parallelism=parallelism,
            rng=rng,
            rate_ewma_alpha=rate_ewma_alpha,
            respond=KVServer._send_response,
        )
        self.host = host
        self.value_size = value_size
        # Per-key LWW version store: key -> (version_ts, version_id).  Only
        # written keys have entries (reads of never-written keys carry the
        # zero version).  Versions survive crashes -- crash-stop loses the
        # queue, not the disk -- and are the payload key migration ships.
        self._versions: "dict[int, Tuple[float, int]]" = {}
        self.digest_requests = 0
        self.repairs_applied = 0
        self.migration_keys_in = 0
        self.migration_bytes_in = 0
        host.bind(self)

    # ------------------------------------------------------------------
    # Packet edge
    # ------------------------------------------------------------------
    def handle_packet(self, packet: Packet) -> None:
        """Endpoint callback: accept a request (read, write, or metadata).

        Digest probes and migration installs touch only the in-memory version
        table (no value retrieval), so they are served at once instead of
        competing with data requests for the ``Np`` service slots -- and
        deliberately do not perturb ``arrivals``, queue sizes, or the
        piggybacked feedback loop.  A digest is answered here, in the probe's
        own packet, with the status ``_complete`` would piggyback.
        """
        if packet.is_digest or packet.is_migration:
            if self.down:
                self.dropped_requests += 1
            elif packet.is_migration:
                self._install_migration(packet)
            else:
                self.digest_requests += 1
                version = self._versions.get(packet.key)
                packet.reply(
                    self.name,
                    ServerStatus(
                        len(self._waiting) + self._in_service,
                        self.parallelism / self._ewma_service_time,
                        self.env.now,
                    ),
                    0,
                )
                if version is not None:
                    packet.version_ts, packet.version_id = version
                self.host.send(packet)
            return
        self.handle_arrival(packet)

    def _send_response(
        self,
        packet: Packet,
        status: ServerStatus,
        queue_delay: float,
        service_time: float,
    ) -> None:
        versions = self._versions
        if packet.is_write:
            # Apply the write's version (LWW) before the reply reads the
            # store's.  Ordering ties break on the globally monotone
            # ``version_id``, so last-write-wins is a total order and replicas
            # converge regardless of apply order.
            incoming = (packet.version_ts, packet.version_id)
            if incoming > versions.get(packet.key, (0.0, 0)):
                versions[packet.key] = incoming
                if packet.is_repair:
                    self.repairs_applied += 1
        # Read-only runs store no version: skip the lookup.
        version = versions.get(packet.key) if versions else None
        packet.reply(self.name, status, self.value_size)
        packet.server_queue_delay = queue_delay
        packet.server_service_time = service_time
        if version is not None:
            packet.version_ts, packet.version_id = version
        self.host.send(packet)

    # ------------------------------------------------------------------
    # Consistency protocol (see docs/CONSISTENCY.md)
    # ------------------------------------------------------------------
    def version_of(self, key: int) -> Tuple[float, int]:
        """The LWW version of ``key``; the zero version if never written."""
        return self._versions.get(key, (0.0, 0))

    def version_items(self):
        """Stored ``(key, version)`` pairs in write-application order.

        Dict insertion order is the order writes were first applied, which
        is deterministic per seed -- migration payloads iterate this.
        """
        return self._versions.items()

    def _install_migration(self, packet: Packet) -> None:
        """Fold a migration chunk into the version store (LWW per key)."""
        for key, version_ts, version_id in packet.migration_entries:
            incoming = (version_ts, version_id)
            if incoming > self._versions.get(key, (0.0, 0)):
                self._versions[key] = incoming
                self.migration_keys_in += 1
        self.migration_bytes_in += packet.value_size
