"""Cloud-side telemetry ingestion: at-least-once, exactly-once after dedup.

The third layer of the telemetry pipeline (paper Sec. II-B): the cloud
orchestrator that accepts every vehicle's condensed operational logs and
metrics snapshots after they crossed the lossy link.  The delivery
contract, end to end:

* **at least once** — the client retries until acked and spools to the
  SSD across partitions, so every realtime log reaches
  :meth:`IngestionService.ingest` one or more times;
* **exactly once after dedup** — the service keys every envelope by its
  idempotency key (``vehicle/class/sequence``) and stores the first copy
  only; retries and link-level duplicates are acked again but counted as
  duplicates, never stored twice;
* **corruption never lands** — the wire CRC32 is verified before
  anything else; mismatching blobs go to the dead-letter queue and are
  *not* acked, which is exactly what drives the client to retransmit a
  clean copy;
* **acks are batched** — acks flush when the batch fills or the flush
  interval elapses, and cross the same lossy channel back (a lost ack
  is the canonical duplicate generator).

:class:`TelemetrySession` co-simulates one client against the service
over one :class:`~repro.cloud.network.LossyLink` in virtual time — a
seeded discrete-event loop, so a campaign's every retry, duplicate, and
dead letter replays bit-identically.  :func:`run_ingest_campaign` sweeps
a fleet of such sessions and folds the result into one
:class:`IngestReport` per fleet (delivered/duplicated/corrupted/
dead-lettered counts plus P² ingest-latency percentiles).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..observability.metrics import StreamingHistogram
from .client import (
    METRICS,
    OPEN,
    REALTIME_OPS,
    ClientReport,
    ResilientUplinkClient,
    UplinkEnvelope,
    WireDecodeError,
)
from .network import LossyLink, NetworkFaultSpace

# ---------------------------------------------------------------------------
# The ingestion service
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StoredLog:
    """One accepted, deduplicated log in the retention store."""

    key: str
    vehicle_id: str
    log_class: str
    size_bytes: int
    created_s: float
    stored_s: float


@dataclass(frozen=True)
class DeadLetter:
    """One rejected blob, kept for forensics instead of being dropped."""

    blob: bytes
    received_s: float
    reason: str


@dataclass(frozen=True)
class Ack:
    """One idempotency key the service confirmed back to a vehicle."""

    key: str
    received_s: float


@dataclass(frozen=True)
class RetentionPolicy:
    """How much ingested telemetry the service keeps per vehicle."""

    max_logs_per_vehicle: int = 10_000
    max_age_s: float = 7 * 24 * 3_600.0

    def __post_init__(self) -> None:
        if self.max_logs_per_vehicle < 1:
            raise ValueError("retention must keep at least one log")
        if self.max_age_s <= 0:
            raise ValueError("retention age must be positive")


@dataclass(frozen=True)
class IngestReport:
    """Per-fleet delivery accounting, the billable/debuggable record.

    Bit-identical for a repeated seed: every count is an integer fold of
    the seeded event stream and the latency percentiles come from the
    deterministic P² estimator fed in event order.
    """

    delivered: int
    duplicated: int
    corrupted: int
    dead_lettered: int
    retention_evicted: int
    acks_flushed: int
    ack_batches: int
    delivered_by_class: Dict[str, int]
    ingest_p50_s: float
    ingest_p99_s: float
    ingest_mean_s: float

    def as_dict(self) -> Dict[str, float]:
        """A flat, order-stable numeric view (determinism comparisons)."""
        out: Dict[str, float] = {
            "delivered": float(self.delivered),
            "duplicated": float(self.duplicated),
            "corrupted": float(self.corrupted),
            "dead_lettered": float(self.dead_lettered),
            "retention_evicted": float(self.retention_evicted),
            "acks_flushed": float(self.acks_flushed),
            "ack_batches": float(self.ack_batches),
            "ingest_p50_s": self.ingest_p50_s,
            "ingest_p99_s": self.ingest_p99_s,
            "ingest_mean_s": self.ingest_mean_s,
        }
        for cls in sorted(self.delivered_by_class):
            out[f"delivered_{cls}"] = float(self.delivered_by_class[cls])
        return out


class IngestionService:
    """The at-least-once telemetry sink with idempotency-key dedup."""

    def __init__(
        self,
        ack_batch: int = 8,
        ack_interval_s: float = 1.0,
        retention: Optional[RetentionPolicy] = None,
    ) -> None:
        if ack_batch < 1:
            raise ValueError("ack batch must be >= 1")
        if ack_interval_s <= 0:
            raise ValueError("ack interval must be positive")
        self.ack_batch = ack_batch
        self.ack_interval_s = ack_interval_s
        self.retention = retention or RetentionPolicy()
        self._seen: Dict[str, float] = {}
        self._store: Dict[str, List[StoredLog]] = {}
        self.dead_letters: List[DeadLetter] = []
        self._pending_acks: List[Ack] = []
        self._latency = StreamingHistogram(
            "ingest_latency_s",
            "end-to-end submit-to-ingest latency",
            quantiles=(0.5, 0.9, 0.99),
        )
        self.delivered = 0
        self.duplicated = 0
        self.corrupted = 0
        self.retention_evicted = 0
        self.acks_flushed = 0
        self.ack_batches = 0
        self.delivered_by_class: Dict[str, int] = {}

    # -- ingest ----------------------------------------------------------------

    def ingest(self, blob: bytes, now_s: float) -> Optional[str]:
        """Accept one wire blob; returns its idempotency key if acked.

        Checksum failures dead-letter the blob and return None — no ack,
        so the sender retries.  Duplicates are acked again (the first ack
        may have been lost) but never stored twice.
        """
        try:
            envelope = UplinkEnvelope.from_wire(blob)
        except WireDecodeError as exc:
            self.corrupted += 1
            self.dead_letters.append(
                DeadLetter(blob=bytes(blob), received_s=now_s, reason=str(exc))
            )
            return None
        key = envelope.idempotency_key
        if key in self._seen:
            self.duplicated += 1
        else:
            self._seen[key] = now_s
            self.delivered += 1
            self.delivered_by_class[envelope.log_class] = (
                self.delivered_by_class.get(envelope.log_class, 0) + 1
            )
            self._latency.observe(max(0.0, now_s - envelope.created_s))
            self._retain(envelope, now_s)
        self._pending_acks.append(Ack(key=key, received_s=now_s))
        return key

    def _retain(self, envelope: UplinkEnvelope, now_s: float) -> None:
        logs = self._store.setdefault(envelope.vehicle_id, [])
        logs.append(
            StoredLog(
                key=envelope.idempotency_key,
                vehicle_id=envelope.vehicle_id,
                log_class=envelope.log_class,
                size_bytes=len(envelope.payload),
                created_s=envelope.created_s,
                stored_s=now_s,
            )
        )
        # Age first, then count: both policies evict oldest-first.
        while logs and now_s - logs[0].stored_s > self.retention.max_age_s:
            logs.pop(0)
            self.retention_evicted += 1
        while len(logs) > self.retention.max_logs_per_vehicle:
            logs.pop(0)
            self.retention_evicted += 1

    # -- acks ------------------------------------------------------------------

    @property
    def pending_ack_count(self) -> int:
        return len(self._pending_acks)

    def ack_due(self, now_s: float) -> bool:
        """Whether the batch should flush at *now_s*."""
        if not self._pending_acks:
            return False
        if len(self._pending_acks) >= self.ack_batch:
            return True
        return now_s - self._pending_acks[0].received_s >= self.ack_interval_s

    def flush_acks(self, now_s: float, force: bool = False) -> List[Ack]:
        """Release the pending batch (everything pending, FIFO)."""
        if not force and not self.ack_due(now_s):
            return []
        flushed, self._pending_acks = self._pending_acks, []
        if flushed:
            self.acks_flushed += len(flushed)
            self.ack_batches += 1
        return flushed

    # -- queries ---------------------------------------------------------------

    def stored_keys(self, log_class: Optional[str] = None) -> Tuple[str, ...]:
        keys = []
        for vehicle in sorted(self._store):
            for log in self._store[vehicle]:
                if log_class is None or log.log_class == log_class:
                    keys.append(log.key)
        return tuple(keys)

    def report(self) -> IngestReport:
        if self._latency.count:
            p50 = self._latency.quantile(0.5)
            p99 = self._latency.quantile(0.99)
            mean = self._latency.mean
        else:
            p50 = p99 = mean = 0.0
        return IngestReport(
            delivered=self.delivered,
            duplicated=self.duplicated,
            corrupted=self.corrupted,
            dead_lettered=len(self.dead_letters),
            retention_evicted=self.retention_evicted,
            acks_flushed=self.acks_flushed,
            ack_batches=self.ack_batches,
            delivered_by_class=dict(self.delivered_by_class),
            ingest_p50_s=p50,
            ingest_p99_s=p99,
            ingest_mean_s=mean,
        )


# ---------------------------------------------------------------------------
# TelemetrySession: seeded discrete-event co-simulation
# ---------------------------------------------------------------------------

#: Event kinds; same-instant events resolve in insertion order (the
#: explicit monotone counter makes the heap ordering total).
_SUBMIT = "submit"
_ATTEMPT = "attempt"
_DELIVERY = "delivery"
_ACK_FLUSH = "ack_flush"
_ACK = "ack"
_TIMEOUT = "timeout"
_PROBE = "probe"


class TelemetrySession:
    """One vehicle's uplink client vs the ingestion service, in virtual time.

    Drives the full loop: queued envelopes go out one at a time (the
    cellular modem is serial), cross the :class:`LossyLink`, land in the
    service, and their batched acks cross back; timeouts trigger
    seeded-jitter backoff retries, consecutive failures trip the circuit
    breaker into SSD store-and-forward, and a successful probe after the
    cooldown drains the spool.  Everything is a deterministic function of
    the client/link seeds and the submission schedule.
    """

    def __init__(
        self,
        client: ResilientUplinkClient,
        link: LossyLink,
        service: IngestionService,
    ) -> None:
        self.client = client
        self.link = link
        self.service = service
        self._events: List[Tuple[float, int, str, object]] = []
        self._tick = 0
        #: key -> attempt number of the live send (or pending retry).
        self._in_flight: Dict[str, int] = {}
        #: key -> envelope, for every send not yet acked/abandoned/spooled.
        self._envelopes: Dict[str, UplinkEnvelope] = {}
        #: Keys the client has seen acked (stale-retry suppression).
        self._acked: set = set()
        self._sending: Optional[str] = None
        self._ack_flush_scheduled = False
        self._probe_scheduled = False
        self.now_s = 0.0

    # -- scheduling ------------------------------------------------------------

    def _push(self, at_s: float, kind: str, data: object = None) -> None:
        self._tick += 1
        heapq.heappush(self._events, (at_s, self._tick, kind, data))

    def schedule_submission(
        self, payload: bytes, log_class: str, at_s: float
    ) -> None:
        self._push(at_s, _SUBMIT, (bytes(payload), log_class))

    # -- the loop --------------------------------------------------------------

    def run(self, until_s: float) -> ClientReport:
        """Process events until the deadline or the session drains."""
        while self._events:
            at_s, _, kind, data = heapq.heappop(self._events)
            if at_s > until_s:
                break
            self.now_s = at_s
            self._dispatch(kind, data, at_s)
        # Session end: flush any straggler acks so a shared service
        # starts the next vehicle's session clean.  These acks are not
        # delivered (the session is over) — their envelopes stay pending
        # client-side, preserved in queue or spool, never lost.
        self.service.flush_acks(self.now_s, force=True)
        # Un-acked in-flight envelopes return to the queue: the session
        # deadline interrupted their retry loop, it did not lose them.
        for key in sorted(self._envelopes):
            if key not in self._acked:
                self.client.queue.push_front(self._envelopes[key])
        self._envelopes.clear()
        self._in_flight.clear()
        return self.client.finalize()

    def _dispatch(self, kind: str, data: object, now_s: float) -> None:
        if kind == _SUBMIT:
            payload, log_class = data
            self.client.submit(payload, log_class, now_s)
            self._pump(now_s)
        elif kind == _ATTEMPT:
            envelope, attempt = data
            self._attempt(envelope, attempt, now_s)
        elif kind == _DELIVERY:
            self.service.ingest(data, now_s)
            self._maybe_flush_acks(now_s)
        elif kind == _ACK_FLUSH:
            self._ack_flush_scheduled = False
            self._release_acks(self.service.flush_acks(now_s), now_s)
        elif kind == _ACK:
            self._on_ack(data, now_s)
        elif kind == _TIMEOUT:
            key, attempt = data
            self._on_timeout(key, attempt, now_s)
        elif kind == _PROBE:
            self._on_probe(now_s)
        else:  # pragma: no cover
            raise ValueError(f"unknown event kind {kind!r}")

    # -- client side -----------------------------------------------------------

    def _schedule_probe(self, at_s: float) -> None:
        if not self._probe_scheduled:
            self._probe_scheduled = True
            self._push(at_s, _PROBE)

    def _pump(self, now_s: float) -> None:
        """Start the next send if the modem is idle and the breaker allows."""
        if self._sending is not None or len(self.client.queue) == 0:
            return
        breaker = self.client.breaker
        if not breaker.allow(now_s):
            # OPEN: park the whole queue on the SSD and wait for the
            # cooldown probe instead of hammering a dead link.
            while True:
                envelope = self.client.queue.pop()
                if envelope is None:
                    break
                self.client.spool(envelope)
            self._schedule_probe(breaker.retry_at_s(now_s))
            return
        envelope = self.client.queue.pop()
        if envelope is not None:
            self._push(now_s, _ATTEMPT, (envelope, 1))

    def _attempt(
        self, envelope: UplinkEnvelope, attempt: int, now_s: float
    ) -> None:
        key = envelope.idempotency_key
        if key in self._acked:
            # A late ack landed while this retry waited out its backoff.
            self._in_flight.pop(key, None)
            self._envelopes.pop(key, None)
            if self._sending == key:
                self._sending = None
            self._pump(now_s)
            return
        self._sending = key
        self._in_flight[key] = attempt
        self._envelopes[key] = envelope
        self.client.report.attempts += 1
        result = self.link.transmit(envelope.to_wire(), now_s)
        for delivery in result.deliveries:
            self._push(delivery.arrival_s, _DELIVERY, delivery.payload)
        self._push(
            now_s + self.client.policy.timeout_s, _TIMEOUT, (key, attempt)
        )

    def _on_ack(self, key: str, now_s: float) -> None:
        attempt = self._in_flight.pop(key, None)
        if attempt is None or key in self._acked:
            return  # duplicate ack, or ack for an abandoned/spooled send
        envelope = self._envelopes.pop(key)
        self._acked.add(key)
        self.client.acked(envelope)
        if self._sending == key:
            self._sending = None
        # Recovery: a success while spooled envelopes wait means the
        # link is back — drain the SSD into the queue and keep going.
        if self.client.spooled_envelopes:
            self.client.drain_spool()
        self._pump(now_s)

    def _on_timeout(self, key: str, attempt: int, now_s: float) -> None:
        if self._in_flight.get(key) != attempt or key in self._acked:
            return  # acked or superseded in the meantime
        envelope = self._envelopes[key]
        self.client.report.timeouts += 1
        breaker = self.client.breaker
        breaker.record_failure(now_s)
        if self.client.give_up(envelope, attempt):
            del self._in_flight[key]
            del self._envelopes[key]
            if self._sending == key:
                self._sending = None
            self.client.abandon(envelope)
        elif breaker.state == OPEN:
            del self._in_flight[key]
            del self._envelopes[key]
            if self._sending == key:
                self._sending = None
            self.client.spool(envelope)
            self._schedule_probe(breaker.retry_at_s(now_s))
        else:
            # The modem stays claimed by the retry; _in_flight keeps the
            # old attempt number until _attempt re-arms it, so a late
            # ack in the backoff window still cancels the retry.
            retry_at = now_s + self.client.backoff_s(attempt)
            self._push(retry_at, _ATTEMPT, (envelope, attempt + 1))
            return
        self._pump(now_s)

    def _on_probe(self, now_s: float) -> None:
        """After the breaker cooldown, try one spooled envelope."""
        self._probe_scheduled = False
        if self._sending is not None:
            return  # a live send is already probing the link for us
        breaker = self.client.breaker
        if not breaker.allow(now_s):
            self._schedule_probe(breaker.retry_at_s(now_s))
            return
        envelope = self.client.pop_spooled()
        if envelope is not None:
            self._push(now_s, _ATTEMPT, (envelope, 1))
        else:
            self._pump(now_s)

    # -- service side ----------------------------------------------------------

    def _maybe_flush_acks(self, now_s: float) -> None:
        if self.service.ack_due(now_s):
            self._release_acks(self.service.flush_acks(now_s), now_s)
        elif self.service.pending_ack_count and not self._ack_flush_scheduled:
            # Arm the interval flush for the batch's oldest ack.
            self._ack_flush_scheduled = True
            self._push(now_s + self.service.ack_interval_s, _ACK_FLUSH)

    def _release_acks(self, acks: Sequence[Ack], now_s: float) -> None:
        for ack in acks:
            arrival_s = self.link.transmit_ack(now_s)
            if arrival_s is not None:
                self._push(arrival_s, _ACK, ack.key)


# ---------------------------------------------------------------------------
# Fleet campaign
# ---------------------------------------------------------------------------


#: A campaign's submissions spread over this window (virtual seconds).
SUBMIT_WINDOW_S = 300.0
#: Extra virtual time past the last submission *and* the last fault
#: window, so partitions end and the spool drains before the session
#: deadline.
DRAIN_MARGIN_S = 900.0


@dataclass(frozen=True)
class IngestCampaignConfig:
    """One seeded fleet-delivery campaign under a network fault mix.

    Submissions spread over :data:`SUBMIT_WINDOW_S`, and each session
    runs :data:`DRAIN_MARGIN_S` past its last submission and fault.
    """

    n_vehicles: int = 6
    #: Hourly realtime ops logs per vehicle (the guaranteed class).
    logs_per_vehicle: int = 10
    #: Best-effort metrics snapshots per vehicle.
    metrics_per_vehicle: int = 10
    seed: int = 0
    space: NetworkFaultSpace = field(default_factory=NetworkFaultSpace)

    def __post_init__(self) -> None:
        if self.n_vehicles < 1:
            raise ValueError("campaign needs at least one vehicle")
        if self.logs_per_vehicle < 1:
            raise ValueError("campaign needs at least one log per vehicle")
        if self.metrics_per_vehicle < 0:
            raise ValueError("metrics count cannot be negative")

    def with_intensity(self, intensity: float) -> "IngestCampaignConfig":
        from dataclasses import replace

        return replace(self, space=self.space.with_intensity(intensity))


def vehicle_seed(campaign_seed: int, index: int) -> int:
    """Vehicle *index*'s client/link seed (stable across processes)."""
    return int(
        np.random.SeedSequence(
            (campaign_seed, index, 0x1E1E)
        ).generate_state(1)[0]
    )


def _synthetic_log_payload(rng: np.random.Generator, hour: int) -> bytes:
    """A realistic condensed-log payload (compressed JSON, a few KB)."""
    from ..runtime.telemetry import LatencyStats, OperationsLog
    from .compression import condense_log

    ops = OperationsLog(
        control_ticks=int(rng.integers(30_000, 40_000)),
        reactive_overrides=int(rng.integers(0, 300)),
        distance_m=float(rng.uniform(10_000, 30_000)),
        energy_j=float(rng.uniform(1e6, 4e6)),
    )
    latency = LatencyStats()
    for _ in range(24):
        latency.record(float(rng.uniform(0.12, 0.2)), {"sensing": 0.074})
    return condense_log(ops, latency, hour_index=hour).payload


@dataclass(frozen=True)
class VehicleSessionRecord:
    """One vehicle's session outcome."""

    index: int
    vehicle_id: str
    profile_kinds: Tuple[str, ...]
    client: ClientReport
    link_counters: Dict[str, int]


@dataclass
class IngestCampaignResult:
    """The whole fleet's sessions plus the service-side report."""

    config: IngestCampaignConfig
    report: IngestReport
    vehicles: List[VehicleSessionRecord]
    #: Simulated makespan (the latest session deadline actually reached).
    sim_span_s: float
    #: Every idempotency key the service holds, in storage order.
    stored_keys: Tuple[str, ...] = ()

    def _submitted_realtime_keys(self) -> frozenset:
        return frozenset(
            key
            for r in self.vehicles
            for key in r.client.submitted_realtime_keys
        )

    def _pending_realtime_keys(self) -> frozenset:
        return frozenset(
            key
            for r in self.vehicles
            for key in r.client.pending_realtime_keys
        )

    def _stored_realtime_keys(self) -> frozenset:
        return frozenset(
            key
            for key in self.stored_keys
            if key.split("/")[1] == REALTIME_OPS
        )

    @property
    def realtime_submitted(self) -> int:
        return len(self._submitted_realtime_keys())

    @property
    def realtime_delivered(self) -> int:
        """Unique realtime logs the service stored (post-dedup)."""
        return len(self._stored_realtime_keys())

    @property
    def realtime_preserved(self) -> int:
        """Realtime logs still held client-side (queue/spool) at the end."""
        return len(self._pending_realtime_keys())

    @property
    def realtime_lost(self) -> int:
        """Realtime logs neither delivered nor preserved: must be zero.

        Key-exact: a log whose ack was lost is both stored *and* pending,
        so set subtraction (not arithmetic) keeps the invariant honest.
        """
        return len(
            self._submitted_realtime_keys()
            - self._stored_realtime_keys()
            - self._pending_realtime_keys()
        )

    @property
    def realtime_delivery_rate(self) -> float:
        if self.realtime_submitted == 0:
            return 1.0
        return self.realtime_delivered / self.realtime_submitted

    @property
    def post_dedup_duplicates(self) -> int:
        """Stored keys that appear more than once: dedup must keep this 0."""
        return len(self.stored_keys) - len(set(self.stored_keys))

    @property
    def throughput_logs_per_s(self) -> float:
        """Unique logs landed per second of simulated fleet time."""
        if self.sim_span_s <= 0:
            return 0.0
        return self.report.delivered / self.sim_span_s


def run_ingest_campaign(
    config: Optional[IngestCampaignConfig] = None,
    service: Optional[IngestionService] = None,
) -> IngestCampaignResult:
    """Run every vehicle's session against one shared service."""
    config = config or IngestCampaignConfig()
    service = service or IngestionService()
    vehicles: List[VehicleSessionRecord] = []
    sim_span_s = 0.0
    for index in range(config.n_vehicles):
        seed = vehicle_seed(config.seed, index)
        profile_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, index, 0x4E7F))
        )
        profile = config.space.sample_profile(
            profile_rng, name=f"net-{config.seed}-{index}"
        )
        link = LossyLink(profile, seed=seed)
        client = ResilientUplinkClient(f"vehicle-{index}", seed=seed)
        session = TelemetrySession(client, link, service)
        sched_rng = np.random.default_rng(
            np.random.SeedSequence((config.seed, index, 0x5CED))
        )
        submit_times = np.sort(
            sched_rng.uniform(
                0.0,
                SUBMIT_WINDOW_S,
                config.logs_per_vehicle + config.metrics_per_vehicle,
            )
        )
        for i, at_s in enumerate(submit_times):
            if i < config.logs_per_vehicle:
                payload = _synthetic_log_payload(sched_rng, hour=i)
                session.schedule_submission(payload, REALTIME_OPS, float(at_s))
            else:
                payload = bytes(
                    sched_rng.integers(0, 256, 256, dtype=np.uint8)
                )
                session.schedule_submission(payload, METRICS, float(at_s))
        until_s = (
            max(SUBMIT_WINDOW_S, profile.last_window_end_s)
            + DRAIN_MARGIN_S
        )
        report = session.run(until_s)
        sim_span_s = max(sim_span_s, session.now_s)
        vehicles.append(
            VehicleSessionRecord(
                index=index,
                vehicle_id=client.vehicle_id,
                profile_kinds=tuple(profile.kinds),
                client=report,
                link_counters=dict(link.counters),
            )
        )
    return IngestCampaignResult(
        config=config,
        report=service.report(),
        vehicles=vehicles,
        sim_span_s=sim_span_s,
        stored_keys=service.stored_keys(),
    )


@dataclass(frozen=True)
class IngestSweepPoint:
    """One fault-intensity step of the delivery-curve sweep."""

    intensity: float
    realtime_submitted: int
    realtime_delivered: int
    realtime_preserved: int
    realtime_lost: int
    delivery_rate: float
    duplicates_pre_dedup: int
    post_dedup_duplicates: int
    corrupted_detected: int
    dead_lettered: int
    ingest_p99_s: float


def intensity_sweep(
    intensities: Sequence[float] = (0.5, 1.0, 1.5, 2.0, 3.0),
    config: Optional[IngestCampaignConfig] = None,
) -> List[IngestSweepPoint]:
    """Sweep network fault intensity; the delivery/dup/loss curves.

    Every point re-runs the same seeded fleet with the dial raised:
    duplicates and dead letters climb with intensity while realtime loss
    must stay exactly zero — at-least-once does not erode under pressure,
    it just pays more retries.
    """
    base = config or IngestCampaignConfig()
    points: List[IngestSweepPoint] = []
    for intensity in intensities:
        result = run_ingest_campaign(base.with_intensity(intensity))
        points.append(
            IngestSweepPoint(
                intensity=intensity,
                realtime_submitted=result.realtime_submitted,
                realtime_delivered=result.realtime_delivered,
                realtime_preserved=result.realtime_preserved,
                realtime_lost=result.realtime_lost,
                delivery_rate=result.realtime_delivery_rate,
                duplicates_pre_dedup=result.report.duplicated,
                post_dedup_duplicates=result.post_dedup_duplicates,
                corrupted_detected=result.report.corrupted,
                dead_lettered=result.report.dead_lettered,
                ingest_p99_s=result.report.ingest_p99_s,
            )
        )
    return points
