"""Vehicle-side resilient uplink client (paper Sec. II-B).

The delivery half of the telemetry pipeline: condensed operational logs
and metrics snapshots leave the vehicle through this client, which must
get every realtime log to the cloud across the lossy cellular channel of
:mod:`repro.cloud.network`.  The design is the standard resilient-client
stack, each piece seeded and deterministic:

* **wire envelopes** — every payload ships framed with a CRC32 and an
  idempotency key (``vehicle/class/sequence``), so the ingestion service
  can reject corruption and dedup retries;
* **a bounded queue with class-aware shedding** — under backpressure the
  oldest *non-realtime* entries are shed first; the realtime ops-log
  class is always admissible and never shed (Sec. II-B: the hourly log
  is the one thing that must ship);
* **timeout + seeded-jitter exponential backoff** — retries decorrelate
  across a fleet because each client jitters its backoff from its own
  seeded stream;
* **a circuit breaker** — consecutive failures trip the client into
  store-and-forward: envelopes spool to the on-vehicle SSD
  (:class:`~repro.cloud.uplink.OnboardStorage`) instead of hammering a
  dead link, and the spool drains when a probe succeeds after cooldown.

The client never loses a realtime envelope: it is either in the queue,
in flight awaiting an ack, or spooled on the SSD.  Non-realtime classes
have bounded retries and may be shed or abandoned — the same
best-effort/guaranteed split the paper applies to raw data vs logs.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from .network import LossyLink, payload_checksum
from .uplink import OnboardStorage

#: Delivery classes, strongest guarantee first.
REALTIME_OPS = "realtime_ops"
METRICS = "metrics"
BULK = "bulk"
LOG_CLASSES = (REALTIME_OPS, METRICS, BULK)

#: Wire framing: 4-byte big-endian CRC32 of everything after it, then a
#: JSON header line, then the raw payload bytes.
_CRC = struct.Struct(">I")


class WireDecodeError(ValueError):
    """The blob failed its checksum or its header did not parse."""


@dataclass(frozen=True)
class UplinkEnvelope:
    """One payload framed for the wire."""

    vehicle_id: str
    sequence: int
    log_class: str
    payload: bytes
    created_s: float

    def __post_init__(self) -> None:
        if self.log_class not in LOG_CLASSES:
            raise ValueError(
                f"unknown log class {self.log_class!r}; known: {LOG_CLASSES}"
            )
        if self.sequence < 0:
            raise ValueError("sequence must be non-negative")

    @property
    def idempotency_key(self) -> str:
        """The dedup identity: stable across retries and duplicates."""
        return f"{self.vehicle_id}/{self.log_class}/{self.sequence}"

    @property
    def realtime(self) -> bool:
        return self.log_class == REALTIME_OPS

    def to_wire(self) -> bytes:
        header = json.dumps(
            {
                "v": self.vehicle_id,
                "seq": self.sequence,
                "cls": self.log_class,
                "t": self.created_s,
            },
            sort_keys=True,
        ).encode("utf-8")
        body = header + b"\n" + self.payload
        return _CRC.pack(payload_checksum(body)) + body

    @staticmethod
    def from_wire(blob: bytes) -> "UplinkEnvelope":
        """Decode a wire blob, raising :class:`WireDecodeError` on any
        checksum mismatch or mangled framing (the dead-letter path)."""
        if len(blob) < _CRC.size + 1:
            raise WireDecodeError("blob too short to carry a checksum")
        (expected,) = _CRC.unpack_from(blob)
        body = blob[_CRC.size:]
        if payload_checksum(body) != expected:
            raise WireDecodeError("checksum mismatch")
        try:
            header_bytes, payload = body.split(b"\n", 1)
            header = json.loads(header_bytes.decode("utf-8"))
            return UplinkEnvelope(
                vehicle_id=header["v"],
                sequence=int(header["seq"]),
                log_class=header["cls"],
                payload=payload,
                created_s=float(header["t"]),
            )
        except WireDecodeError:
            raise
        except Exception as exc:  # mangled header that passed CRC: still junk
            raise WireDecodeError(f"undecodable header: {exc}") from exc


# ---------------------------------------------------------------------------
# Bounded queue with class-aware shedding
# ---------------------------------------------------------------------------


class UplinkQueue:
    """A bounded FIFO that sheds oldest-first, never touching realtime.

    Admission policy under a full queue:

    * a **realtime** envelope sheds the oldest non-realtime entry to make
      room; if every slot holds realtime, the queue grows past its bound
      (realtime is always admissible — the few-KB hourly logs cannot
      meaningfully outgrow the vehicle's memory);
    * a **non-realtime** envelope sheds the oldest non-realtime entry;
      if none exists, the *arriving* envelope is rejected.
    """

    def __init__(self, capacity: int = 64) -> None:
        if capacity <= 0:
            raise ValueError("queue capacity must be positive")
        self.capacity = capacity
        self._entries: List[UplinkEnvelope] = []
        self.shed_by_class: Dict[str, int] = {}
        self.enqueued_by_class: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def total_shed(self) -> int:
        return sum(self.shed_by_class.values())

    def _shed_oldest_non_realtime(self) -> bool:
        for i, entry in enumerate(self._entries):
            if not entry.realtime:
                shed = self._entries.pop(i)
                self.shed_by_class[shed.log_class] = (
                    self.shed_by_class.get(shed.log_class, 0) + 1
                )
                return True
        return False

    def push(self, envelope: UplinkEnvelope) -> bool:
        """Admit *envelope*; returns False when it was rejected."""
        if len(self._entries) >= self.capacity:
            made_room = self._shed_oldest_non_realtime()
            if not made_room and not envelope.realtime:
                self.shed_by_class[envelope.log_class] = (
                    self.shed_by_class.get(envelope.log_class, 0) + 1
                )
                return False
        self._entries.append(envelope)
        self.enqueued_by_class[envelope.log_class] = (
            self.enqueued_by_class.get(envelope.log_class, 0) + 1
        )
        return True

    def pop(self) -> Optional[UplinkEnvelope]:
        if not self._entries:
            return None
        return self._entries.pop(0)

    def push_front(self, envelope: UplinkEnvelope) -> None:
        """Return an envelope to the head (retry keeps its turn)."""
        self._entries.insert(0, envelope)

    def peek_all(self) -> Tuple[UplinkEnvelope, ...]:
        return tuple(self._entries)


# ---------------------------------------------------------------------------
# Retry policy and circuit breaker
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + capped exponential backoff with seeded jitter."""

    timeout_s: float = 4.0
    base_backoff_s: float = 2.0
    backoff_factor: float = 2.0
    max_backoff_s: float = 60.0
    #: Backoff multiplies by a seeded uniform draw from
    #: ``[1 - jitter_frac, 1 + jitter_frac]`` so fleet retries decorrelate.
    jitter_frac: float = 0.25
    #: Attempts before a *non-realtime* envelope is abandoned; realtime
    #: envelopes retry without bound (at-least-once).
    max_attempts_non_realtime: int = 8

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("timeout must be positive")
        if self.base_backoff_s <= 0 or self.max_backoff_s <= 0:
            raise ValueError("backoff bounds must be positive")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff factor must be >= 1")
        if not 0.0 <= self.jitter_frac < 1.0:
            raise ValueError("jitter fraction must be in [0, 1)")
        if self.max_attempts_non_realtime < 1:
            raise ValueError("need at least one attempt")

    def backoff_s(self, attempt: int, rng: np.random.Generator) -> float:
        """Delay before retry *attempt* (1-based), jittered from *rng*."""
        if attempt < 1:
            raise ValueError("attempts are 1-based")
        raw = min(
            self.base_backoff_s * self.backoff_factor ** (attempt - 1),
            self.max_backoff_s,
        )
        if self.jitter_frac == 0.0:
            return raw
        lo, hi = 1.0 - self.jitter_frac, 1.0 + self.jitter_frac
        return raw * float(lo + (hi - lo) * rng.random())


#: Circuit-breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Trips OPEN after consecutive failures; probes after a cooldown.

    OPEN is the store-and-forward signal: the client stops burning
    attempts on a dead link and spools to the SSD instead.  After
    ``cooldown_s`` the breaker admits a single HALF_OPEN probe; success
    closes it (and the client drains its spool), failure re-opens it for
    another cooldown.
    """

    def __init__(
        self, failure_threshold: int = 3, cooldown_s: float = 30.0
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure threshold must be >= 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown must be positive")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at_s: Optional[float] = None
        self.trips = 0

    def allow(self, now_s: float) -> bool:
        """Whether an attempt may go out at *now_s*."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            # Same expression as retry_at_s(): a probe scheduled for the
            # returned instant must be admitted at that exact float.
            if now_s >= self.opened_at_s + self.cooldown_s:
                self.state = HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: the probe is in flight

    def record_success(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at_s = None

    def record_failure(self, now_s: float) -> None:
        self.consecutive_failures += 1
        if self.state == HALF_OPEN or (
            self.state == CLOSED
            and self.consecutive_failures >= self.failure_threshold
        ):
            if self.state != OPEN:
                self.trips += 1
            self.state = OPEN
            self.opened_at_s = now_s

    def retry_at_s(self, now_s: float) -> float:
        """Earliest instant the breaker will admit a probe."""
        if self.state != OPEN:
            return now_s
        return self.opened_at_s + self.cooldown_s


# ---------------------------------------------------------------------------
# The resilient client
# ---------------------------------------------------------------------------


@dataclass
class ClientReport:
    """Delivery accounting for one client session."""

    submitted_by_class: Dict[str, int] = field(default_factory=dict)
    acked_by_class: Dict[str, int] = field(default_factory=dict)
    abandoned_by_class: Dict[str, int] = field(default_factory=dict)
    shed_by_class: Dict[str, int] = field(default_factory=dict)
    attempts: int = 0
    timeouts: int = 0
    breaker_trips: int = 0
    spooled: int = 0
    spool_drained: int = 0
    #: Envelopes still undelivered when the session ended, by class.
    #: Realtime entries here are *preserved* (queue or SSD spool), never
    #: lost — the store-and-forward half of the paper's upload policy.
    pending_by_class: Dict[str, int] = field(default_factory=dict)
    #: Exact idempotency keys, for the campaign's loss accounting: every
    #: submitted realtime key must be stored by the service or appear in
    #: the pending set.
    submitted_realtime_keys: Tuple[str, ...] = ()
    pending_realtime_keys: Tuple[str, ...] = ()

    def as_dict(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "attempts": float(self.attempts),
            "timeouts": float(self.timeouts),
            "breaker_trips": float(self.breaker_trips),
            "spooled": float(self.spooled),
            "spool_drained": float(self.spool_drained),
        }
        for label, tally in (
            ("submitted", self.submitted_by_class),
            ("acked", self.acked_by_class),
            ("abandoned", self.abandoned_by_class),
            ("shed", self.shed_by_class),
            ("pending", self.pending_by_class),
        ):
            for cls in sorted(tally):
                out[f"{label}_{cls}"] = float(tally[cls])
        return out


class ResilientUplinkClient:
    """The vehicle's end of the telemetry pipeline.

    Deterministic per ``(seed, vehicle_id)``: the backoff jitter stream
    is private, so two clients with different seeds decorrelate their
    retry storms while the same seed replays bit-identically.

    The client is driven by the discrete-event session loop in
    :mod:`repro.cloud.ingestion`; its own methods only manage queue,
    spool, breaker, and retry state.
    """

    def __init__(
        self,
        vehicle_id: str,
        seed: int = 0,
        queue_capacity: int = 64,
        policy: Optional[RetryPolicy] = None,
        breaker: Optional[CircuitBreaker] = None,
        storage: Optional[OnboardStorage] = None,
    ) -> None:
        self.vehicle_id = vehicle_id
        self.policy = policy or RetryPolicy()
        self.breaker = breaker or CircuitBreaker()
        self.storage = storage or OnboardStorage()
        self.queue = UplinkQueue(capacity=queue_capacity)
        name_digest = sum(ord(c) * (i + 1) for i, c in enumerate(vehicle_id))
        self._rng = np.random.default_rng([seed, name_digest % (2**31)])
        self._sequence = 0
        self._spool: List[UplinkEnvelope] = []
        self.report = ClientReport()

    # -- submission ------------------------------------------------------------

    def submit(
        self, payload: bytes, log_class: str, now_s: float
    ) -> UplinkEnvelope:
        """Frame *payload* and enqueue it for delivery."""
        envelope = UplinkEnvelope(
            vehicle_id=self.vehicle_id,
            sequence=self._sequence,
            log_class=log_class,
            payload=bytes(payload),
            created_s=now_s,
        )
        self._sequence += 1
        tally = self.report.submitted_by_class
        tally[log_class] = tally.get(log_class, 0) + 1
        if envelope.realtime:
            self.report.submitted_realtime_keys = (
                self.report.submitted_realtime_keys
                + (envelope.idempotency_key,)
            )
        self.queue.push(envelope)
        self.report.shed_by_class = dict(self.queue.shed_by_class)
        return envelope

    # -- retry bookkeeping -----------------------------------------------------

    def backoff_s(self, attempt: int) -> float:
        return self.policy.backoff_s(attempt, self._rng)

    def give_up(self, envelope: UplinkEnvelope, attempt: int) -> bool:
        """Whether this envelope's retries are exhausted (never realtime)."""
        if envelope.realtime:
            return False
        return attempt >= self.policy.max_attempts_non_realtime

    def abandon(self, envelope: UplinkEnvelope) -> None:
        tally = self.report.abandoned_by_class
        tally[envelope.log_class] = tally.get(envelope.log_class, 0) + 1

    def acked(self, envelope: UplinkEnvelope) -> None:
        tally = self.report.acked_by_class
        tally[envelope.log_class] = tally.get(envelope.log_class, 0) + 1
        self.breaker.record_success()

    # -- store-and-forward -----------------------------------------------------

    def spool(self, envelope: UplinkEnvelope) -> None:
        """Park an envelope on the SSD while the breaker is OPEN."""
        self.storage.record(
            len(envelope.to_wire()), realtime=envelope.realtime
        )
        self._spool.append(envelope)
        self.report.spooled += 1

    @property
    def spooled_envelopes(self) -> Tuple[UplinkEnvelope, ...]:
        return tuple(self._spool)

    def pop_spooled(self) -> Optional[UplinkEnvelope]:
        """Take the oldest spooled envelope (the breaker's probe send)."""
        if not self._spool:
            return None
        return self._spool.pop(0)

    def drain_spool(self) -> int:
        """Move every spooled envelope back into the send queue."""
        drained = 0
        while self._spool:
            envelope = self._spool.pop(0)
            self.queue.push(envelope)
            drained += 1
        self.report.spool_drained += drained
        return drained

    # -- session-end accounting ------------------------------------------------

    def finalize(self) -> ClientReport:
        """Close out the report (pending = queue + spool, never lost)."""
        pending: Dict[str, int] = {}
        pending_realtime: List[str] = []
        for envelope in list(self.queue.peek_all()) + self._spool:
            pending[envelope.log_class] = pending.get(envelope.log_class, 0) + 1
            if envelope.realtime:
                pending_realtime.append(envelope.idempotency_key)
        self.report.pending_by_class = pending
        self.report.pending_realtime_keys = tuple(pending_realtime)
        self.report.breaker_trips = self.breaker.trips
        self.report.shed_by_class = dict(self.queue.shed_by_class)
        return self.report
