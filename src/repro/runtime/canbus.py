"""Controller Area Network (CAN) bus model (paper Fig. 2, Fig. 7).

Control commands travel from the computing platform to the ECU over the
CAN bus with ~1 ms latency (``Tdata``).  The model is a delay queue with a
frame-size-based serialization time on a classic 500 kbit/s bus, so
``Tdata`` emerges from bus physics rather than being a bare constant —
and contention from chatty senders is observable.

Fault injection (:class:`repro.robustness.faults.CanBusFault`) layers
frame loss and delay bursts on top: a lost frame still occupies the wire
(it is corrupted and dropped after serialization), so loss under
contention delays the survivors too.

Arbitration-aware priority (fault-aware scheduling): CAN arbitration is
id-ordered — the lowest arbitration id on the wire wins the bus.  A frame
sent with an id below :data:`CanBus.PRIORITY_NORMAL` (e.g. a reactive or
degradation-supervisor brake command) waits only for the frame currently
being transmitted, not for the whole queued backlog; the preempted backlog
pays the displaced wire time instead.  Commitments already made are never
rewritten — preemption only changes where *new* frames slot in — which
keeps the model causal at the cost of a one-frame overlap approximation.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, List, Optional, Tuple

import numpy as np

from ..core import calibration

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from ..robustness.faults import CanBusFault


@dataclass(frozen=True)
class CanMessage:
    """One CAN frame."""

    payload: Any
    sent_at_s: float
    deliver_at_s: float
    arbitration_id: int = 0
    #: True when fault injection corrupted the frame: it occupied the bus
    #: but never reaches the receiver.
    dropped: bool = False

    @property
    def latency_s(self) -> float:
        return self.deliver_at_s - self.sent_at_s


class CanBus:
    """A serialized delay queue at CAN bit rates.

    A classic CAN 2.0 frame with an 8-byte payload is ~111 bits of wire
    time plus stuffing; at 500 kbit/s that is ~0.25 ms.  The remaining
    fixed latency models controller queuing/driver overheads, bringing
    the nominal total to the paper's ~1 ms.
    """

    FRAME_BITS = 111
    BIT_RATE_BPS = 500_000.0
    #: Wire time of one frame.
    frame_time_s = FRAME_BITS / BIT_RATE_BPS
    #: Controller queuing/driver overhead on top of the wire time.
    fixed_overhead_s = calibration.CAN_BUS_LATENCY_S - frame_time_s
    #: Arbitration id of safety-critical traffic (reactive / supervisor
    #: brake commands): wins arbitration against everything below it.
    PRIORITY_CRITICAL = 0x010
    #: Arbitration id of ordinary proactive-pipeline traffic.  Ids >= this
    #: queue behind the full backlog; ids < this preempt the backlog.
    PRIORITY_NORMAL = 0x100

    def __init__(self) -> None:
        self._queue: List[Tuple[float, int, CanMessage]] = []
        self._bus_free_at_s = 0.0
        self._sequence = 0
        self._fault: Optional["CanBusFault"] = None
        self._fault_rng: Optional[np.random.Generator] = None
        self.frames_sent = 0
        self.frames_dropped = 0
        #: Recent wire commitments (start_s, end_s), trimmed as they age
        #: out; used to find the frame occupying the wire at an instant.
        self._wire_slots: List[Tuple[float, float]] = []
        #: Critical frames that jumped a non-empty backlog.
        self.priority_preemptions = 0
        #: Optional span tracer (duck-typed; set by the SoV).  Each frame
        #: records its wire slot, which is serialized by construction —
        #: the only repeat is the preemption one-frame overlap, rendered
        #: as two identical intervals.
        self.tracer = None

    def nominal_latency_s(self) -> float:
        return self.frame_time_s + self.fixed_overhead_s

    # -- fault injection -------------------------------------------------------

    def set_fault(
        self,
        fault: Optional["CanBusFault"],
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Install (or clear) the active fault model for subsequent sends."""
        if fault is not None and rng is None and self._fault_rng is None:
            raise ValueError("a CAN fault needs an RNG for loss decisions")
        self._fault = fault
        if rng is not None:
            self._fault_rng = rng

    # -- the wire --------------------------------------------------------------

    def _wire_busy_until(self, now_s: float) -> float:
        """When the frame physically on the wire at *now_s* finishes
        (``now_s`` itself when the wire is idle)."""
        for start, end in reversed(self._wire_slots):
            if start <= now_s < end:
                return end
        return now_s

    def send(
        self,
        payload: Any,
        now_s: float,
        arbitration_id: Optional[int] = None,
    ) -> CanMessage:
        """Queue a frame; delivery accounts for bus serialization.

        Frames with an arbitration id below :data:`PRIORITY_NORMAL` win
        arbitration against the queued backlog: they wait only for the
        frame currently on the wire, and the backlog absorbs the displaced
        frame time.  Under an active fault the frame may be corrupted
        (``dropped=True``, never delivered) or delayed; either way it
        occupies the wire.
        """
        if arbitration_id is None:
            arbitration_id = self.PRIORITY_NORMAL
        backlogged = self._bus_free_at_s > now_s + self.frame_time_s
        if arbitration_id < self.PRIORITY_NORMAL and backlogged:
            # Critical frame: next arbitration round after the current
            # transmission, ahead of every queued normal frame.  Future
            # normal traffic pays the displaced wire time.
            start = max(now_s, self._wire_busy_until(now_s))
            self._bus_free_at_s += self.frame_time_s
            self.priority_preemptions += 1
        else:
            start = max(now_s, self._bus_free_at_s)
            self._bus_free_at_s = start + self.frame_time_s
        finish = start + self.frame_time_s
        self._wire_slots.append((start, finish))
        if len(self._wire_slots) > 64:
            del self._wire_slots[:32]
        self.frames_sent += 1
        extra_delay = 0.0
        dropped = False
        if self._fault is not None:
            if (
                self._fault.loss_prob > 0.0
                and self._fault_rng.random() < self._fault.loss_prob
            ):
                dropped = True
            extra_delay = self._fault.extra_delay_s
        message = CanMessage(
            payload=payload,
            sent_at_s=now_s,
            deliver_at_s=finish + self.fixed_overhead_s + extra_delay,
            arbitration_id=arbitration_id,
            dropped=dropped,
        )
        if self.tracer is not None:
            self.tracer.record(
                "can_frame",
                "canbus",
                start,
                finish,
                arbitration_id=arbitration_id,
                dropped=dropped,
                latency_s=message.latency_s,
            )
        if dropped:
            self.frames_dropped += 1
        else:
            heapq.heappush(
                self._queue, (message.deliver_at_s, self._sequence, message)
            )
            self._sequence += 1
        return message

    def deliver_due(self, now_s: float) -> List[CanMessage]:
        """Pop every message whose delivery time has arrived."""
        delivered = []
        while self._queue and self._queue[0][0] <= now_s:
            delivered.append(heapq.heappop(self._queue)[2])
        return delivered

    @property
    def pending(self) -> int:
        return len(self._queue)

    @property
    def loss_rate(self) -> float:
        """Observed frame-loss fraction over the bus's lifetime."""
        if self.frames_sent == 0:
            return 0.0
        return self.frames_dropped / self.frames_sent
