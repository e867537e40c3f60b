"""The closed-loop Systems-on-a-Vehicle (paper Sec. V).

Integrates everything: the world, perception surrogates, the MPC planner
(proactive path), the reactive path, the CAN bus, the ECU/actuator, the
vehicle dynamics, the battery, and the sampled computing-latency model.
The control loop runs at the paper's 10 Hz; each proactive command reaches
the actuator after ``Tcomp`` (sampled from the calibrated dataflow) +
``Tdata`` (CAN) + ``Tmech`` (actuator), so Eq. 1 plays out mechanically in
closed loop rather than analytically.

The loop is fault-aware (Sec. III-C): a :class:`FaultScenario` injects
sensor dropouts, CAN loss/delay bursts, perception crashes/stalls, and
GPS denial; a heartbeat/watchdog :class:`HealthMonitor` notices dead
modules and models supervised restarts; and a graceful-degradation state
machine (NOMINAL → DEGRADED → REACTIVE_ONLY → SAFE_STOP) shapes or
replaces the planner's commands each tick.  With no scenario attached the
fault machinery consumes no randomness and the loop behaves exactly as
the nominal model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import ClassVar, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import calibration
from ..observability.attribution import (
    AttributionTable,
    DeadlineMissAttributor,
)
from ..observability.metrics import (
    MetricsRegistry,
    registry_from_operations_log,
)
from ..observability.tracing import FrameTrace, Tracer
from ..planning.mpc import MpcPlanner
from ..planning.prediction import TrackedObject
from ..planning.reactive import ReactivePath
from ..robustness.degradation import (
    DegradationMode,
    DegradationStateMachine,
    HealthInputs,
)
from ..robustness.faults import FaultHarness, FaultScenario
from ..robustness.health import HealthMonitor, HealthReport
from ..scene.lanes import LaneMap, straight_corridor
from ..scene.world import Agent, Obstacle, World
from ..vehicle.actuator import Actuator, EngineControlUnit
from ..vehicle.battery import Battery, drained
from ..vehicle.dynamics import BicycleModel, ControlCommand, VehicleState
from .canbus import CanBus
from .dataflow import SovDataflow, paper_dataflow
from .shedding import LoadShedder, TickShed
from .telemetry import LatencyStats, OperationsLog

#: Latency of a degradation-supervisor fallback command: the supervisor
#: runs on the safety island next to the planner output stage, so only
#: a planning-scale delay applies before the frame enters the CAN bus.
_SUPERVISOR_LATENCY_S = 0.005

#: How long one observed CAN transmit error keeps the bus flagged lossy.
_CAN_DEGRADED_HOLD_S = 0.5

#: Reactive-path (radar/sonar) evaluation rate.
REACTIVE_RATE_HZ = 20.0
#: Physics sub-step of the closed loop.
SIM_DT_S = 0.005
#: Perception reads the world within this range.
SENSING_RANGE_M = 40.0
#: Vehicle plus AD power drawn on every sub-step.
DRIVE_POWER_W = calibration.VEHICLE_POWER_W + calibration.AD_POWER_W
#: Heartbeat watchdog timeout for on-vehicle modules.
WATCHDOG_TIMEOUT_S = 0.5

#: What the actuator executes while the ECU holds no command.
_IDLE_COMMAND = ControlCommand()


@dataclass
class SovConfig:
    """What one drive varies: the safety net, perception errors, the
    computing-latency model, the seed and the fault schedule.

    The operating point is fixed, as in the paper: the control loop runs
    at :attr:`control_rate_hz` (10 Hz, Sec. III-A), the reactive path at
    :data:`REACTIVE_RATE_HZ`, physics in :data:`SIM_DT_S` sub-steps,
    perception sees :data:`SENSING_RANGE_M` ahead, the vehicle draws
    :data:`DRIVE_POWER_W`, and the watchdog times modules out after
    :data:`WATCHDOG_TIMEOUT_S` (restarts use the :class:`HealthMonitor`
    default MTTR).  The degradation supervisor and the load shedder run
    their default policies.  Tracing, attribution and metrics are
    switched on per drive with :meth:`SystemsOnAVehicle.attach_tracer`,
    :meth:`~SystemsOnAVehicle.enable_attribution` and
    :meth:`~SystemsOnAVehicle.enable_metrics`.
    """

    #: The paper's 10 Hz control loop; a class constant, not a field.
    control_rate_hz: ClassVar[float] = calibration.THROUGHPUT_REQUIREMENT_HZ

    reactive_enabled: bool = True
    #: Probability that the vision pipeline misses an entity on a given
    #: control tick (Sec. III-C safety scenario 2: "vision algorithms
    #: produce wrong results, e.g., missing an object").  The reactive
    #: path still sees it through radar/sonar.
    vision_miss_prob: float = 0.0
    fixed_computing_latency_s: Optional[float] = None
    seed: int = 0
    #: Declarative fault schedule for this drive (None: inject nothing).
    scenario: Optional[FaultScenario] = None
    #: Whether the degradation supervisor may shape/replace commands and
    #: shed pipeline work.  Disabling it (together with
    #: ``reactive_enabled=False``) yields the unprotected baseline the
    #: fault campaign ablates against.
    degradation_enabled: bool = True


@dataclass
class DriveResult:
    """Outcome of one closed-loop drive."""

    final_state: VehicleState
    ops: OperationsLog
    latency: LatencyStats
    min_obstacle_clearance_m: float
    stopped: bool
    health: Optional[HealthReport] = None
    final_mode: str = DegradationMode.NOMINAL.name
    #: Wall-clock share of the drive spent in each degradation mode
    #: (sums to 1.0; the final open segment is flushed at drive end).
    mode_residency: Dict[str, float] = field(default_factory=dict)
    #: The drive's span tracer (None unless tracing was enabled); export
    #: with ``result.trace.export_json(path)`` and open in Perfetto.
    trace: Optional[Tracer] = None
    #: Deadline-miss attribution table (None unless attribution enabled).
    attribution: Optional[AttributionTable] = None
    #: Flat metrics snapshot (None unless metrics were enabled).
    metrics: Optional[Dict[str, float]] = None

    @property
    def collided(self) -> bool:
        return self.ops.collisions > 0

    @property
    def sheds_by_mode(self) -> Dict[str, int]:
        """Load-shedding counts per degradation mode (telemetry view)."""
        return dict(self.ops.sheds_by_mode)

    @property
    def entered_safe_stop(self) -> bool:
        return self.ops.mode_ticks.get(DegradationMode.SAFE_STOP.name, 0) > 0


@dataclass
class _PendingCommand:
    apply_at_s: float
    command: ControlCommand


@dataclass
class PlanRequest:
    """A proactive tick that reached the planner call.

    ``_proactive_pre`` runs everything *before* ``planner.plan`` (fault
    gating, shedding, perception, prediction) and returns one of these
    when a plan is actually needed; ``_proactive_post`` consumes the
    planner's command and runs everything after.  The scalar loop calls
    plan immediately in between; the batched stepper collects requests
    across N drives and answers them with one vectorized planning round.
    """

    now_s: float
    state: VehicleState
    predictions: List
    obstacles: List[Obstacle]
    shed: TickShed
    tick: int
    frame: Optional[FrameTrace]


class SystemsOnAVehicle:
    """The full on-vehicle system in closed loop."""

    def __init__(
        self,
        world: World,
        lane_map: Optional[LaneMap] = None,
        initial_state: Optional[VehicleState] = None,
        config: Optional[SovConfig] = None,
    ) -> None:
        self.world = world
        self.lane_map = lane_map or straight_corridor(length_m=200.0, n_lanes=1)
        self.config = config or SovConfig()
        self.state = initial_state or VehicleState(
            speed_mps=calibration.TYPICAL_SPEED_MPS
        )
        self.model = BicycleModel()
        self.planner = MpcPlanner(lane_map=self.lane_map, model=self.model)
        self.reactive = ReactivePath()
        self.can_bus = CanBus()
        self.ecu = EngineControlUnit()
        self.actuator = Actuator()
        self.battery = Battery()
        self.dataflow = paper_dataflow()
        self._rng = np.random.default_rng(self.config.seed)
        self.latency = LatencyStats()
        self.ops = OperationsLog()
        #: Commands on their way to the ECU, sorted by ``apply_at_s``.
        self._pending: List[_PendingCommand] = []
        # -- robustness stack -------------------------------------------------
        self.harness = FaultHarness(self.config.scenario, seed=self.config.seed)
        self.health = HealthMonitor(
            default_timeout_s=WATCHDOG_TIMEOUT_S, seed=self.config.seed
        )
        self.health.register("perception")
        self.health.register("planning")
        if self.config.reactive_enabled:
            self.health.register("radar")
        self.degradation = DegradationStateMachine()
        self.shedder = LoadShedder()
        self._cached_perception: Optional[
            Tuple[List[TrackedObject], List[Obstacle]]
        ] = None
        self._can_drops_seen = 0
        self._can_degraded_until_s = -math.inf
        # -- observability (opt-in; never consumes randomness) ----------------
        self.tracer: Optional[Tracer] = None
        self.attributor: Optional[DeadlineMissAttributor] = None
        self.metrics: Optional[MetricsRegistry] = None

    def attach_tracer(self, tracer: Optional[Tracer]) -> None:
        """Attach (or detach) a span tracer after construction.

        Tracing only reads simulated timestamps the loop already computes,
        so attaching a tracer never perturbs a seeded drive — the
        bench-gate CLI relies on this to export a Perfetto trace of the
        exact run it gates.
        """
        self.tracer = tracer
        self.can_bus.tracer = tracer

    def enable_attribution(self, budget_s: Optional[float] = None) -> None:
        """Turn on deadline-miss attribution after construction.

        *budget_s* is the Tcomp budget (None: the Eq. 1 worst-case
        avoidance budget).  Like tracing, attribution is RNG-free and
        cannot perturb the drive.
        """
        self.attributor = DeadlineMissAttributor(budget_s)

    def enable_metrics(self) -> None:
        """Turn on the metrics registry after construction (RNG-free)."""
        self.metrics = MetricsRegistry()

    # -- perception surrogate -------------------------------------------------

    def _perceive(self, now_s: float) -> Tuple[List[TrackedObject], List[Obstacle]]:
        """Perception output: tracked agents and visible static obstacles.

        In the full system this comes from detection + radar tracking; in
        the closed loop we read the world within sensing range (perception
        accuracy is characterized separately in :mod:`repro.perception`).
        A camera dropout fault blinds this path entirely — and silently:
        the perception task keeps heartbeating on empty frames.
        """
        objects: List[TrackedObject] = []
        obstacles: List[Obstacle] = []
        if self.harness.vision_blinded(now_s):
            return objects, obstacles
        for entity in self.world.entities_in_range(
            self.state.x_m, self.state.y_m, SENSING_RANGE_M
        ):
            if (
                self.config.vision_miss_prob > 0.0
                and self._rng.random() < self.config.vision_miss_prob
            ):
                continue  # a missed detection: the planner never sees it
            if isinstance(entity, Agent):
                objects.append(
                    TrackedObject(
                        object_id=entity.agent_id,
                        x_m=entity.x_m,
                        y_m=entity.y_m,
                        vx_mps=entity.vx_mps,
                        vy_mps=entity.vy_mps,
                        radius_m=entity.radius_m,
                        label=entity.kind,
                    )
                )
            else:
                obstacles.append(entity)
        return objects, obstacles

    def _forward_distance_m(self) -> Optional[float]:
        """Radar/sonar forward range for the reactive path."""
        hit = self.world.nearest_obstruction(
            self.state.x_m,
            self.state.y_m,
            self.state.heading_rad,
            fov_rad=math.radians(40.0),
        )
        return None if hit is None else hit[0]

    # -- supervision ------------------------------------------------------------

    def _supervise(self, now_s: float) -> None:
        """Advance the watchdog and the degradation state machine."""
        self.health.check(now_s)
        if self.can_bus.frames_dropped > self._can_drops_seen:
            self._can_drops_seen = self.can_bus.frames_dropped
            self._can_degraded_until_s = now_s + _CAN_DEGRADED_HOLD_S
        if not self.config.degradation_enabled:
            return
        inputs = HealthInputs(
            perception_up=self.health.is_up("perception"),
            planning_up=self.health.is_up("planning"),
            radar_up=(
                self.health.is_up("radar")
                if self.config.reactive_enabled
                else True
            ),
            gps_ok=not self.harness.gps_denied(now_s),
            can_ok=now_s >= self._can_degraded_until_s,
        )
        self.degradation.update(now_s, inputs)

    def _shadow_stalled(self, now_s: float) -> bool:
        """Whether an injected stall would blow the watchdog deadline
        even when the module's output is not driving (shadow execution)."""
        stall = sum(
            f.extra_latency_s
            for f in self.harness.scenario.active("perception_stall", now_s)
        )
        return stall > WATCHDOG_TIMEOUT_S

    # -- control paths ---------------------------------------------------------

    def _send_command(
        self,
        command: ControlCommand,
        leave_at_s: float,
        arbitration_id: Optional[int] = None,
    ) -> None:
        """Ship a command over the (possibly faulty) CAN bus to the ECU."""
        self.can_bus.set_fault(
            self.harness.can_fault(leave_at_s), self.harness.can_rng()
        )
        if (
            arbitration_id is not None
            and arbitration_id < CanBus.PRIORITY_NORMAL
        ):
            self.ops.can_priority_sends += 1
        message = self.can_bus.send(
            command, leave_at_s, arbitration_id=arbitration_id
        )
        if message.dropped:
            self.ops.can_frames_dropped += 1
            if self.tracer is not None:
                self.tracer.instant("can_drop", "canbus", leave_at_s)
            return
        apply_at_s = self.actuator.ready_at(message.deliver_at_s)
        if self.tracer is not None:
            lane = self.tracer.lane(
                "actuation", message.deliver_at_s, apply_at_s
            )
            self.tracer.record(
                "actuate",
                lane,
                message.deliver_at_s,
                apply_at_s,
                steer_rad=command.steer_rad,
                accel_mps2=command.accel_mps2,
            )
        self._queue_command(apply_at_s, command)

    def _queue_command(
        self, apply_at_s: float, command: ControlCommand
    ) -> None:
        """Queue *command* for the ECU, after every queued command due no
        later, so commands due together arrive in the order sent."""
        pending = self._pending
        i = len(pending)
        while i and pending[i - 1].apply_at_s > apply_at_s:
            i -= 1
        pending.insert(i, _PendingCommand(apply_at_s, command))

    def _proactive_pre(self, now_s: float) -> Optional[PlanRequest]:
        """Everything before the planner call; None when no plan is needed
        this tick (the fallback / skip paths complete inline)."""
        from ..planning.prediction import predict_constant_velocity

        cfg = self.config
        tick = self.ops.control_ticks
        self.ops.control_ticks += 1
        tracer = self.tracer
        frame = (
            tracer.begin_frame(tick, now_s) if tracer is not None else None
        )
        perception_runs = self.health.is_up("perception") and not (
            self.harness.perception_crashed(now_s)
        )
        shed = TickShed()
        if cfg.degradation_enabled:
            shed = self.shedder.plan(
                self.degradation.mode, self.ops.control_ticks
            )
        if cfg.degradation_enabled and not self.degradation.proactive_allowed:
            # Supervisor drives.  The pipeline is bypassed outright — its
            # tasks are shed, not executed behind a restart loop — but
            # healthy modules keep heartbeating so recovery detection
            # still works.
            self.ops.record_sheds(
                self.degradation.mode.name, sorted(shed.skip_tasks)
            )
            self.shedder.account(self.degradation.mode, shed)
            if perception_runs and not self._shadow_stalled(now_s):
                self.health.beat("perception", now_s)
                self.health.beat("planning", now_s)
            command = self.degradation.fallback_command(
                now_s, self.state.speed_mps
            )
            # Safety-critical frame: wins CAN arbitration over any queued
            # backlog of stale proactive traffic.
            if tracer is not None:
                tracer.record(
                    "supervisor_fallback",
                    "supervisor",
                    now_s,
                    now_s + _SUPERVISOR_LATENCY_S,
                    mode=self.degradation.mode.name,
                )
            self._send_command(
                command,
                now_s + _SUPERVISOR_LATENCY_S,
                arbitration_id=shed.can_arbitration_id,
            )
            self.ops.fallback_commands += 1
            return None
        if not perception_runs:
            # Crashed or awaiting restart: no plan leaves the platform and
            # no heartbeat reaches the watchdog this tick.
            self.ops.proactive_skips += 1
            if tracer is not None:
                tracer.instant(
                    "proactive_skip",
                    "supervisor",
                    now_s,
                    reason="perception_down",
                )
            return None
        if shed.reuse_cached_perception and self._cached_perception is not None:
            # Detection cadence dropped this tick: the planner consumes
            # the previous tick's perception output.
            objects, obstacles = self._cached_perception
        else:
            objects, obstacles = self._perceive(now_s)
            self._cached_perception = (objects, obstacles)
        predictions = predict_constant_velocity(
            objects, horizon_s=self.planner.horizon_s, dt_s=self.planner.dt_s
        ) if objects else []
        return PlanRequest(
            now_s=now_s,
            state=self.state,
            predictions=predictions,
            obstacles=obstacles,
            shed=shed,
            tick=tick,
            frame=frame,
        )

    def _proactive_post(
        self, request: PlanRequest, command: ControlCommand
    ) -> None:
        """Everything after the planner call: shedding bookkeeping, latency
        sampling, observability, heartbeats, command shaping and send."""
        cfg = self.config
        now_s = request.now_s
        shed = request.shed
        if shed.skip_tasks:
            self.ops.record_sheds(
                self.degradation.mode.name, sorted(shed.skip_tasks)
            )
            self.shedder.account(self.degradation.mode, shed)
        overhead_s = self.harness.perception_overhead_s(now_s)
        latencies: Optional[Dict[str, float]] = None
        if cfg.fixed_computing_latency_s is not None:
            tcomp = cfg.fixed_computing_latency_s + overhead_s
            self.latency.record(tcomp)
        else:
            latencies, tcomp = self.dataflow.sample_iteration(
                self._rng, skip=shed.skip_tasks or None
            )
            tcomp += overhead_s
            self.latency.record(
                tcomp,
                {
                    stage: self.dataflow.stage_latency(stage, latencies)
                    for stage in SovDataflow.STAGES
                },
            )
        self._observe_iteration(
            request.tick, now_s, tcomp, overhead_s, latencies, shed,
            request.frame,
        )
        # A heartbeat marks a completed-in-time iteration; an injected
        # stall beyond the watchdog deadline loses it (the stall *is* the
        # missed deadline).  The calibrated latency tail is within spec.
        if overhead_s <= WATCHDOG_TIMEOUT_S:
            self.health.beat("perception", now_s)
            self.health.beat("planning", now_s)
        if cfg.degradation_enabled:
            command = self.degradation.shape_command(
                command, self.state.speed_mps
            )
        # The command leaves the computing platform Tcomp after sensing.
        self._send_command(command, now_s + tcomp)

    def _observe_iteration(
        self,
        tick: int,
        now_s: float,
        tcomp: float,
        overhead_s: float,
        latencies: Optional[Dict[str, float]],
        shed: TickShed,
        frame: Optional[FrameTrace],
    ) -> None:
        """Publish one pipeline iteration to the attached observability.

        Pure bookkeeping over values the tick already computed: no RNG
        draws, and with everything disabled the call is two ``None``
        checks — measured <5 % overhead by the tracing benchmark.
        """
        tracer = self.tracer
        missed = None
        if self.attributor is not None:
            critical = (
                self.dataflow.critical_path(latencies)[0]
                if latencies is not None
                else []
            )
            missed = self.attributor.observe(
                tick=tick,
                now_s=now_s,
                total_s=tcomp,
                critical_path=critical,
                task_latencies=latencies,
                fault_overhead_s=overhead_s,
                fault_kinds=self.harness.active_kinds(now_s),
                mode=self.degradation.mode.name,
                shed_tasks=sorted(shed.skip_tasks),
            )
        if self.metrics is not None:
            self.metrics.histogram(
                "tcomp_s", help="end-to-end computing latency per tick"
            ).observe(tcomp)
            if overhead_s > 0.0:
                self.metrics.histogram(
                    "fault_overhead_s", help="injected latency per tick"
                ).observe(overhead_s)
        if tracer is None:
            return
        # Pipelined ticks overlap in time (164 ms mean vs the 100 ms
        # period); the lane allocator spreads them over pipeline.N tracks
        # so each track stays strictly sequential in the exported trace.
        lane = tracer.lane("pipeline", now_s, now_s + tcomp)
        with tracer.span(
            "control_tick",
            lane,
            now_s,
            tick=tick,
            mode=self.degradation.mode.name,
        ) as tick_span:
            if latencies is not None:
                schedule = self.dataflow.iteration_schedule(latencies)
                for name in sorted(schedule, key=lambda n: schedule[n][0]):
                    if name in shed.skip_tasks:
                        continue  # shed: the task never ran this tick
                    start, end = schedule[name]
                    task_lane = tracer.lane(
                        f"{lane}:tasks", now_s + start, now_s + end
                    )
                    tracer.record(
                        name,
                        task_lane,
                        now_s + start,
                        now_s + end,
                        stage=self.dataflow.task(name).stage,
                    )
            if overhead_s > 0.0:
                tracer.record(
                    "fault_overhead",
                    lane,
                    now_s + tcomp - overhead_s,
                    now_s + tcomp,
                )
            tick_span.annotate(tcomp_s=tcomp)
            tick_span.finish(now_s + tcomp)
        if frame is not None:
            frame.total_latency_s = tcomp
            if self.attributor is not None:
                frame.budget_s = self.attributor.budget_s
                if missed is not None:
                    frame.deadline_missed = True
                    tracer.instant(
                        "deadline_miss",
                        "supervisor",
                        now_s,
                        tick=tick,
                        overrun_s=missed.overrun_s,
                        dominant_stage=missed.dominant_stage,
                    )

    def _reactive_tick(self, now_s: float) -> None:
        reading = self.harness.radar_reading(self._forward_distance_m(), now_s)
        if reading is not None:
            # What the reactive path actually saw (post-fault): the
            # engagement invariant compares this against the threshold.
            self.ops.min_forward_range_m = min(
                self.ops.min_forward_range_m, reading
            )
        if not self.harness.sensor_faulted("radar", now_s):
            self.health.beat("radar", now_s)
        decision = self.reactive.evaluate(
            reading, now_s, speed_mps=self.state.speed_mps
        )
        if decision.command is not None:
            # Reactive signals enter the ECU directly; the 30 ms reactive
            # latency already covers sensing + transport (Sec. IV).
            apply_at_s = self.actuator.ready_at(decision.command.timestamp_s)
            if self.tracer is not None:
                lane = self.tracer.lane("reactive", now_s, apply_at_s)
                self.tracer.record(
                    "reactive_brake" if decision.triggered else "reactive_hold",
                    lane,
                    now_s,
                    apply_at_s,
                    triggered=decision.triggered,
                )
            self._queue_command(apply_at_s, decision.command)
            if decision.triggered:
                self.ops.reactive_overrides += 1
            elif decision.held:
                self.ops.reactive_holds += 1

    # -- the loop ---------------------------------------------------------------

    def drive(self, duration_s: float) -> DriveResult:
        """Run the closed loop for *duration_s* of simulated time."""
        loop = DriveLoop(self, duration_s)
        while not loop.done:
            request = loop.begin_step()
            if request is not None:
                plan = self.planner.plan(
                    request.state,
                    predictions=request.predictions,
                    static_obstacles=request.obstacles,
                    now_s=request.now_s,
                )
                self._proactive_post(request, plan.command)
            loop.finish_step()
            loop.finish_period()
        return loop.finalize()


class DriveLoop:
    """One drive's simulation loop, steppable from the outside.

    ``drive()`` runs it to completion inline; the batched stepper
    (:mod:`repro.runtime.batched`) holds one ``DriveLoop`` per concurrent
    drive and advances them in lockstep, answering each step's
    :class:`PlanRequest` (if any) from a vectorized planning round.  The
    step decomposition is exactly the body of the original monolithic
    loop, so interleaving *between* drives cannot change any single
    drive's arithmetic.  Both callers make one round per control
    period: ``begin_step``, the plan, ``finish_step``, then
    ``finish_period`` for the period's remaining physics sub-steps.
    """

    def __init__(self, sov: SystemsOnAVehicle, duration_s: float) -> None:
        if duration_s <= 0:
            raise ValueError("duration must be positive")
        self.sov = sov
        self._dt = SIM_DT_S
        self._control_period = 1.0 / SovConfig.control_rate_hz
        self._reactive_period = 1.0 / REACTIVE_RATE_HZ
        self._next_control = 0.0
        self._next_reactive = 0.0
        self.now = 0.0
        self._min_clearance = float("inf")
        self._steps_left = int(round(duration_s / self._dt))
        # Fixed for the whole drive: nothing moves an obstacle, the power
        # draw is constant, and the fault schedule is set.
        self._obstacles = [
            (o.x_m, o.y_m, o.radius_m) for o in sov.world.obstacles
        ]
        self._step_energy_j = DRIVE_POWER_W * self._dt
        self._steering_bias = bool(
            sov.harness.scenario.of_kind("steering_bias")
        )

    @property
    def done(self) -> bool:
        return self._steps_left <= 0

    def begin_step(self) -> Optional[PlanRequest]:
        """Supervision + the pre-planner half of a due proactive tick."""
        request: Optional[PlanRequest] = None
        if self.now >= self._next_control:
            self.sov._supervise(self.now)
            request = self.sov._proactive_pre(self.now)
            self._next_control += self._control_period
        return request

    def finish_step(self) -> None:
        """One physics sub-step: reactive path, command delivery, physics
        and bookkeeping."""
        self._reactive_due()
        self._sub_steps(single=True)

    def finish_period(self) -> None:
        """The physics sub-steps up to the next control tick or the end
        of the drive: the sub-steps on which :meth:`begin_step` has
        nothing to do."""
        while self._steps_left > 0 and self.now < self._next_control:
            self._reactive_due()
            self._sub_steps(single=False)

    def _reactive_due(self) -> None:
        """The reactive path's tick, when one is due at ``now``."""
        if self.sov.config.reactive_enabled and self.now >= self._next_reactive:
            self.sov._reactive_tick(self.now)
            self._next_reactive += self._reactive_period

    def _sub_steps(self, single: bool) -> None:
        """Physics sub-steps from ``now``: one if *single*, else until a
        reactive tick or the next control tick is due or the drive ends.

        The vehicle's pose, speed and time, the distance, energy and
        charge, the clearance and the collision count stay in locals;
        ``sov.state``, ``sov.ops``, the battery and the world (agents
        catch up in one :meth:`~repro.scene.world.World.advance`) are
        written back on the way out, also when an error propagates, so
        they read as after the same sub-steps taken one call each.
        """
        sov = self.sov
        ops = sov.ops
        ecu = sov.ecu
        pending = sov._pending
        update = sov.model.update
        harness = sov.harness if self._steering_bias else None
        obstacles = self._obstacles
        step_energy = self._step_energy_j
        dt = self._dt
        next_control = self._next_control
        next_reactive = (
            self._next_reactive if sov.config.reactive_enabled else math.inf
        )
        state = sov.state
        x, y = state.x_m, state.y_m
        heading, speed, time_s = state.heading_rad, state.speed_mps, state.time_s
        distance, energy = ops.distance_m, ops.energy_j
        collisions = ops.collisions
        charge = sov.battery.charge_j
        min_clearance = self._min_clearance
        now = self.now
        steps_left = self._steps_left
        moved = 0
        try:
            while True:
                # Deliver commands whose actuation time has come: the
                # queue is sorted, so they are its head, in order.
                while pending and pending[0].apply_at_s <= now:
                    ecu.receive(pending.pop(0).command)
                command = ecu.active_command(now) or _IDLE_COMMAND
                steer = command.steer_rad
                if harness is not None:
                    # An actuator-level steering bias (Sec. III-C lateral
                    # fault) corrupts the command *after* the ECU: neither
                    # the planner nor the reactive path sees it coming.
                    bias = harness.steering_bias_rad(now)
                    if bias != 0.0:
                        steer = steer + bias
                x0, y0 = x, y
                x, y, heading, speed = update(
                    x, y, heading, speed, steer, command.accel_mps2, dt
                )
                time_s += dt
                moved += 1
                distance += math.hypot(x - x0, y - y0)
                energy += step_energy
                charge = drained(charge, step_energy)
                for obstacle_x, obstacle_y, radius in obstacles:
                    clearance = (
                        math.hypot(obstacle_x - x, obstacle_y - y) - radius
                    )
                    if clearance < min_clearance:
                        min_clearance = clearance
                    if clearance <= 0.0:
                        collisions += 1
                now += dt
                steps_left -= 1
                if (
                    single
                    or steps_left <= 0
                    or now >= next_control
                    or now >= next_reactive
                ):
                    break
        finally:
            sov.state = VehicleState(x, y, heading, speed, time_s)
            if moved:
                sov.world.advance(dt, steps=moved)
            ops.distance_m = distance
            ops.energy_j = energy
            ops.collisions = collisions
            sov.battery.charge_j = charge
            self._min_clearance = min_clearance
            self.now = now
            self._steps_left = steps_left

    def finalize(self) -> DriveResult:
        """Flush end-of-drive state and assemble the :class:`DriveResult`."""
        sov = self.sov
        now = self.now
        sov.ops.faults_injected = dict(sov.harness.injections)
        sov.ops.mode_ticks = dict(sov.degradation.mode_ticks)
        # Flush the open residency segment (a drive ending mid-transition
        # would otherwise lose it and the fractions would not sum to 1).
        sov.degradation.finalize(now)
        attribution: Optional[AttributionTable] = None
        if sov.attributor is not None:
            attribution = sov.attributor.table
            attribution.check_consistency()
        metrics_snapshot: Optional[Dict[str, float]] = None
        if sov.metrics is not None:
            # One flat view: the ops-log mirror plus the streaming
            # histograms the loop populated tick by tick.
            metrics_snapshot = registry_from_operations_log(
                sov.ops
            ).snapshot()
            metrics_snapshot.update(sov.metrics.snapshot())
        return DriveResult(
            final_state=sov.state,
            ops=sov.ops,
            latency=sov.latency,
            min_obstacle_clearance_m=self._min_clearance,
            stopped=sov.state.speed_mps < 0.05,
            health=sov.health.report(elapsed_s=now),
            final_mode=sov.degradation.mode.name,
            mode_residency=sov.degradation.residency_fractions(),
            trace=sov.tracer,
            attribution=attribution,
            metrics=metrics_snapshot,
        )


def obstacle_ahead_scenario(
    object_distance_m: float,
    computing_latency_s: Optional[float] = None,
    reactive_enabled: bool = True,
    initial_speed_mps: float = calibration.TYPICAL_SPEED_MPS,
    seed: int = 0,
    fault_scenario: Optional[FaultScenario] = None,
    degradation_enabled: bool = True,
) -> SystemsOnAVehicle:
    """The Eq. 1 validation scenario: a single-lane corridor with an
    obstacle that is *object_distance_m* ahead when the drive starts.

    With a single lane the planner cannot swerve; the run measures whether
    the vehicle stops in time — the closed-loop counterpart of Fig. 3a.
    An optional *fault_scenario* turns the same corridor into a safety
    drill (the fault-campaign study builds on this).
    """
    if object_distance_m <= 0:
        raise ValueError("object distance must be positive")
    world = World(
        obstacles=[Obstacle(object_distance_m, 0.0, radius_m=0.4)]
    )
    config = SovConfig(
        fixed_computing_latency_s=computing_latency_s,
        reactive_enabled=reactive_enabled,
        seed=seed,
        scenario=fault_scenario,
        degradation_enabled=degradation_enabled,
    )
    return SystemsOnAVehicle(
        world=world,
        lane_map=straight_corridor(length_m=300.0, n_lanes=1),
        initial_state=VehicleState(speed_mps=initial_speed_mps),
        config=config,
    )
