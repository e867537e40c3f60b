"""Observability for the SoV loop: tracing, metrics, attribution, gating.

The paper is fundamentally a latency-characterization study — Fig. 10's
per-stage breakdowns and Eq. 1's reaction budget are its spine — and this
package is the instrumentation that makes those numbers inspectable *per
frame* instead of only in aggregate:

* :mod:`repro.observability.tracing` — a zero-dependency span tracer.
  Spans live in simulated time, nest via context managers, group into
  per-control-tick :class:`~repro.observability.tracing.FrameTrace`
  records, and export as Chrome ``trace_event`` JSON so a drive opens
  directly in Perfetto / ``chrome://tracing``.
* :mod:`repro.observability.metrics` — a metrics registry (counters,
  gauges, streaming P² percentile histograms) that gives the ad-hoc
  counters scattered across :class:`~repro.runtime.telemetry.OperationsLog`
  one uniform, exportable view.
* :mod:`repro.observability.attribution` — deadline-miss attribution:
  every control tick whose computing latency blows the Eq. 1 budget is
  charged to the dominant pipeline task (sensing/VIO/depth/detection/
  planning), to any active fault, and to the degradation mode + shed
  decision in force, so chaos campaigns report *causes*, not just rates.
* :mod:`repro.observability.regression` — seeded benchmark snapshots
  (``BENCH_<name>.json``) and a perf-regression gate over the eight
  seeded workloads of its ``WORKLOADS`` table: the closed loop, the
  chaos, fleet, procgen, and triage campaigns, the pipelined scheduler,
  telemetry ingest, and the batched stepper; the ``bench-gate`` CLI
  (:mod:`repro.observability.bench_gate`) wraps it for CI.

Everything is opt-in: with no tracer/attributor attached the SoV loop
allocates nothing on the hot path, consumes no extra randomness, and is
bit-identical to the uninstrumented loop (asserted by test).
"""

from .._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "attribution": (
        "AttributionTable", "DeadlineMissAttributor", "MissRecord",
        "default_deadline_budget_s", "merge_attribution_tables",
    ),
    "metrics": ("Counter", "Gauge", "MetricsRegistry", "StreamingHistogram"),
    "regression": (
        "WORKLOADS", "BenchmarkSnapshot", "GateReport",
        "gate_against_baseline", "load_snapshot", "snapshot", "write_snapshot",
    ),
    "tracing": ("FrameTrace", "Span", "Tracer", "validate_chrome_trace"),
})
