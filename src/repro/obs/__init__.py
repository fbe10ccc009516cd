"""Cross-layer observability: metrics, sim-time tracing, timeseries.

``repro.obs`` is the one place every layer of the stack — flash/FTL/GC,
Salamander shrink/regen, the diFS recovery path, and the fleet/event
simulators — reports what it is doing, so a single run can be watched
(and regressed against) end to end. See docs/OBSERVABILITY.md for the
full metric catalog and usage examples.

The active registry, tracer and sampler are fields of the run context
(:mod:`repro.context`); each is ``None`` unless bound. Instrumented
code binds at *construction*: the factories in
:mod:`repro.obs.instruments` hand out real metric children when a
registry is bound and no-op children otherwise, and the tracer and
sampler are kept as ``None`` checks. Bind before building the objects
you want measured::

    from repro import context, obs

    with context.bound(metrics=obs.MetricsRegistry(),
                       tracer=obs.SimTimeTracer()) as ctx:
        ...  # build devices / clusters / fleets, run the experiment
    ctx.metrics.write_json("metrics.json")
    ctx.tracer.export_jsonl("trace.jsonl")

The CLI flags (``repro fleet --metrics-out ... --trace-out ...``) and
the benchmark harness do this for you.
"""

from __future__ import annotations

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    METRICS_SCHEMA,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    load_metrics,
    quantile_from_cumulative,
    quantile_from_sample,
    validate_metrics_document,
)
from repro.obs.promtext import parse_prometheus_text, render_prometheus
from repro.obs.smart import SMART_FIELDS, SmartField, smart_field
from repro.obs.timeseries import (
    TIMESERIES_SCHEMA,
    SeriesBuffer,
    TimeseriesSampler,
    document_series_names,
    load_timeseries,
    series_from_document,
    validate_timeseries_document,
)
from repro.obs.trace import EventRecord, SimTimeTracer, SpanRecord

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "EventRecord",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA",
    "MetricFamily",
    "MetricsRegistry",
    "SMART_FIELDS",
    "SeriesBuffer",
    "SimTimeTracer",
    "SmartField",
    "SpanRecord",
    "TIMESERIES_SCHEMA",
    "TimeseriesSampler",
    "document_series_names",
    "load_metrics",
    "load_timeseries",
    "parse_prometheus_text",
    "quantile_from_cumulative",
    "quantile_from_sample",
    "render_prometheus",
    "series_from_document",
    "smart_field",
    "validate_metrics_document",
    "validate_timeseries_document",
]
