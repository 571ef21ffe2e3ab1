"""Tuning-run observability: structured tracing + a metrics registry.

See ``DESIGN.md`` §9.  The two surfaces:

* :class:`Tracer` / :class:`Span` — a span tree over one run, with
  simulated-cycle attribution fed by the tuning ledger (attach the tracer
  with :meth:`TuningLedger.attach_tracer`) and wall-clock per span.
  Exported as JSON-lines via ``--trace-out``.
* :class:`MetricsRegistry` — counters, gauges, and fixed-bucket histograms
  absorbing the ledger categories, all three cache layers' traffic, and
  per-method rating window/convergence stats.  Exported as one
  schema-versioned JSON document via ``--metrics-out``.

:class:`Obs` carries both; pass ``obs=None`` anywhere and the shared
:data:`NULL_OBS` makes every instrumentation site a near-free no-op.
"""

from .collect import (
    collect_cache,
    collect_executor,
    collect_ledger,
    collect_run,
    render_report,
)
from .context import NULL_OBS, Obs, obs_or_null
from .metrics import (
    DEFAULT_BUCKETS,
    SCHEMA_METRICS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .schema import (
    validate_metrics_doc,
    validate_metrics_file,
    validate_trace_file,
    validate_trace_record,
)
from .trace import SCHEMA_TRACE, Span, SpanHandle, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBS",
    "Obs",
    "SCHEMA_METRICS",
    "SCHEMA_TRACE",
    "Span",
    "SpanHandle",
    "Tracer",
    "collect_cache",
    "collect_ledger",
    "collect_executor",
    "collect_run",
    "obs_or_null",
    "render_report",
    "validate_metrics_doc",
    "validate_metrics_file",
    "validate_trace_file",
    "validate_trace_record",
]
