"""Pipeline observability: hierarchical spans, counters, pluggable sinks.

The paper's evaluation (§6–7) is about *measured* pipeline behaviour —
trace lengths, coalescing ratios, closure cost per round, races per
phase — and every performance PR needs a before/after story.  This
package is the single instrumentation surface the whole pipeline shares:

* :class:`Tracer` / :func:`current_tracer` — span context managers with
  wall+CPU time, nesting, and exception capture; named counters/gauges;
* :mod:`repro.obs.sinks` — in-memory (default), JSONL event log, stderr
  summary table, and Chrome ``trace_event`` export
  (``chrome://tracing`` / Perfetto);
* cross-process merge — workers snapshot their tracer into a picklable
  dict, parents :meth:`Tracer.merge` it (the corpus batch pipeline does
  this through its existing result tuples).

Instrumentation is always compiled in and never changes results: the
default :data:`NULL_TRACER` records nothing (spans still measure wall
time so fields like ``analysis_seconds`` keep one source of truth), and
the differential tests in ``tests/test_obs.py`` pin that race reports
are identical with tracing on and off.

On top of the tracer sits the **run history** layer:

* :mod:`repro.obs.history` — append-only :class:`RunRecord` store
  (``runs.jsonl`` + index keyed by ``(trace_digest, config_digest)``),
  written by every CLI invocation and benchmark when a history dir is
  configured (``--history`` / ``$DROIDRACER_HISTORY``), inert otherwise;
* :mod:`repro.obs.regression` — span-by-span run comparison and the
  correctness/performance regression gate CI runs;
* :mod:`repro.obs.dashboard` — self-contained static HTML time series
  over the store.

Alongside the post-hoc layers sits the **live telemetry** layer:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of labeled
  counters, gauges, and base-2 exponential :class:`Histogram`\\ s with
  interpolated quantiles, picklable order-independent snapshots, a
  Prometheus text renderer (:func:`render_prometheus`), and the
  :class:`SpanHistogramSink` tracer bridge (every finished span's wall
  time becomes histogram data, zero call-site changes);
* :mod:`repro.obs.logging` — :class:`JsonLogger`, JSON-lines events
  with correlation ids and the active span name
  (``serve --log-json``);
* :mod:`repro.obs.top` — ``droidracer obs top``, a live terminal view
  over ``/v1/metrics.json`` or a snapshot file.

CLI surface: ``--metrics`` (summary table on stderr), ``--trace-out
FILE`` (Chrome trace JSON), and ``--history DIR`` on ``run``, ``demo``,
``explore``, ``analyze``, ``corpus analyze``, and the table commands; a
``metrics`` block in ``--json`` reports; the ``droidracer obs
history|compare|gate|dashboard|top`` subcommand family.
Schema, naming conventions, and a Perfetto walkthrough:
``docs/observability.md``.
"""

import os
from importlib import import_module
from typing import Optional

from .tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanRecord,
    Tracer,
    current_tracer,
    set_tracer,
    use_tracer,
)

#: Environment variable supplying the default ``--history`` directory.
HISTORY_ENV = "DROIDRACER_HISTORY"


def resolve_history_dir(explicit: Optional[str] = None) -> Optional[str]:
    """The history directory for this invocation: an explicit
    ``--history`` value wins, then ``$DROIDRACER_HISTORY``, then none
    (history disabled — the inert default)."""
    if explicit:
        return explicit
    env = os.environ.get(HISTORY_ENV)
    return env if env else None


#: Where each lazily exported name lives.  The tracer is all the analysis
#: path needs, so ``droidracer analyze`` never imports the history,
#: dashboard, metrics, or regression modules; they load on first use.
_LAZY = {
    "render_dashboard": "dashboard",
    "write_dashboard": "dashboard",
    "HistoryStore": "history",
    "RunRecord": "history",
    "combine_digests": "history",
    "environment_fingerprint": "history",
    "export_bench": "history",
    "export_suspicion": "history",
    "report_digest": "history",
    "subtree_spans": "history",
    "JsonLogger": "logging",
    "NULL_LOGGER": "logging",
    "NullLogger": "logging",
    "Counter": "metrics",
    "Gauge": "metrics",
    "Histogram": "metrics",
    "MetricFamily": "metrics",
    "MetricsRegistry": "metrics",
    "NULL_REGISTRY": "metrics",
    "NullRegistry": "metrics",
    "SpanHistogramSink": "metrics",
    "current_registry": "metrics",
    "render_prometheus": "metrics",
    "rss_bytes": "metrics",
    "set_registry": "metrics",
    "use_registry": "metrics",
    "GateResult": "regression",
    "GateViolation": "regression",
    "RunComparison": "regression",
    "SpanDelta": "regression",
    "compare": "regression",
    "gate": "regression",
    "ChromeTraceSink": "sinks",
    "JsonlSink": "sinks",
    "MemorySink": "sinks",
    "Sink": "sinks",
    "SummarySink": "sinks",
    "aggregate_spans": "sinks",
    "chrome_trace_dict": "sinks",
    "read_jsonl": "sinks",
    "render_summary": "sinks",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "ChromeTraceSink",
    "Counter",
    "Gauge",
    "GateResult",
    "GateViolation",
    "HISTORY_ENV",
    "Histogram",
    "HistoryStore",
    "JsonLogger",
    "JsonlSink",
    "MemorySink",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_LOGGER",
    "NULL_REGISTRY",
    "NULL_TRACER",
    "NullLogger",
    "NullRegistry",
    "NullTracer",
    "RunComparison",
    "RunRecord",
    "Sink",
    "Span",
    "SpanDelta",
    "SpanHistogramSink",
    "SpanRecord",
    "SummarySink",
    "Tracer",
    "aggregate_spans",
    "chrome_trace_dict",
    "combine_digests",
    "compare",
    "current_registry",
    "current_tracer",
    "environment_fingerprint",
    "export_bench",
    "export_suspicion",
    "gate",
    "read_jsonl",
    "render_dashboard",
    "render_prometheus",
    "render_summary",
    "report_digest",
    "resolve_history_dir",
    "rss_bytes",
    "set_registry",
    "set_tracer",
    "subtree_spans",
    "use_registry",
    "use_tracer",
    "write_dashboard",
]
