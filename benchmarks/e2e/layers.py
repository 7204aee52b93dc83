"""Per-layer accounting for ``--trace 1`` runs.

A traced run re-executes a workload's analysis in-process under a
:class:`repro.obs.Tracer`.  The program's own spans (``trace.load``,
``detect``, ``closure.*``, ``detect.enumerate``, ``triage.pass``,
``corpus.*``) are kept; :func:`instrumented` adds benchmark-side spans
around the public calls that have none -- ``classify_race`` (as the
detector calls it) and ``ResultCache.get``/``put`` -- and the workload
code spans its own calls into trace generation, ``TraceStore.ingest``,
JSONL parsing, and report serialization.  Nothing is added inside
``src/``.

Self time is a span's wall time minus that of its children *in the same
process*: pool workers' spans are merged under ``corpus.analyze`` but
run in parallel with it, so they are layer time of their own, not a
deduction from the dispatcher's wait.  Every traced pass runs under one
``e2e.pass`` root; the root's self time is the time no layer covers
(``unattributed_s``).
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, List

import repro.core.race_detector as race_detector
from repro.corpus.cache import ResultCache
from repro.obs import current_tracer

ROOT_SPAN = "e2e.pass"


def _spanned(name: str, fn):
    def wrapper(*args, **kwargs):
        with current_tracer().span(name):
            return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrumented():
    """Wrap the uninstrumented public calls in spans for the block.

    Pool workers forked inside the block inherit the wrappers; their
    spans reach the parent through the pipeline's own snapshot merge.
    """
    patches = [
        (race_detector, "classify_race", "classify"),
        (ResultCache, "get", "cache.get"),
        (ResultCache, "put", "cache.put"),
    ]
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
    for (owner, attr, name), (_, _, fn) in zip(patches, saved):
        setattr(owner, attr, _spanned(name, fn))
    try:
        yield
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)


def span_rows(records: Iterable) -> Dict[str, dict]:
    """Per span name: ``count``, total ``wall_s``, same-process ``self_s``,
    and the summed numeric attributes ``nodes`` and ``bytes``."""
    records = list(records)
    child_wall: Dict[int, float] = {}
    pid_of = {record.span_id: record.pid for record in records}
    for record in records:
        parent = record.parent_id
        if parent is not None and pid_of.get(parent) == record.pid:
            child_wall[parent] = child_wall.get(parent, 0.0) + record.wall_seconds
    rows: Dict[str, dict] = {}
    for record in records:
        row = rows.setdefault(
            record.name,
            {"count": 0, "wall_s": 0.0, "self_s": 0.0, "nodes": 0, "bytes": 0},
        )
        row["count"] += 1
        row["wall_s"] += record.wall_seconds
        row["self_s"] += max(
            0.0, record.wall_seconds - child_wall.get(record.span_id, 0.0)
        )
        for key in ("nodes", "bytes"):
            value = record.attrs.get(key)
            if isinstance(value, (int, float)):
                row[key] += value
    return rows


#: Span names whose self time makes up each universal per-layer metric.
LAYER_SPANS = {
    "trace.load_s": ("trace.load", "trace.parse"),
    "graph.build_s": ("closure.graph",),
    "closure.premises_s": ("closure.premises",),
    "closure.static_edges_s": ("closure.static_edges", "closure.merge_chains"),
    "closure.saturate_s": ("closure.saturate",),
    "closure.pred_index_s": ("closure.pred_index",),
    "closure.rules_s": ("closure.round",),
    "closure.resaturate_s": ("closure.resaturate",),
    "detect.enumerate_s": ("detect.enumerate",),
    "detect.assemble_s": ("detect", "detect.closure"),
    "classify_s": ("classify",),
    "report.serialize_s": ("report.serialize",),
    "triage.pass_s": ("triage.pass",),
    "unattributed_s": (ROOT_SPAN,),
}

#: The same for the layers only some workloads reach (``layers.json``).
WORKLOAD_LAYER_SPANS = {
    "store.ingest_s": ("store.ingest",),
    "cache.get_s": ("cache.get",),
    "cache.put_s": ("cache.put",),
    "corpus.aggregate_s": ("corpus.aggregate",),
    "pipeline.dispatch_s": ("corpus.analyze", "corpus.cache_lookup"),
    "pipeline.worker_s": ("corpus.trace",),
}


def self_time(rows: Dict[str, dict], names: Iterable[str]) -> float:
    return sum(rows[name]["self_s"] for name in names if name in rows)


def pass_metrics(tracer, passes: int, jobs: int) -> Dict[str, float]:
    """Per-pass averages of every universal layer, and of each
    workload-specific layer whose spans occurred (``jobs``: the pool
    size behind ``corpus.analyze``)."""
    rows = span_rows(tracer.spans)
    counters, gauges = tracer.counters, tracer.gauges
    out = {
        metric: self_time(rows, names) / passes
        for metric, names in LAYER_SPANS.items()
    }
    out.update(
        (metric, self_time(rows, names) / passes)
        for metric, names in WORKLOAD_LAYER_SPANS.items()
        if any(name in rows for name in names)
    )
    root_wall = rows[ROOT_SPAN]["wall_s"] if ROOT_SPAN in rows else 0.0
    out["pass_wall_s"] = root_wall / passes
    out["unattributed_frac"] = (
        rows[ROOT_SPAN]["self_s"] / root_wall if root_wall else 0.0
    )
    out["graph.nodes"] = rows.get("closure.graph", {}).get("nodes", 0) / passes
    out["classify.calls"] = rows.get("classify", {}).get("count", 0) / passes
    out["report.bytes"] = rows.get("report.serialize", {}).get("bytes", 0) / passes
    out["closure.rounds"] = counters.get("closure.rounds", 0) / passes
    out["closure.rule_edges"] = (
        counters.get("closure.fifo_edges", 0) + counters.get("closure.nopre_edges", 0)
    ) / passes
    out["closure.memory_bytes"] = float(gauges.get("closure.memory_bytes", 0))
    out["detect.races"] = counters.get("detect.races", 0) / passes
    out["detect.racy_pairs"] = counters.get("detect.racy_pairs", 0) / passes
    if "corpus.analyze" in rows:
        busy = rows.get("corpus.trace", {}).get("wall_s", 0.0)
        out["pipeline.worker_busy_s"] = busy / passes
        out["pipeline.pool_efficiency"] = busy / (jobs * rows["corpus.analyze"]["wall_s"])
        out["pipeline.errors"] = counters.get("corpus.errors", 0) / passes
    return out


def table(rows: Dict[str, dict]) -> List[dict]:
    """Span rows as a list, largest self time first (for ``layers.json``)."""
    return [
        {"name": name, **row}
        for name, row in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])
    ]
