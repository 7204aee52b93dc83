"""Trace corpus subsystem: persistent store, parallel batch analysis,
and cached race reports.

The paper's workflow (§5) is corpus-shaped — the UI Explorer generates
many bounded event sequences, persists them, and the Race Detector
analyzes every resulting trace offline.  This package is that offline
half at scale:

* :mod:`repro.corpus.store` — content-addressed on-disk trace store;
* :mod:`repro.corpus.cache` — result cache keyed by
  ``(trace_digest, detector_config_digest)``;
* :mod:`repro.corpus.pipeline` — ``multiprocessing`` batch analyzer
  with per-trace error isolation;
* :mod:`repro.corpus.report` — corpus-level deduplicated aggregation
  (Table 3 style) with human-readable and JSON rendering.
"""

from importlib import import_module

#: Where each exported name lives.  Submodules load on first use, so
#: ``droidracer analyze`` (which only needs :func:`report_to_json`) never
#: imports the store, the cache, or the multiprocessing pipeline.
_LAZY = {
    "ResultCache": "cache",
    "valid_digest": "cache",
    "AnalysisTimeout": "pipeline",
    "BatchAnalyzer": "pipeline",
    "BatchResult": "pipeline",
    "TraceResult": "pipeline",
    "CATEGORY_ORDER": "report",
    "CorpusRace": "report",
    "CorpusReport": "report",
    "aggregate": "report",
    "corpus_report_to_json": "report",
    "report_to_json": "report",
    "CorpusError": "store",
    "TraceEntry": "store",
    "TraceStore": "store",
    "app_of_trace_name": "store",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


__all__ = [
    "AnalysisTimeout",
    "BatchAnalyzer",
    "BatchResult",
    "CATEGORY_ORDER",
    "CorpusError",
    "CorpusRace",
    "CorpusReport",
    "ResultCache",
    "TraceEntry",
    "TraceResult",
    "TraceStore",
    "aggregate",
    "app_of_trace_name",
    "corpus_report_to_json",
    "report_to_json",
    "valid_digest",
]
