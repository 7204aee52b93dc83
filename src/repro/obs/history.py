"""Persistent run history: every pipeline invocation as a ``RunRecord``.

The paper's contribution is an *evaluation* — Tables 2–3 of trace
lengths, coalescing ratios, closure cost, and classified race counts —
and a reproduction needs the same longitudinal discipline: every
``droidracer`` run and every benchmark leaves a structured record that
later runs can be compared and gated against (:mod:`repro.obs.regression`)
or charted (:mod:`repro.obs.dashboard`).

The store is deliberately primitive:

* ``runs.jsonl`` — append-only, one :class:`RunRecord` per line;
* ``index.json`` — a derived index keyed by
  ``"<trace_digest>:<config_digest>"`` mapping each key to its run ids
  in append order (rebuilt on every append; ``runs.jsonl`` is the
  source of truth and the index is disposable).

Two digests identify what a run *did*:

* ``trace_digest`` / ``config_digest`` — the same content addresses the
  corpus subsystem keys its result cache on: together they name the
  input.  Multi-trace commands (``explore``, ``corpus analyze``,
  benchmark sweeps) combine their per-trace digests with
  :func:`combine_digests`.
* ``report_digest`` (:func:`report_digest`) — the *correctness* half of
  a race report: every field except wall-clock timing
  (``analysis_seconds``) and measured memory (``closure.memory_bytes``),
  which vary across machines and Python builds while the detected races
  must not.  Two runs on the same ``(trace, config)`` key with different
  report digests are a correctness regression, full stop — that is the
  invariant ``droidracer obs gate`` enforces.

Inertness contract: constructing a :class:`HistoryStore` touches
nothing on disk — only :meth:`HistoryStore.append` creates the
directory and files.  With no history dir configured
(no ``--history``, no ``$DROIDRACER_HISTORY``) the CLI never
instantiates a store and reports stay byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

from . import HISTORY_ENV, resolve_history_dir  # noqa: F401  (re-exported)

__all__ = [
    "HISTORY_ENV",
    "HistoryStore",
    "RunRecord",
    "combine_digests",
    "environment_fingerprint",
    "export_bench",
    "export_suspicion",
    "report_digest",
    "resolve_history_dir",
    "subtree_spans",
]

#: Store file names (under the history directory).
RUNS_FILE = "runs.jsonl"
INDEX_FILE = "index.json"

#: ``report_digest`` ignores these: wall time and measured memory vary
#: run-to-run and machine-to-machine while the report's *races* must
#: not; ``trace_name`` is presentation (the same trace content analyzed
#: from two paths carries two names but one answer).
_VOLATILE_REPORT_FIELDS = ("analysis_seconds", "trace_name")
_VOLATILE_CLOSURE_FIELDS = ("memory_bytes", "peak_rss_bytes")


def report_digest(report_dict: dict) -> str:
    """Digest of a race report's correctness-bearing fields.

    Stable across machines, Python versions, and repeat runs: volatile
    measurements (``analysis_seconds``, ``closure.memory_bytes``) are
    dropped before hashing, everything else — the races themselves,
    pair counts, node/trace statistics, closure rule-edge counts — is
    canonically serialized.  A changed digest for an already-seen
    ``(trace_digest, config_digest)`` key means the detector's *answer*
    changed.
    """
    payload = {
        k: v for k, v in report_dict.items() if k not in _VOLATILE_REPORT_FIELDS
    }
    closure = payload.get("closure")
    if isinstance(closure, dict):
        payload["closure"] = {
            k: v for k, v in closure.items() if k not in _VOLATILE_CLOSURE_FIELDS
        }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def combine_digests(digests: Iterable[str]) -> str:
    """One digest for a multi-trace run (explore, corpus batch, bench
    sweep): order-independent, so re-analyzing the same set under the
    same config lands on the same history key."""
    blob = "\n".join(sorted(digests))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def environment_fingerprint() -> dict:
    """Where a record was produced: enough to explain cross-machine
    performance deltas, never part of any digest."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
        "git_rev": _git_rev(),
    }


def _git_rev() -> Optional[str]:
    """Best-effort current commit hash (``None`` outside a checkout)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    rev = proc.stdout.strip()
    return rev or None


def subtree_spans(records: Iterable, root_id: int) -> List:
    """The span records forming ``root_id``'s subtree (root included) —
    used to attribute one ``bench.app`` span's aggregates to one app's
    record when a table command runs many apps under a single tracer."""
    records = list(records)
    children: Dict[Optional[int], List] = {}
    for record in records:
        children.setdefault(record.parent_id, []).append(record)
    out: List = []
    stack = [r for r in records if r.span_id == root_id]
    while stack:
        record = stack.pop()
        out.append(record)
        stack.extend(children.get(record.span_id, ()))
    return out


@dataclass
class RunRecord:
    """One recorded pipeline run (or benchmark configuration sweep).

    ``run_id`` is assigned by :meth:`HistoryStore.append`; everything
    else is supplied by the producing command.  ``spans`` holds the
    per-name aggregate rows of :func:`repro.obs.sinks.aggregate_spans`
    (``name``/``count``/``wall_seconds``/``cpu_seconds``/
    ``self_seconds``/``errors``) — the regression gate compares runs
    span-row by span-row.
    """

    command: str
    trace_digest: str
    config_digest: str
    run_id: str = ""
    timestamp: float = 0.0
    app: Optional[str] = None
    trace_name: Optional[str] = None
    trace_count: int = 1
    trace_length: int = 0
    backend: Optional[str] = None
    saturation: Optional[str] = None
    enumeration: Optional[str] = None
    coalesce: Optional[bool] = None
    closure: Optional[dict] = None
    report_digest: Optional[str] = None
    race_count: int = 0
    racy_pairs: int = 0
    per_category: Dict[str, int] = field(default_factory=dict)
    spans: List[dict] = field(default_factory=list)
    counters: Dict[str, float] = field(default_factory=dict)
    gauges: Dict[str, Any] = field(default_factory=dict)
    environment: Dict[str, Any] = field(default_factory=dict)
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def key(self) -> str:
        """The index key: what was analyzed under which configuration."""
        return "%s:%s" % (self.trace_digest, self.config_digest)

    def span_row(self, name: str) -> Optional[dict]:
        for row in self.spans:
            if row.get("name") == name:
                return row
        return None

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "command": self.command,
            "app": self.app,
            "trace_name": self.trace_name,
            "trace_digest": self.trace_digest,
            "config_digest": self.config_digest,
            "trace_count": self.trace_count,
            "trace_length": self.trace_length,
            "backend": self.backend,
            "saturation": self.saturation,
            "enumeration": self.enumeration,
            "coalesce": self.coalesce,
            "closure": self.closure,
            "report_digest": self.report_digest,
            "race_count": self.race_count,
            "racy_pairs": self.racy_pairs,
            "per_category": dict(self.per_category),
            "spans": [dict(row) for row in self.spans],
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "environment": dict(self.environment),
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        return cls(
            command=data["command"],
            trace_digest=data["trace_digest"],
            config_digest=data["config_digest"],
            run_id=data.get("run_id", ""),
            timestamp=data.get("timestamp", 0.0),
            app=data.get("app"),
            trace_name=data.get("trace_name"),
            trace_count=data.get("trace_count", 1),
            trace_length=data.get("trace_length", 0),
            backend=data.get("backend"),
            saturation=data.get("saturation"),
            enumeration=data.get("enumeration"),
            coalesce=data.get("coalesce"),
            closure=data.get("closure"),
            report_digest=data.get("report_digest"),
            race_count=data.get("race_count", 0),
            racy_pairs=data.get("racy_pairs", 0),
            per_category=dict(data.get("per_category", {})),
            spans=[dict(row) for row in data.get("spans", ())],
            counters=dict(data.get("counters", {})),
            gauges=dict(data.get("gauges", {})),
            environment=dict(data.get("environment", {})),
            extra=dict(data.get("extra", {})),
        )

    def describe(self) -> str:
        subject = self.app or self.trace_name or self.trace_digest[:12]
        return "%-12s  %-16s %-24s %-8s %d" % (
            self.run_id[:12],
            self.command,
            subject[:24],
            self.backend or "-",
            self.race_count,
        )


class RunRecordError(ValueError):
    """A history lookup failed (unknown id, ambiguous prefix, ...)."""


class HistoryStore:
    """Append-only run-history store under one directory.

    Construction is free of side effects — the directory and files are
    only created by :meth:`append` (the inertness contract: configuring
    a history dir must not write anything until there is a record to
    write).
    """

    def __init__(self, root: str):
        self.root = str(root)

    # -- paths ---------------------------------------------------------------

    @property
    def runs_path(self) -> str:
        return os.path.join(self.root, RUNS_FILE)

    @property
    def index_path(self) -> str:
        return os.path.join(self.root, INDEX_FILE)

    def exists(self) -> bool:
        return os.path.exists(self.runs_path)

    def __len__(self) -> int:
        return len(self.records())

    # -- write ---------------------------------------------------------------

    def append(self, record: RunRecord) -> RunRecord:
        """Assign a ``run_id`` and timestamp, append to ``runs.jsonl``,
        rebuild ``index.json``.  Returns the (mutated) record."""
        if not record.timestamp:
            record.timestamp = time.time()
        if not record.environment:
            record.environment = environment_fingerprint()
        seq = self._count_lines()
        seed = json.dumps(
            [seq, record.timestamp, record.command, record.key], sort_keys=True
        )
        record.run_id = hashlib.sha256(seed.encode("utf-8")).hexdigest()[:16]
        os.makedirs(self.root, exist_ok=True)
        with open(self.runs_path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        self._write_index()
        return record

    def _count_lines(self) -> int:
        if not os.path.exists(self.runs_path):
            return 0
        with open(self.runs_path, "r", encoding="utf-8") as handle:
            return sum(1 for line in handle if line.strip())

    def _write_index(self) -> None:
        index: Dict[str, List[str]] = {}
        for record in self.records():
            index.setdefault(record.key, []).append(record.run_id)
        payload = {"keys": index, "runs": sum(len(v) for v in index.values())}
        with open(self.index_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
            handle.write("\n")

    # -- read ----------------------------------------------------------------

    def records(
        self,
        command: Optional[str] = None,
        app: Optional[str] = None,
        key: Optional[str] = None,
    ) -> List[RunRecord]:
        """All records in append order, optionally filtered."""
        out: List[RunRecord] = []
        if not os.path.exists(self.runs_path):
            return out
        with open(self.runs_path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = RunRecord.from_dict(json.loads(line))
                if command is not None and record.command != command:
                    continue
                if app is not None and record.app != app:
                    continue
                if key is not None and record.key != key:
                    continue
                out.append(record)
        return out

    def resolve(self, token: str) -> RunRecord:
        """A record by 1-based position (``"1"``, ``"-1"`` for latest)
        or by ``run_id`` prefix."""
        records = self.records()
        if not records:
            raise RunRecordError("history %s is empty" % self.root)
        try:
            pos = int(token)
        except ValueError:
            matches = [r for r in records if r.run_id.startswith(token)]
            if not matches:
                raise RunRecordError("no run with id prefix %r" % token)
            if len(matches) > 1:
                raise RunRecordError(
                    "run id prefix %r is ambiguous (%d matches)"
                    % (token, len(matches))
                )
            return matches[0]
        if pos == 0:
            raise RunRecordError("run positions are 1-based")
        index = pos - 1 if pos > 0 else pos
        try:
            return records[index]
        except IndexError:
            raise RunRecordError(
                "run position %d out of range (history holds %d)"
                % (pos, len(records))
            )

    def latest_by_key(
        self, records: Optional[List[RunRecord]] = None
    ) -> Dict[str, RunRecord]:
        """The newest record per ``(trace, config)`` key."""
        out: Dict[str, RunRecord] = {}
        for record in records if records is not None else self.records():
            out[record.key] = record
        return out


# -- derived benchmark views ----------------------------------------------------

#: ``command`` values benchmark scripts record under, and the derived
#: JSON file each one projects to (``obs history --export-bench``).
BENCH_VIEWS = {
    "bench.closure": "BENCH_closure.json",
    "bench.exploration": "BENCH_exploration.json",
    "bench.reachability": "BENCH_reachability.json",
    "bench.service": "BENCH_service.json",
    "bench.triage": "BENCH_triage.json",
}

#: File name of the :func:`export_suspicion` derived view.
SUSPICION_FILE = "suspicion_index.json"


def export_bench(store: HistoryStore, out_dir: str) -> List[str]:
    """Write the committed ``BENCH_*.json`` files as derived views of
    the history store: for each benchmark command, the latest record's
    ``extra["payload"]`` (the exact result document the benchmark
    produced) is written to its view file.  Returns the paths written.
    """
    written: List[str] = []
    records = store.records()
    for command, filename in BENCH_VIEWS.items():
        latest = None
        for record in records:
            if record.command == command and "payload" in record.extra:
                latest = record
        if latest is None:
            continue
        os.makedirs(out_dir, exist_ok=True)
        path = os.path.join(out_dir, filename)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(latest.extra["payload"], handle, indent=2)
            handle.write("\n")
        written.append(path)
    return written


def export_suspicion(
    store: HistoryStore, out_dir: str, app: Optional[str] = None
) -> Optional[str]:
    """Write the mined suspicion index as a derived view, keyed like
    :func:`export_bench`: every record carrying ``extra["suspicion"]``
    signal documents contributes, and the result
    (``suspicion_index.json``) is exactly what
    ``GuidedExplorer`` would mine from this store.  Returns the path
    written, or ``None`` when no record carries signals."""
    from repro.explorer.suspicion import SuspicionIndex

    index = SuspicionIndex.mine(store.records(), app=app)
    if index.is_empty():
        return None
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, SUSPICION_FILE)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(index.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path
