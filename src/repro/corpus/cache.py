"""Result cache for corpus analysis.

Detection is pure: the report is a function of (trace, detector config).
The cache keys on exactly that pair —
``(trace_digest, detector_config_digest)`` — so re-analyzing an
unchanged corpus is a near-no-op, while flipping any happens-before rule
switch, the coalescing toggle, or the cancelled-task set invalidates
every cached report (the config digest changes).

Cached reports live as JSON under
``<root>/results/<trace_digest>/<config_digest>.json``; hit/miss
counters are kept per cache instance and surfaced in corpus reports.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Optional, Union

from repro.core.race_detector import RaceReport

from .store import CorpusError, _atomic_write_text

RESULTS_DIR = "results"

#: Cache keys are SHA-256 hex digests (possibly truncated, never shorter
#: than 8 chars).  Anything else — ``..``, separators, URL-decoded
#: traversal — must never reach a filesystem join: ``get`` unlinks what
#: it cannot parse, so a traversing key could read *or delete* files
#: outside the cache root.
_DIGEST_RE = re.compile(r"[0-9a-f]{8,64}")


def valid_digest(value: str) -> bool:
    """True when ``value`` is a plausible (lowercase-hex) content digest."""
    return isinstance(value, str) and _DIGEST_RE.fullmatch(value) is not None


class ResultCache:
    """On-disk cache of :class:`RaceReport` keyed by content digests."""

    def __init__(self, root: Union[str, "os.PathLike[str]"]):
        self.root = Path(root) / RESULTS_DIR
        self.hits = 0
        self.misses = 0

    def path_for(self, trace_digest: str, config_digest: str) -> Path:
        if not valid_digest(trace_digest) or not valid_digest(config_digest):
            raise CorpusError(
                "invalid cache key (%r, %r): digests must be lowercase hex"
                % (trace_digest, config_digest)
            )
        return self.root / trace_digest / ("%s.json" % config_digest)

    def get(self, trace_digest: str, config_digest: str) -> Optional[RaceReport]:
        path = self.path_for(trace_digest, config_digest)
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
            report = RaceReport.from_dict(data)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError, KeyError, TypeError):
            # A corrupt entry is a miss; drop it so it gets rewritten.
            self.misses += 1
            try:
                path.unlink()
            except OSError:
                pass
            return None
        self.hits += 1
        return report

    def put(self, trace_digest: str, config_digest: str, report: RaceReport) -> None:
        self.put_dict(trace_digest, config_digest, report.to_dict())

    def put_dict(self, trace_digest: str, config_digest: str, report_dict: dict) -> None:
        """Store a report given in its :meth:`RaceReport.to_dict` form —
        what analysis workers return — without rebuilding the report
        first; the file holds the same bytes :meth:`put` writes."""
        path = self.path_for(trace_digest, config_digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        # Unique temp name + os.replace: concurrent writers of the same
        # key (service scheduler + a batch run) each land a complete file.
        _atomic_write_text(path, json.dumps(report_dict, sort_keys=True))

    def clear(self) -> int:
        """Delete every cached report; returns the number removed."""
        removed = 0
        if self.root.exists():
            for path in self.root.rglob("*.json"):
                path.unlink()
                removed += 1
        return removed

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        return self.hits / self.requests if self.requests else 0.0

    def reset_counters(self) -> None:
        self.hits = 0
        self.misses = 0
