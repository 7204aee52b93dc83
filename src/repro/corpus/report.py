"""Corpus-level race reporting.

Aggregates a :class:`~repro.corpus.pipeline.BatchResult` across traces:
races are deduplicated by ``(location, classification)`` — the same
racy field/location pair reported from twenty generated executions of
the same app is one finding — then tallied per app and per category in
the layout of the paper's Table 3.  Renders both a human-readable table
and machine-readable JSON; the single-trace serializer here is also what
``droidracer analyze --json`` and ``run --json`` emit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.classification import RaceCategory
from repro.core.race_detector import RaceReport

if TYPE_CHECKING:
    from .pipeline import BatchResult

#: Table 3 column order (multithreaded first, then single-threaded).
CATEGORY_ORDER = (
    RaceCategory.MULTITHREADED,
    RaceCategory.CROSS_POSTED,
    RaceCategory.CO_ENABLED,
    RaceCategory.DELAYED,
    RaceCategory.UNKNOWN,
)


@dataclass(frozen=True)
class CorpusRace:
    """One deduplicated corpus-level finding."""

    location: str
    field_name: str
    category: RaceCategory
    apps: Tuple[str, ...]  # sorted apps the race was seen in
    trace_count: int  # traces it appeared in
    example: str  # one representative description

    def describe(self) -> str:
        return "%s race on %s (%d traces: %s)" % (
            self.category,
            self.location,
            self.trace_count,
            ", ".join(self.apps),
        )

    def to_dict(self) -> dict:
        return {
            "location": self.location,
            "field": self.field_name,
            "category": self.category.value,
            "apps": list(self.apps),
            "trace_count": self.trace_count,
            "example": self.example,
        }


@dataclass
class CorpusReport:
    """Aggregated findings over one batch run."""

    traces_total: int = 0
    traces_analyzed: int = 0
    traces_failed: int = 0
    races: List[CorpusRace] = field(default_factory=list)
    per_app: Dict[str, Dict[RaceCategory, int]] = field(default_factory=dict)
    errors: List[Tuple[str, str]] = field(default_factory=list)  # (name, error)
    cache_hits: int = 0
    cache_misses: int = 0
    wall_seconds: float = 0.0
    jobs: int = 1
    parallel: bool = False
    #: Triage tier accounting (``--triage vc``): mode that ran, traces the
    #: vc pass proved race-free (closure skipped) and traces escalated to
    #: the full closure.  ``triage_mode == "off"`` means the tier was
    #: disabled and the counts stay zero.
    triage_mode: str = "off"
    triage_filtered: int = 0
    triage_escalated: int = 0

    def per_category(self) -> Dict[RaceCategory, int]:
        out = {category: 0 for category in CATEGORY_ORDER}
        for race in self.races:
            out[race.category] += 1
        return out

    def hit_rate(self) -> float:
        requests = self.cache_hits + self.cache_misses
        return self.cache_hits / requests if requests else 0.0

    def location_aggregates(self) -> Dict[str, dict]:
        """Per-location mining view of the corpus findings.

        Groups the deduplicated races by memory location: which apps hit
        it, which categories it was classified under, and how many traces
        manifested it.  This is the corpus-side input to suspiciousness
        mining (``repro.explorer.suspicion``) — a location racing in many
        traces under several categories is a prime perturbation target.

        Deliberately *not* part of :meth:`to_dict`: the report JSON seen
        by ``corpus analyze --json`` consumers stays byte-stable.
        """
        out: Dict[str, dict] = {}
        for race in self.races:
            slot = out.setdefault(
                race.location,
                {
                    "field": race.field_name,
                    "apps": set(),
                    "categories": set(),
                    "trace_count": 0,
                },
            )
            slot["apps"].update(race.apps)
            slot["categories"].add(race.category.value)
            slot["trace_count"] = max(slot["trace_count"], race.trace_count)
        return {
            location: {
                "field": slot["field"],
                "apps": sorted(slot["apps"]),
                "categories": sorted(slot["categories"]),
                "trace_count": slot["trace_count"],
            }
            for location, slot in sorted(out.items())
        }

    # -- rendering -----------------------------------------------------------

    def render(self) -> str:
        header = "%-20s | %s | %5s" % (
            "Application",
            " | ".join("%-13s" % c.value for c in CATEGORY_ORDER),
            "total",
        )
        rule = "-" * len(header)
        lines = [
            "Corpus race report: %d traces, %d apps, %d distinct races"
            % (self.traces_total, len(self.per_app), len(self.races)),
            "",
            header,
            rule,
        ]
        for app in sorted(self.per_app):
            counts = self.per_app[app]
            cells = ["%-13d" % counts.get(c, 0) for c in CATEGORY_ORDER]
            lines.append(
                "%-20s | %s | %5d" % (app, " | ".join(cells), sum(counts.values()))
            )
        lines.append(rule)
        totals = self.per_category()
        lines.append(
            "%-20s | %s | %5d"
            % (
                "Total",
                " | ".join("%-13d" % totals[c] for c in CATEGORY_ORDER),
                len(self.races),
            )
        )
        if self.errors:
            lines.append("")
            lines.append("%d trace(s) failed:" % len(self.errors))
            for name, error in self.errors:
                lines.append("  %s: %s" % (name, error))
        if self.triage_mode != "off":
            lines.append("")
            lines.append(
                "triage (%s): %d trace(s) filtered race-free, %d escalated to closure"
                % (self.triage_mode, self.triage_filtered, self.triage_escalated)
            )
        lines.append("")
        lines.append(
            "analyzed %d/%d traces in %.3fs (%s, jobs=%d); cache: "
            "%d hits / %d misses (%.0f%% hit rate)"
            % (
                self.traces_analyzed,
                self.traces_total,
                self.wall_seconds,
                "parallel" if self.parallel else "serial",
                self.jobs,
                self.cache_hits,
                self.cache_misses,
                100.0 * self.hit_rate(),
            )
        )
        return "\n".join(lines)

    def to_dict(self) -> dict:
        out = {
            "traces_total": self.traces_total,
            "traces_analyzed": self.traces_analyzed,
            "traces_failed": self.traces_failed,
            "distinct_races": len(self.races),
            "races": [race.to_dict() for race in self.races],
            "per_app": {
                app: {c.value: n for c, n in counts.items() if n}
                for app, counts in sorted(self.per_app.items())
            },
            "per_category": {
                c.value: n for c, n in self.per_category().items()
            },
            "errors": [
                {"trace": name, "error": error} for name, error in self.errors
            ],
            "cache": {
                "hits": self.cache_hits,
                "misses": self.cache_misses,
                "hit_rate": self.hit_rate(),
            },
            "wall_seconds": self.wall_seconds,
            "jobs": self.jobs,
            "parallel": self.parallel,
        }
        if self.triage_mode != "off":
            out["triage"] = {
                "mode": self.triage_mode,
                "filtered": self.triage_filtered,
                "escalated": self.triage_escalated,
            }
        return out


def aggregate(batch: BatchResult) -> CorpusReport:
    """Fold one batch run into a deduplicated corpus report."""
    report = CorpusReport(
        traces_total=len(batch.results),
        traces_analyzed=len(batch.ok()),
        traces_failed=len(batch.errors()),
        cache_hits=batch.cache_hits,
        cache_misses=batch.cache_misses,
        wall_seconds=batch.wall_seconds,
        jobs=batch.jobs,
        parallel=batch.parallel,
        triage_filtered=batch.triage_filtered,
        triage_escalated=batch.triage_escalated,
    )
    if batch.triage_filtered or batch.triage_escalated:
        report.triage_mode = "vc"
    # (location, category) -> [field, apps set, trace digests set, example]
    merged: Dict[Tuple[str, RaceCategory], list] = {}
    for result in batch.results:
        if result.error is not None:
            report.errors.append((result.entry.name, result.error))
            continue
        app = result.entry.app
        report.per_app.setdefault(app, {c: 0 for c in CATEGORY_ORDER})
        if result.report is None:
            continue  # vc-triage filtered: proven race-free, nothing to merge
        for race in result.report.races:
            key = (race.location, race.category)
            slot = merged.get(key)
            if slot is None:
                merged[key] = [race.field_name, {app}, {result.entry.digest}, race.describe()]
            else:
                slot[1].add(app)
                slot[2].add(result.entry.digest)
    for (location, category), (field_name, apps, digests, example) in sorted(
        merged.items(), key=lambda kv: (kv[0][1].value, kv[0][0])
    ):
        report.races.append(
            CorpusRace(
                location=location,
                field_name=field_name,
                category=category,
                apps=tuple(sorted(apps)),
                trace_count=len(digests),
                example=example,
            )
        )
        for app in apps:
            report.per_app[app][category] += 1
    return report


def report_to_json(report: RaceReport) -> str:
    """Machine-readable serialization of one trace's race report — shared
    by ``corpus analyze --json``, ``analyze --json``, and ``run --json``."""
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def corpus_report_to_json(report: CorpusReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)
