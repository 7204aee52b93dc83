"""Suspiciousness scoring: the corpus -> explorer feedback signal.

The detector only reports races on schedules the explorer actually
manifests, so blind exploration wastes most of its budget on event
sequences that never touch race-prone state.  Prior corpus runs already
carry everything needed to do better — per-location unordered-pair
density, near-miss orderings, classification mix, and triage verdicts —
and this module distills them into a per-(app, location)
:class:`SuspicionIndex` the :class:`~repro.explorer.guided_explorer.
GuidedExplorer` consults when choosing what to fire next.

Signals per (app, location), every one a *ratio* so scores are invariant
under duplicating traces in the history (ten copies of the same run must
not look ten times as suspicious):

* **pair density** — unordered conflicting pairs over all conflicting
  cross-scope pairs at the location (from the same enumeration the
  detector runs, recomputed here per location);
* **near-miss rate** — conflicting pairs that *are* ordered, but only
  through exactly one FIFO/NOPRE/AT-FRONT derived edge
  (:attr:`HappensBefore.rule_edges`): one perturbed post and the pair
  races.  Confirmed via :func:`repro.core.explain.hb_witness`;
* **classification mix** — distinct :class:`RaceCategory` values seen at
  the location over the five possible ones (a location racing in several
  ways has more schedules worth perturbing);
* **escalation rate** — fraction of the location's traces where the
  ``--triage vc`` tier could not prove race-freedom and escalated to the
  closure.

The index additionally learns an *event attribution*: which event keys
were present in sequences that manifested signals at each location.
That attribution, weighted by location scores, is the prior
:class:`~repro.explorer.guided_explorer.GuidedExplorer` uses to rank
enabled events.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.core.classification import RaceCategory
from repro.core.explain import hb_witness
from repro.core.happens_before import HappensBefore
from repro.core.race_detector import RaceReport
from repro.core.trace import ExecutionTrace

__all__ = [
    "DEFAULT_WEIGHTS",
    "LocationSignal",
    "ScoreWeights",
    "SuspicionIndex",
    "collect_signals",
    "signal_document",
]

#: Schema version of signal documents and serialized indexes.
SIGNAL_VERSION = 1

#: Near-miss post-pass budget: skip the pass (rather than blow up) on
#: traces whose rule-edge population or per-location accessor count is
#: outside what the quadratic bridge scan can afford.
MAX_ACCESSORS = 64
MAX_RULE_EDGES = 4096


@dataclass(frozen=True)
class ScoreWeights:
    """Relative weight of each signal in the combined score.  The four
    weights sum to 1.0 so scores stay in ``[0, 1]``."""

    density: float = 0.40
    near_miss: float = 0.30
    mix: float = 0.20
    escalation: float = 0.10


DEFAULT_WEIGHTS = ScoreWeights()


@dataclass
class LocationSignal:
    """Accumulated evidence about one (app, location) pair."""

    location: str
    traces: int = 0  # traces in which the location was observed
    conflicting_pairs: int = 0  # cross-scope conflicting pairs (denominator)
    racy_pairs: int = 0  # unordered conflicting pairs
    near_misses: int = 0  # ordered through exactly one derived edge
    escalated: int = 0  # traces where vc triage escalated on this location
    categories: List[str] = field(default_factory=list)  # distinct, sorted
    events: Dict[str, int] = field(default_factory=dict)  # key -> traces seen

    def merge(self, signal: dict, events: Sequence[str], escalated: bool) -> None:
        """Fold one run's signal dict (from :func:`collect_signals`) in."""
        self.traces += 1
        self.conflicting_pairs += int(signal.get("conflicting_pairs", 0))
        self.racy_pairs += int(signal.get("racy_pairs", 0))
        self.near_misses += int(signal.get("near_misses", 0))
        cats = set(self.categories)
        cats.update(signal.get("categories", ()))
        self.categories = sorted(cats)
        hot = bool(
            signal.get("racy_pairs")
            or signal.get("near_misses")
            or signal.get("categories")
        )
        if escalated and hot:
            self.escalated += 1
        if hot:
            # Attribute the run's events only when the location actually
            # signalled — race-free runs teach nothing about which events
            # provoke this location.
            for key in dict.fromkeys(events):
                self.events[key] = self.events.get(key, 0) + 1

    def score(self, weights: ScoreWeights = DEFAULT_WEIGHTS) -> float:
        """Combined suspiciousness in ``[0, 1]``.

        Every term is a ratio of like-scaled accumulators, so the score
        is invariant under trace duplication: doubling every run doubles
        numerator and denominator alike (the category set is a set).
        """
        if self.traces == 0:
            return 0.0
        pairs = self.conflicting_pairs
        density = self.racy_pairs / pairs if pairs else 0.0
        near = self.near_misses / pairs if pairs else 0.0
        mix = len(self.categories) / float(len(RaceCategory))
        escalation = self.escalated / self.traces
        return (
            weights.density * density
            + weights.near_miss * near
            + weights.mix * mix
            + weights.escalation * escalation
        )

    def to_dict(self) -> dict:
        return {
            "location": self.location,
            "traces": self.traces,
            "conflicting_pairs": self.conflicting_pairs,
            "racy_pairs": self.racy_pairs,
            "near_misses": self.near_misses,
            "escalated": self.escalated,
            "categories": list(self.categories),
            "events": dict(self.events),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "LocationSignal":
        return cls(
            location=data["location"],
            traces=int(data.get("traces", 0)),
            conflicting_pairs=int(data.get("conflicting_pairs", 0)),
            racy_pairs=int(data.get("racy_pairs", 0)),
            near_misses=int(data.get("near_misses", 0)),
            escalated=int(data.get("escalated", 0)),
            categories=sorted(data.get("categories", ())),
            events=dict(data.get("events", {})),
        )


# -- per-run signal collection ---------------------------------------------------


def _location_accessors(hb: HappensBefore) -> Dict[str, List[Tuple]]:
    """Per location, the access-block nodes touching it (ascending node
    order) with a writes-here flag — the same grouping the detector's
    enumeration works from."""
    index: Dict[str, List[Tuple]] = {}
    for node in hb.graph.nodes:
        if not node.is_access_block:
            continue
        for location, writes in node.location_writes().items():
            index.setdefault(location, []).append((node, writes))
    return index


def _bridge_count(hb: HappensBefore, a: int, b: int, limit: int = 2) -> int:
    """Derived (FIFO/NOPRE/AT-FRONT) edges usable on an ``a -> b`` HB
    path: edges ``(u, v)`` with ``a ⪯ u`` and ``v ⪯ b``.  Stops counting
    at ``limit`` — callers only care whether the count is exactly one."""
    graph = hb.graph
    count = 0
    for u, v in hb.rule_edges:
        if (u == a or graph.ordered(a, u)) and (v == b or graph.ordered(v, b)):
            count += 1
            if count >= limit:
                break
    return count


def collect_signals(
    trace: ExecutionTrace,
    hb: HappensBefore,
    report: RaceReport,
    max_accessors: int = MAX_ACCESSORS,
    max_rule_edges: int = MAX_RULE_EDGES,
) -> Dict[str, dict]:
    """One run's per-location signal dicts.

    Re-enumerates conflicting cross-scope pairs per location (the
    detector reports only deduplicated representatives, not densities)
    and runs the near-miss post-pass: a conflicting pair that *is*
    ordered, but bridged by exactly one rule-derived edge, is one
    perturbed post away from racing.  ``hb_witness`` confirms each
    candidate (an actual HB path exists through the closure).

    Locations with more than ``max_accessors`` access blocks are
    truncated (flagged ``"truncated": true``); the near-miss pass is
    skipped entirely when the trace carries more than ``max_rule_edges``
    derived edges.
    """
    categories: Dict[str, List[str]] = {}
    for race in report.races:
        categories.setdefault(race.location, []).append(race.category.value)
    scan_bridges = len(hb.rule_edges) <= max_rule_edges
    signals: Dict[str, dict] = {}
    for location, accessors in _location_accessors(hb).items():
        truncated = len(accessors) > max_accessors
        if truncated:
            accessors = accessors[:max_accessors]
        conflicting = racy = near = 0
        for a_pos, (a, a_writes) in enumerate(accessors):
            for b, b_writes in accessors[a_pos + 1 :]:
                if a.thread == b.thread and a.task == b.task:
                    continue  # program order within one scope: never races
                if not a_writes and not b_writes:
                    continue
                conflicting += 1
                if not hb.graph.ordered(a.node_id, b.node_id):
                    # Node ids ascend in trace order and closure edges
                    # only point forward, so unordered-forward is the
                    # full race condition here.
                    racy += 1
                elif scan_bridges and _bridge_count(hb, a.node_id, b.node_id) == 1:
                    if hb_witness(hb, a.first_index, b.first_index) is not None:
                        near += 1
        cats = categories.get(location, ())
        if not conflicting and not cats:
            continue  # single-scope location: nothing to learn
        signals[location] = {
            "conflicting_pairs": conflicting,
            "racy_pairs": racy,
            "near_misses": near,
            "categories": sorted(set(cats)),
        }
        if truncated:
            signals[location]["truncated"] = True
    return signals


def signal_document(
    app: str,
    trace: ExecutionTrace,
    hb: HappensBefore,
    report: RaceReport,
    events: Sequence[str] = (),
    escalated: bool = False,
) -> dict:
    """The run-level signal record: what goes into a history record's
    ``extra["suspicion"]`` and what :meth:`SuspicionIndex.observe`
    consumes."""
    return {
        "version": SIGNAL_VERSION,
        "app": app,
        "trace_name": trace.name,
        "events": list(events),
        "escalated": bool(escalated),
        "locations": collect_signals(trace, hb, report),
    }


# -- the mined index -------------------------------------------------------------


class SuspicionIndex:
    """Per-(app, location) suspiciousness, mined from prior runs."""

    def __init__(self, weights: ScoreWeights = DEFAULT_WEIGHTS):
        self.weights = weights
        self._apps: Dict[str, Dict[str, LocationSignal]] = {}

    # -- ingestion -----------------------------------------------------------

    def observe(self, doc: dict) -> None:
        """Fold one signal document (:func:`signal_document`) in."""
        app = doc.get("app") or "?"
        events = list(doc.get("events", ()))
        escalated = bool(doc.get("escalated"))
        bucket = self._apps.setdefault(app, {})
        for location, signal in (doc.get("locations") or {}).items():
            entry = bucket.get(location)
            if entry is None:
                entry = bucket[location] = LocationSignal(location=location)
            entry.merge(signal, events, escalated)

    @classmethod
    def mine(
        cls,
        records: Iterable,
        app: Optional[str] = None,
        weights: ScoreWeights = DEFAULT_WEIGHTS,
    ) -> "SuspicionIndex":
        """Build an index from history :class:`~repro.obs.history.
        RunRecord`s: every record carrying ``extra["suspicion"]`` (one
        document or a list of them, for multi-trace commands)
        contributes.  ``app`` restricts mining to one application."""
        index = cls(weights=weights)
        for record in records:
            payload = record.extra.get("suspicion")
            if not payload:
                continue
            docs = payload if isinstance(payload, list) else [payload]
            for doc in docs:
                if not isinstance(doc, dict):
                    continue
                if app is not None and doc.get("app") != app:
                    continue
                index.observe(doc)
        return index

    # -- queries -------------------------------------------------------------

    @property
    def apps(self) -> List[str]:
        return sorted(self._apps)

    def is_empty(self, app: Optional[str] = None) -> bool:
        if app is not None:
            return not self._apps.get(app)
        return not any(self._apps.values())

    def signals(self, app: str) -> Dict[str, LocationSignal]:
        return dict(self._apps.get(app, {}))

    def score(self, app: str, location: str) -> float:
        entry = self._apps.get(app, {}).get(location)
        return entry.score(self.weights) if entry else 0.0

    def scores(self, app: str) -> Dict[str, float]:
        return {
            location: entry.score(self.weights)
            for location, entry in self._apps.get(app, {}).items()
        }

    def top(self, app: str, n: int = 10) -> List[Tuple[str, float]]:
        ranked = sorted(
            self.scores(app).items(), key=lambda item: (-item[1], item[0])
        )
        return ranked[:n]

    def event_affinity(self, app: str) -> Dict[str, float]:
        """Per event key, the score-weighted fraction of each location's
        signalling traces the event appeared in — the guided explorer's
        prior over enabled events.  Ratios again: duplication-invariant."""
        affinity: Dict[str, float] = {}
        for entry in self._apps.get(app, {}).values():
            weight = entry.score(self.weights)
            if weight <= 0.0 or entry.traces == 0:
                continue
            for key, count in entry.events.items():
                affinity[key] = affinity.get(key, 0.0) + weight * (
                    count / entry.traces
                )
        return affinity

    # -- persistence ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": SIGNAL_VERSION,
            "weights": {
                "density": self.weights.density,
                "near_miss": self.weights.near_miss,
                "mix": self.weights.mix,
                "escalation": self.weights.escalation,
            },
            "apps": {
                app: {
                    location: entry.to_dict()
                    for location, entry in sorted(bucket.items())
                }
                for app, bucket in sorted(self._apps.items())
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SuspicionIndex":
        weights_data = data.get("weights") or {}
        weights = ScoreWeights(
            density=float(weights_data.get("density", DEFAULT_WEIGHTS.density)),
            near_miss=float(
                weights_data.get("near_miss", DEFAULT_WEIGHTS.near_miss)
            ),
            mix=float(weights_data.get("mix", DEFAULT_WEIGHTS.mix)),
            escalation=float(
                weights_data.get("escalation", DEFAULT_WEIGHTS.escalation)
            ),
        )
        index = cls(weights=weights)
        for app, bucket in (data.get("apps") or {}).items():
            index._apps[app] = {
                location: LocationSignal.from_dict(entry)
                for location, entry in bucket.items()
            }
        return index

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    # -- presentation --------------------------------------------------------

    def render(self, app: Optional[str] = None, limit: int = 10) -> str:
        """Text table of the top-scoring locations (all apps, or one)."""
        lines: List[str] = []
        for name in self.apps if app is None else [app]:
            ranked = self.top(name, limit)
            lines.append("%s (%d locations)" % (name, len(self._apps.get(name, {}))))
            if not ranked:
                lines.append("  (no signals)")
                continue
            lines.append(
                "  %-40s %7s %6s %6s %6s  %s"
                % ("location", "score", "racy", "near", "esc", "categories")
            )
            for location, score in ranked:
                entry = self._apps[name][location]
                lines.append(
                    "  %-40s %7.4f %6d %6d %6d  %s"
                    % (
                        location[:40],
                        score,
                        entry.racy_pairs,
                        entry.near_misses,
                        entry.escalated,
                        ",".join(entry.categories) or "-",
                    )
                )
        return "\n".join(lines)
