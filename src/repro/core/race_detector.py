"""The offline race detection algorithm (paper, §4.3).

A *data race* exists between trace operations ``α_i`` and ``α_j`` (``i<j``)
iff they conflict (same memory location, at least one write) and
``α_i ⊀ α_j`` with respect to the trace's happens-before relation.

The detector builds the happens-before graph (with node coalescing),
enumerates conflicting node pairs per memory location, reports unordered
pairs, and classifies each report (:mod:`repro.core.classification`).
As in the paper, when several races of the same category hit the same
memory location only one representative is reported (races on different
objects of the same class count separately — locations are per-object).

Because every closure edge points forward in node order, two accessors
``a < b`` race exactly when ``b``'s bit is **absent** from ``hb_row(a)``.
The default ``"batched"`` enumeration exploits this: per location it
precomputes an accessor mask, a writer mask, and per-``(thread, task)``
scope masks, so each accessor answers *all* of its racy partners with a
couple of big-integer operations (``candidates & ~hb_row(a)``) and only
surviving bits materialize :class:`Race` objects.  The original
one-query-per-pair loop remains available as ``enumeration="pairwise"``
for differential tests and benchmarks; both produce identical reports.
"""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from .classification import RaceCategory, classify_race
from .graph import HBNode, iter_bits
from .happens_before import (
    ANDROID_HB,
    BACKEND_BITMASK,
    BACKEND_CHAINS,
    BACKENDS,
    KERNEL_AUTO,
    SAT_FULL,
    SAT_INCREMENTAL,
    HappensBefore,
    HBConfig,
)
from .reachability import resolve_kernel
from .operations import Operation
from .vc_triage import TRIAGE_OFF, TRIAGES
from repro.obs import current_tracer
from .trace import (
    ExecutionTrace,
    field_of_location,
    operation_from_record,
    operation_to_record,
)

#: ``enumeration`` settings (a performance knob — reports are identical).
ENUM_BATCHED = "batched"  # per-location bitmask candidate filtering
ENUM_PAIRWISE = "pairwise"  # one ordering query per conflicting pair


@dataclass(frozen=True)
class DetectorConfig:
    """Everything that determines a detection run besides the trace itself.

    A plain (picklable) value object: worker processes of the corpus
    batch pipeline receive one, and the result cache keys on its
    :meth:`digest` — any rule switch, the coalescing toggle, or the
    cancelled-task set changing invalidates cached reports.
    """

    hb: HBConfig = ANDROID_HB
    coalesce: bool = True
    cancelled_tasks: Tuple[str, ...] = ()
    backend: str = BACKEND_BITMASK
    #: Closure performance knobs (kernel / chain merging / sharded
    #: saturation — see :class:`~repro.core.happens_before.HappensBefore`).
    #: Deliberately EXCLUDED from :meth:`canonical_dict`: they never change
    #: a report, so cache/history keys stay stable across knob settings
    #: (and across deployments with and without numpy).
    kernel: str = KERNEL_AUTO
    merge_chains: bool = True
    closure_workers: int = 1
    #: Streaming vector-clock triage tier (``"vc"`` | ``"off"``): a sound
    #: under-approximation of the relation that lets race-free traces skip
    #: the closure entirely (:mod:`repro.core.vc_triage`).  Also EXCLUDED
    #: from :meth:`canonical_dict`: escalated traces run the exact same
    #: closure, so reports — and with them cache and history keys — are
    #: byte-identical with triage on or off.
    triage: str = TRIAGE_OFF

    def __post_init__(self) -> None:
        if self.triage not in TRIAGES:
            raise ValueError("bad triage %r" % (self.triage,))

    def canonical_dict(self) -> dict:
        return {
            "hb": asdict(self.hb),
            "coalesce": self.coalesce,
            "cancelled_tasks": sorted(self.cancelled_tasks),
            "backend": self.backend,
        }

    def digest(self) -> str:
        blob = json.dumps(self.canonical_dict(), sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def build_detector(self, trace: ExecutionTrace) -> "RaceDetector":
        return RaceDetector(
            trace,
            config=self.hb,
            coalesce=self.coalesce,
            cancelled_tasks=self.cancelled_tasks,
            backend=self.backend,
            kernel=self.kernel,
            merge_chains=self.merge_chains,
            closure_workers=self.closure_workers,
        )


@dataclass(frozen=True)
class Race:
    """One reported data race."""

    location: str
    field_name: str
    op_i: Operation
    op_j: Operation
    category: RaceCategory

    @property
    def threads(self) -> Tuple[str, str]:
        return (self.op_i.thread, self.op_j.thread)

    @property
    def is_single_threaded(self) -> bool:
        return self.op_i.thread == self.op_j.thread

    def describe(self) -> str:
        return "%s race on %s: op %d %s  <->  op %d %s" % (
            self.category,
            self.location,
            self.op_i.index,
            self.op_i.render(),
            self.op_j.index,
            self.op_j.render(),
        )

    def __str__(self) -> str:
        return self.describe()

    def to_dict(self) -> dict:
        return {
            "location": self.location,
            "field": self.field_name,
            "category": self.category.value,
            "op_i": dict(operation_to_record(self.op_i), index=self.op_i.index),
            "op_j": dict(operation_to_record(self.op_j), index=self.op_j.index),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Race":
        return cls(
            location=data["location"],
            field_name=data["field"],
            op_i=operation_from_record(data["op_i"]),
            op_j=operation_from_record(data["op_j"]),
            category=RaceCategory(data["category"]),
        )


@dataclass
class RaceReport:
    """Everything a detection run produces."""

    trace_name: str
    races: List[Race] = field(default_factory=list)  # deduplicated reports
    racy_pair_count: int = 0  # all unordered conflicting pairs pre-dedup
    analysis_seconds: float = 0.0
    node_count: int = 0
    trace_length: int = 0
    reduction_ratio: float = 1.0
    #: Closure-engine observability (backend name, chain count, memory,
    #: rule-edge statistics) — absent in reports cached before the field
    #: existed, hence Optional.
    closure: Optional[dict] = None

    def by_category(self) -> Dict[RaceCategory, List[Race]]:
        out: Dict[RaceCategory, List[Race]] = {cat: [] for cat in RaceCategory}
        for race in self.races:
            out[race.category].append(race)
        return out

    def count(self, category: RaceCategory) -> int:
        return sum(1 for race in self.races if race.category is category)

    def racy_fields(self) -> List[str]:
        seen: Dict[str, None] = {}
        for race in self.races:
            seen.setdefault(race.field_name, None)
        return list(seen)

    def summary(self) -> str:
        counts = ", ".join(
            "%s: %d" % (cat.value, len(races))
            for cat, races in self.by_category().items()
            if races
        )
        return "%s: %d race reports (%s)" % (
            self.trace_name,
            len(self.races),
            counts or "none",
        )

    def to_dict(self) -> dict:
        return {
            "trace_name": self.trace_name,
            "races": [race.to_dict() for race in self.races],
            "racy_pair_count": self.racy_pair_count,
            "analysis_seconds": self.analysis_seconds,
            "node_count": self.node_count,
            "trace_length": self.trace_length,
            "reduction_ratio": self.reduction_ratio,
            "closure": self.closure,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RaceReport":
        return cls(
            trace_name=data["trace_name"],
            races=[Race.from_dict(rec) for rec in data["races"]],
            racy_pair_count=data["racy_pair_count"],
            analysis_seconds=data["analysis_seconds"],
            node_count=data["node_count"],
            trace_length=data["trace_length"],
            reduction_ratio=data["reduction_ratio"],
            closure=data.get("closure"),
        )


class RaceDetector:
    """Graph-based happens-before race detector.

    Parameters mirror :class:`~repro.core.happens_before.HappensBefore`;
    ``config`` lets the baselines of :mod:`repro.core.baselines` reuse the
    detection pipeline unchanged.  ``saturation`` and ``enumeration`` pick
    the closure and enumeration strategies — performance knobs whose
    settings never change the report.
    """

    def __init__(
        self,
        trace: ExecutionTrace,
        config: HBConfig = ANDROID_HB,
        coalesce: bool = True,
        cancelled_tasks: Iterable[str] = (),
        saturation: str = SAT_INCREMENTAL,
        enumeration: str = ENUM_BATCHED,
        backend: str = BACKEND_BITMASK,
        kernel: str = KERNEL_AUTO,
        merge_chains: bool = True,
        closure_workers: int = 1,
    ):
        if enumeration not in (ENUM_BATCHED, ENUM_PAIRWISE):
            raise ValueError("bad enumeration %r" % enumeration)
        if saturation not in (SAT_INCREMENTAL, SAT_FULL):
            raise ValueError("bad saturation %r" % saturation)
        if backend not in BACKENDS:
            raise ValueError("bad backend %r" % backend)
        if closure_workers < 1:
            raise ValueError(
                "closure_workers must be >= 1, got %r" % (closure_workers,)
            )
        kernel = resolve_kernel(kernel)
        cancelled = list(cancelled_tasks)
        if cancelled:
            # §4.2: cancellation is handled by removing the corresponding
            # post operations from the trace.
            trace = trace.without_cancelled_posts(cancelled)
        self.trace = trace
        self.config = config
        self.coalesce = coalesce
        self.saturation = saturation
        self.enumeration = enumeration
        self.backend = backend
        self.kernel = kernel
        self.merge_chains = merge_chains
        self.closure_workers = closure_workers
        self.hb: Optional[HappensBefore] = None

    def detect(self) -> RaceReport:
        # Timing flows through the tracer (a single source of truth for
        # ``analysis_seconds``); under the default NULL_TRACER the spans
        # still measure wall time but record nothing.
        tracer = current_tracer()
        with tracer.span(
            "detect", trace=self.trace.name, backend=self.backend
        ) as detect_span:
            with tracer.span("detect.closure"):
                hb = HappensBefore(
                    self.trace,
                    config=self.config,
                    coalesce=self.coalesce,
                    saturation=self.saturation,
                    backend=self.backend,
                    kernel=self.kernel,
                    merge_chains=self.merge_chains,
                    workers=self.closure_workers,
                )
            self.hb = hb
            report = RaceReport(
                trace_name=self.trace.name,
                trace_length=len(self.trace),
                node_count=len(hb.graph),
                reduction_ratio=hb.graph.reduction_ratio,
            )
            seen: set = set()  # (location, category) dedup keys
            with tracer.span("detect.enumerate", strategy=self.enumeration):
                if self.enumeration == ENUM_BATCHED:
                    if self.backend == BACKEND_CHAINS:
                        self._enumerate_chains(hb, report, seen)
                    else:
                        self._enumerate_batched(hb, report, seen)
                else:
                    self._enumerate_pairwise(hb, report, seen)
                report.races.sort(key=lambda race: (race.op_i.index, race.op_j.index))
            report.closure = {
                "backend": hb.stats.backend,
                "chain_count": hb.stats.chain_count,
                "chains_merged": hb.stats.chains_merged,
                "memory_bytes": hb.stats.closure_memory_bytes,
                "peak_rss_bytes": hb.stats.peak_rss_bytes,
                "st_edges": hb.stats.st_edges,
                "mt_edges": hb.stats.mt_edges,
                "fifo_edges": hb.stats.fifo_edges,
                "nopre_edges": hb.stats.nopre_edges,
                "outer_iterations": hb.stats.outer_iterations,
            }
            tracer.count("detect.races", len(report.races))
            tracer.count("detect.racy_pairs", report.racy_pair_count)
        report.analysis_seconds = detect_span.wall_seconds
        return report

    def _enumerate_batched(
        self, hb: HappensBefore, report: RaceReport, seen: set
    ) -> None:
        """Answer each accessor's racy partners with mask arithmetic.

        Node ids ascend in trace order and all closure edges point forward,
        so for accessors ``a < b`` the pair is racy iff ``b``'s bit is
        absent from ``hb_row(a)`` — later accessors of the location that
        conflict, run in a different (thread, task) scope, and survive
        ``& ~hb_row(a)`` are exactly the racy partners.
        """
        graph = hb.graph
        st, mt = graph.st, graph.mt
        nodes = graph.nodes
        for location, entry in self._location_index(hb).items():
            accessors, access_mask, write_mask, scope_masks = entry
            rest = access_mask  # accessors strictly after the current one
            for a, a_writes in accessors:
                rest &= ~(1 << a.node_id)
                if not rest:
                    break
                candidates = rest if a_writes else rest & write_mask
                candidates &= ~scope_masks[(a.thread, a.task)]
                racy = candidates & ~(st[a.node_id] | mt[a.node_id])
                for b_id in iter_bits(racy):
                    self._record(hb, report, seen, location, a, nodes[b_id])

    def _enumerate_chains(
        self, hb: HappensBefore, report: RaceReport, seen: set
    ) -> None:
        """Chains-backend enumeration: each accessor's racy partners fall
        out of the reach vector directly.

        Per location the accessors are grouped by chain; for accessor ``a``
        and chain ``c``, the unordered later accessors on ``c`` are exactly
        the ids in the open interval ``(a.node_id, reach[a][c])`` — two
        bisects per (accessor, chain) replace the bitmask arithmetic, and
        only conflict/scope checks run per candidate.  Partners are emitted
        in ascending node order, so reports match the batched path
        pair-for-pair.
        """
        index = hb.graph.reach
        reach = index.reach
        chain_of = index.chain_of
        for location, entry in self._location_index(hb).items():
            accessors = entry[0]
            by_chain: Dict[int, Tuple[List[int], List[Tuple[HBNode, bool]]]] = {}
            for node, writes in accessors:
                ids, infos = by_chain.setdefault(chain_of[node.node_id], ([], []))
                ids.append(node.node_id)  # accessors ascend, so ids ascend
                infos.append((node, writes))
            chain_groups = list(by_chain.values())
            for a, a_writes in accessors:
                a_id = a.node_id
                scope = (a.thread, a.task)
                row = reach[a_id]
                partners: List[HBNode] = []
                for ids, infos in chain_groups:
                    start = bisect_right(ids, a_id)
                    if start == len(ids):
                        continue
                    stop = bisect_left(ids, row[chain_of[ids[start]]], start)
                    for pos in range(start, stop):
                        b, b_writes = infos[pos]
                        if not a_writes and not b_writes:
                            continue
                        if (b.thread, b.task) == scope:
                            continue
                        partners.append(b)
                partners.sort(key=lambda node: node.node_id)
                for b in partners:
                    self._record(hb, report, seen, location, a, b)

    def _enumerate_pairwise(
        self, hb: HappensBefore, report: RaceReport, seen: set
    ) -> None:
        """The original per-pair loop (one ordering query per candidate)."""
        for location, entry in self._location_index(hb).items():
            accessors = entry[0]
            for a_pos, (a, a_writes) in enumerate(accessors):
                for b, b_writes in accessors[a_pos + 1 :]:
                    if a.thread == b.thread and a.task == b.task:
                        continue  # program order within a task (or pre-loop)
                    if not a_writes and not b_writes:
                        continue
                    if hb.ordered_nodes(a.node_id, b.node_id):
                        continue
                    self._record(hb, report, seen, location, a, b)

    def _record(
        self,
        hb: HappensBefore,
        report: RaceReport,
        seen: set,
        location: str,
        a: HBNode,
        b: HBNode,
    ) -> None:
        report.racy_pair_count += 1
        op_i, op_j = _representative_pair(a, b, location)
        category = classify_race(self.trace, hb, op_i.index, op_j.index)
        key = (location, category)
        if key in seen:
            return
        seen.add(key)
        report.races.append(
            Race(
                location=location,
                field_name=field_of_location(location),
                op_i=op_i,
                op_j=op_j,
                category=category,
            )
        )

    def _location_index(
        self, hb: HappensBefore
    ) -> Dict[str, Tuple[List[Tuple[HBNode, bool]], int, int, Dict]]:
        """Per location: ``(accessors, access_mask, write_mask, scope_masks)``.

        ``accessors`` lists ``(node, writes_here)`` in ascending node order;
        the masks carry the same information as node-id bitmasks, with
        ``scope_masks`` grouping accessors by ``(thread, task)`` — pairs
        inside one scope are ordered by program order and never race.
        """
        index: Dict[str, list] = {}
        for node in hb.graph.nodes:
            if not node.is_access_block:
                continue
            bit = 1 << node.node_id
            scope = (node.thread, node.task)
            for location, writes in node.location_writes().items():
                entry = index.get(location)
                if entry is None:
                    entry = index[location] = [[], 0, 0, {}]
                entry[0].append((node, writes))
                entry[1] |= bit
                if writes:
                    entry[2] |= bit
                scopes = entry[3]
                scopes[scope] = scopes.get(scope, 0) | bit
        return {
            location: (entry[0], entry[1], entry[2], entry[3])
            for location, entry in index.items()
        }


def _representative_pair(
    a: HBNode, b: HBNode, location: str
) -> Tuple[Operation, Operation]:
    """Pick one conflicting (op_i, op_j) pair from two racy nodes, ensuring
    at least one side is a write."""
    a_ops = a.accesses_to(location)
    b_ops = b.accesses_to(location)
    a_write = next((op for op in a_ops if op.is_write), None)
    b_write = next((op for op in b_ops if op.is_write), None)
    if a_write is not None:
        return a_write, (b_write or b_ops[0])
    return a_ops[0], b_write  # b must write if a does not


def detect_races(
    trace: ExecutionTrace,
    config: HBConfig = ANDROID_HB,
    coalesce: bool = True,
    cancelled_tasks: Iterable[str] = (),
    saturation: str = SAT_INCREMENTAL,
    enumeration: str = ENUM_BATCHED,
    backend: str = BACKEND_BITMASK,
    kernel: str = KERNEL_AUTO,
    merge_chains: bool = True,
    closure_workers: int = 1,
) -> RaceReport:
    """One-call convenience wrapper: build, run, and return the report."""
    return RaceDetector(
        trace,
        config=config,
        coalesce=coalesce,
        cancelled_tasks=cancelled_tasks,
        saturation=saturation,
        enumeration=enumeration,
        backend=backend,
        kernel=kernel,
        merge_chains=merge_chains,
        closure_workers=closure_workers,
    ).detect()
