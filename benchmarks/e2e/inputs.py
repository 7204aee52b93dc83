"""Seeded inputs for the four end-to-end workloads.

Every generator is a pure function of ``(seed, smoke)`` (and, for
``serve``, the run length): the same seed yields byte-identical traces
(same canonical digests), and a different seed yields different ones.
Workload *shapes* are fixed by the tables below; the seed picks
schedules, shape details, order, and arrival times, so the work per run
stays comparable across seeds.

Each input is an :class:`Item` carrying the trace and the independent
expectation its report is checked against (:mod:`expected`).
"""

from __future__ import annotations

import hashlib
import random
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from repro.apps.ladder import ladder_trace
from repro.apps.specs import ALL_SPECS, SPEC_BY_NAME
from repro.apps.synthetic import SyntheticApp
from repro.core.operations import (
    acquire,
    attachq,
    begin,
    end,
    looponq,
    post,
    release,
    threadinit,
    write,
)
from repro.core.trace import ExecutionTrace, TraceBuilder
from repro.obs import combine_digests

import expected

#: Table-2 subject scale of the ``apps`` workload (0.5 keeps one pass of
#: all 15 subjects near 7 s on a 2-core box, so three passes fit a 20 s
#: run).
APPS_SCALE = 0.5
#: Subjects uploaded by the ``serve`` workload.  Facebook and Flipkart
#: are the two largest traces; K-9 Mail and Tomdroid Notes cost 8-27x the
#: other subjects' closure and would put p90 on the cliff between two
#: latency clusters.
SERVE_SUBJECTS = tuple(
    spec.name
    for spec in ALL_SPECS
    if spec.name not in ("Facebook", "Flipkart", "K-9 Mail", "Tomdroid Notes")
)
#: The scales a subject's fresh uploads spread across.  Continuously
#: varied sizes give a latency distribution without gaps; with one scale
#: per subject, p90 fell between two subjects' clusters and moved by
#: about 10% from run to run.
SERVE_SCALES = (0.05, 0.2)
#: Open-loop arrival rate (requests/s) and the share of fresh uploads;
#: the rest resubmit an earlier upload.  Fixed once; do not retune.
SERVE_RATE = 8.0
SERVE_FRESH = 0.6

#: ``ladder`` workload: (levels, width, loopers, body) per trace, each
#: near 1.5k graph nodes.  The seed picks rogues and ``shared_every``
#: (neither changes the expected races) and the order.
LADDER_SHAPES = (
    (8, 5, 2, 11),
    (9, 4, 3, 13),
    (10, 5, 2, 9),
    (11, 4, 3, 10),
    (12, 4, 2, 9),
    (13, 4, 3, 8),
    (14, 4, 2, 8),
    (10, 6, 3, 7),
)
#: The racy minority of the ``corpus`` store: small, pairwise distinct
#: ladders (distinct shapes give distinct digests in the store).
CORPUS_RACY_SHAPES = (
    (3, 4, 2, 2),
    (4, 4, 3, 1),
    (5, 3, 2, 2),
    (3, 5, 3, 1),
    (4, 3, 2, 3),
    (5, 4, 3, 1),
    (6, 3, 2, 1),
    (4, 5, 2, 2),
)
CORPUS_QUIET = 200
#: (loopers, tasks, body) of the quiet traces, cycled.
QUIET_SHAPES = tuple(
    (loopers, tasks, body)
    for loopers in (3, 4)
    for tasks in (12, 14, 16, 18, 20)
    for body in (2, 3, 4)
)

SMOKE_SUBJECTS = ("Aard Dictionary", "Music Player", "Browser")
SMOKE_SCALE = 0.05
SMOKE_LADDER_SHAPES = ((3, 3, 2, 1), (4, 3, 3, 1))
SMOKE_CORPUS_QUIET = 10


@dataclass
class Item:
    """One trace of a workload and what its report must say."""

    name: str
    trace: ExecutionTrace
    expected: dict
    app: str

    @property
    def ops(self) -> int:
        return len(self.trace)

    @cached_property
    def text(self) -> str:
        """The canonical JSONL file/upload body."""
        return self.trace.to_jsonl()

    @property
    def digest(self) -> str:
        """``ExecutionTrace.canonical_digest`` without re-serializing."""
        return hashlib.sha256(self.text.encode("utf-8")).hexdigest()


def slug(name: str) -> str:
    return re.sub(r"[^a-z0-9]+", "-", name.lower()).strip("-")


def subject_item(spec_name: str, scale: float, run_seed: int, name: str) -> Item:
    spec = SPEC_BY_NAME[spec_name]
    _, trace = SyntheticApp(spec, scale=scale).run(seed=run_seed)
    trace.name = name
    return Item(name, trace, expected.subject(spec, len(trace)), slug(spec_name))


def apps_items(seed: int, smoke: bool = False) -> List[Item]:
    """The Table-2 subjects, one trace each, in a seeded order."""
    names = list(SMOKE_SUBJECTS if smoke else (s.name for s in ALL_SPECS))
    random.Random(seed).shuffle(names)
    scale = SMOKE_SCALE if smoke else APPS_SCALE
    return [subject_item(n, scale, seed, slug(n)) for n in names]


def _ladder_item(shape, rng: random.Random, name: str) -> Item:
    levels, width, loopers, body = shape
    trace = ladder_trace(
        levels,
        width,
        loopers=loopers,
        rogues=rng.choice((1, 2)),
        shared_every=rng.choice((2, 3, 4)),
        body=body,
        name=name,
    )
    return Item(name, trace, expected.ladder(loopers, len(trace)), "ladder")


def ladder_items(seed: int, smoke: bool = False) -> List[Item]:
    rng = random.Random(seed)
    shapes = list(SMOKE_LADDER_SHAPES if smoke else LADDER_SHAPES)
    rng.shuffle(shapes)
    return [
        _ladder_item(shape, rng, "ladder-%02d-%dx%d" % (i, shape[0], shape[1]))
        for i, shape in enumerate(shapes)
    ]


def quiet_trace(loopers: int, tasks: int, body: int, salt: str, name: str):
    """A race-free looper workload: one driver posts every task in
    program order (FIFO orders each looper's queue), and every task
    writes its looper's state plus a private lock-guarded cell.  Task
    and cell names carry ``salt`` so equal shapes stay distinct traces
    in a content-addressed store."""
    b = TraceBuilder(name)
    b.add(threadinit("driver"))
    threads = ["looper%d" % k for k in range(loopers)]
    for t in threads:
        b.extend([threadinit(t), attachq(t), looponq(t)])
    for i in range(tasks):
        b.add(post("driver", "q%s_job%d" % (salt, i), threads[i % loopers]))
    for i in range(tasks):
        t = threads[i % loopers]
        cell = "q%s_cell%d" % (salt, i)
        b.add(begin(t, "q%s_job%d" % (salt, i)))
        b.add(write(t, "%s.state" % t))
        for _ in range(body):
            b.add(acquire(t, cell + ".lock"))
            b.add(write(t, cell + ".v"))
            b.add(release(t, cell + ".lock"))
        b.add(end(t, "q%s_job%d" % (salt, i)))
    return b.build()


def corpus_items(seed: int, smoke: bool = False) -> List[Item]:
    """A racy-sparse store: many quiet traces, a few racy ladders.

    The quiet shapes cycle through ``QUIET_SHAPES`` (the same multiset at
    every seed, so the work per pass does not drift with the seed); the
    seed orders them and salts their names."""
    rng = random.Random(seed)
    count = SMOKE_CORPUS_QUIET if smoke else CORPUS_QUIET
    shapes = [QUIET_SHAPES[i % len(QUIET_SHAPES)] for i in range(count)]
    rng.shuffle(shapes)
    items = []
    for i, (loopers, tasks, body) in enumerate(shapes):
        name = "quiet-%03d" % i
        trace = quiet_trace(loopers, tasks, body, "%d_%d" % (seed, i), name)
        items.append(Item(name, trace, expected.quiet(len(trace)), "quiet"))
    shapes = CORPUS_RACY_SHAPES[:1] if smoke else CORPUS_RACY_SHAPES
    for i, shape in enumerate(shapes):
        items.append(_ladder_item(shape, rng, "racy-%02d" % i))
    return items


@dataclass
class Request:
    """One open-loop request: due ``due`` seconds after the loop starts,
    uploading fresh item ``item`` (a resubmit when ``fresh`` is false)."""

    due: float
    item: int
    fresh: bool


def serve_plan(
    seed: int, seconds: float, smoke: bool = False
) -> Tuple[List[Item], List[Request]]:
    """Fresh uploads and the Poisson request schedule for ``serve``.

    The traffic is whole rounds of one request per subject, about
    ``SERVE_RATE * seconds`` requests; ``SERVE_FRESH`` of the rounds
    upload fresh traces, the rest resubmit an earlier upload of the same
    subject.  A subject's fresh uploads take evenly spaced scales across
    ``SERVE_SCALES``, so the mix is the same at every seed.  The seed
    shuffles the order, picks resubmit targets and schedules, and places
    the arrivals uniformly in ``[0, seconds)`` (a Poisson process
    conditioned on its count).
    """
    rng = random.Random(seed)
    subjects = list(SMOKE_SUBJECTS if smoke else SERVE_SUBJECTS)
    lo, hi = (SMOKE_SCALE, SMOKE_SCALE) if smoke else SERVE_SCALES
    rounds = max(1, round(SERVE_RATE * seconds / len(subjects)))
    fresh_rounds = max(1, round(SERVE_FRESH * rounds))
    scales = [lo + (hi - lo) * r / max(1, fresh_rounds - 1) for r in range(fresh_rounds)]
    scales += [None] * (rounds - fresh_rounds)  # resubmits
    mix = [(s, scale) for scale in scales for s in subjects]
    rng.shuffle(mix)
    # A resubmit cannot precede its subject's first upload: hold it back
    # until that upload.
    ordered: List[Tuple[str, Optional[float]]] = []
    held: Dict[str, list] = {s: [] for s in subjects}
    for subject, scale in mix:
        if scale is not None or subject not in held:
            ordered.append((subject, scale))
        else:
            held[subject].append((subject, scale))
        if scale is not None and subject in held:
            ordered.extend(held.pop(subject))
    dues = sorted(rng.uniform(0.0, seconds) for _ in ordered)

    items: List[Item] = []
    uploads: Dict[str, List[int]] = {s: [] for s in subjects}
    digests = set()
    requests: List[Request] = []
    run_seed = seed * 100003
    for due, (subject, scale) in zip(dues, ordered):
        if scale is None:
            requests.append(Request(due, rng.choice(uploads[subject]), False))
            continue
        while True:  # a repeated schedule would dedupe in the store
            run_seed += 1
            item = subject_item(
                subject, scale, run_seed, "%s-%03d" % (slug(subject), len(items))
            )
            if item.digest not in digests:
                digests.add(item.digest)
                break
        uploads[subject].append(len(items))
        requests.append(Request(due, len(items), True))
        items.append(item)
    return items, requests


def workload_items(workload: str, seed: int, seconds: float, smoke: bool):
    """The traces a workload analyzes (for ``serve``: the fresh uploads)."""
    if workload == "apps":
        return apps_items(seed, smoke)
    if workload == "ladder":
        return ladder_items(seed, smoke)
    if workload == "corpus":
        return corpus_items(seed, smoke)
    if workload == "serve":
        return serve_plan(seed, seconds, smoke)[0]
    raise ValueError("unknown workload %r" % workload)


def inputs_digest(items: List[Item]) -> str:
    """One digest over a workload's traces, in order."""
    return combine_digests(
        "%06d:%s" % (i, item.digest) for i, item in enumerate(items)
    )
