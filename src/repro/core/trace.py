"""Execution traces and their derived metadata.

An :class:`ExecutionTrace` is the unit of analysis: an ordered sequence of
:class:`~repro.core.operations.Operation` together with indices that the
happens-before engine (Figures 6 and 7 of the paper) and the race classifier
(§4.3) need:

* per-thread: positions of ``attachQ`` and ``loopOnQ``;
* per-task: the unique ``post``/``begin``/``end`` positions, the executing
  thread, the posting operation, delay, and the *post chain* leading to it;
* the ``task(α)`` helper of the paper — the asynchronous task whose handler
  executed operation ``α`` (``None`` outside any task).

The paper assumes each procedure occurs at most once per trace (distinct
occurrences are renamed apart).  We keep that invariant: task names in a
trace are unique instance names; :class:`TraceBuilder` provides renaming
for convenience when encoding traces by hand.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import warnings
from json.encoder import encode_basestring_ascii as _json_str
from typing import Dict, IO, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .operations import MalformedOperationError, OpKind, Operation

_ATTACH_Q = OpKind.ATTACH_Q
_LOOP_ON_Q = OpKind.LOOP_ON_Q
_POST = OpKind.POST
_BEGIN = OpKind.BEGIN
#: Op kinds that update the per-thread / per-task indices on ingest.
_STRUCTURAL_OPS = frozenset({_ATTACH_Q, _LOOP_ON_Q, _POST, _BEGIN, OpKind.END})


class InvalidTraceError(ValueError):
    """Raised when a sequence of operations is not a well-formed trace."""


class TraceFormatError(InvalidTraceError):
    """A JSONL trace record could not be parsed.

    Carries the 1-based ``line_number`` of the offending record and the
    underlying ``reason`` so batch tooling can report *which* line of
    *which* file is broken instead of an opaque ``KeyError``.
    """

    def __init__(self, line_number: int, reason: str, line: str = ""):
        self.line_number = line_number
        self.reason = reason
        self.line = line
        shown = line.strip()
        if len(shown) > 80:
            shown = shown[:77] + "..."
        message = "line %d: %s" % (line_number, reason)
        if shown:
            message += " in %r" % shown
        super().__init__(message)


class TaskInfo:
    """Metadata for one asynchronous task instance appearing in a trace."""

    __slots__ = (
        "name",
        "post_index",
        "begin_index",
        "end_index",
        "thread",
        "poster_thread",
        "delay",
        "at_front",
        "event",
        "posted_in_task",
    )

    def __init__(self, name: str):
        self.name = name
        self.post_index: Optional[int] = None
        self.begin_index: Optional[int] = None
        self.end_index: Optional[int] = None
        self.thread: Optional[str] = None  # thread the task runs on
        self.poster_thread: Optional[str] = None
        self.delay: Optional[int] = None
        self.at_front: bool = False
        self.event: Optional[str] = None
        self.posted_in_task: Optional[str] = None  # task containing the post

    @property
    def is_delayed(self) -> bool:
        return bool(self.delay)

    @property
    def is_event(self) -> bool:
        return self.event is not None

    def __repr__(self) -> str:
        return "TaskInfo(%s on %s, post=%s begin=%s end=%s)" % (
            self.name,
            self.thread,
            self.post_index,
            self.begin_index,
            self.end_index,
        )


class ExecutionTrace:
    """An immutable, validated execution trace with derived metadata."""

    def __init__(self, operations: Iterable[Operation], name: str = "trace"):
        self.name = name
        self.ops: List[Operation] = []
        self.tasks: Dict[str, TaskInfo] = {}
        self.loop_index: Dict[str, int] = {}  # thread -> index of loopOnQ
        self.attach_index: Dict[str, int] = {}  # thread -> index of attachQ
        self.threads: List[str] = []
        self._thread_set: set = set()
        self._in_task: List[Optional[str]] = []
        self._jsonl: Optional[str] = None  # canonical text, built on demand
        self._digest: Optional[str] = None
        self._ingest(operations)

    # -- construction -------------------------------------------------------

    def _ingest(self, operations: Iterable[Operation]) -> None:
        """Validate the trace structure and derive the per-thread and
        per-task indices in one pass.

        An operation already carrying its position is kept as is; any other
        is re-positioned with :meth:`Operation.with_index` (no second
        validation).  A task still running when the trace was cut short is
        tolerated: the HB rules only need its ``begin``.
        """
        ops = self.ops
        in_task_of = self._in_task
        thread_set = self._thread_set
        current_task: Dict[str, Optional[str]] = {}
        for op in operations:
            index = len(ops)
            if op.index != index:
                op = op.with_index(index)
            t = op.thread
            kind = op.kind
            if t not in thread_set:
                thread_set.add(t)
                self.threads.append(t)
                current_task[t] = None
            in_task = current_task[t]

            if kind not in _STRUCTURAL_OPS:
                pass  # accesses, locks, fork/join...: nothing to index
            elif kind is _ATTACH_Q:
                if t in self.attach_index:
                    raise InvalidTraceError(
                        "thread %s attaches a queue twice (ops %d, %d)"
                        % (t, self.attach_index[t], index)
                    )
                self.attach_index[t] = index
            elif kind is _LOOP_ON_Q:
                if t in self.loop_index:
                    raise InvalidTraceError(
                        "thread %s loops on its queue twice (ops %d, %d)"
                        % (t, self.loop_index[t], index)
                    )
                if t not in self.attach_index:
                    raise InvalidTraceError(
                        "thread %s loops on a queue it never attached" % t
                    )
                self.loop_index[t] = index
            elif kind is _POST:
                info = self._task(op.task)
                if info.post_index is not None:
                    raise InvalidTraceError(
                        "task %s posted twice (ops %d, %d); task instance "
                        "names must be unique" % (op.task, info.post_index, index)
                    )
                info.post_index = index
                info.poster_thread = t
                info.thread = op.target
                info.delay = op.delay
                info.at_front = op.at_front
                info.event = op.event
                info.posted_in_task = in_task
            elif kind is _BEGIN:
                info = self._task(op.task)
                if info.begin_index is not None:
                    raise InvalidTraceError("task %s begins twice" % op.task)
                if in_task is not None:
                    raise InvalidTraceError(
                        "task %s begins inside task %s on thread %s: tasks "
                        "run to completion" % (op.task, in_task, t)
                    )
                info.begin_index = index
                if info.thread is None:
                    info.thread = t
                elif info.thread != t:
                    raise InvalidTraceError(
                        "task %s was posted to %s but begins on %s"
                        % (op.task, info.thread, t)
                    )
                # begin/end ops belong to the task they bracket.
                in_task = current_task[t] = op.task
            else:  # END
                info = self._task(op.task)
                if in_task != op.task:
                    raise InvalidTraceError(
                        "end(%s) on thread %s does not match the running "
                        "task %s" % (op.task, t, in_task)
                    )
                info.end_index = index
                current_task[t] = None

            if op.in_task is not None and op.in_task != in_task:
                raise InvalidTraceError(
                    "op %d declares in_task=%s but trace structure implies %s"
                    % (index, op.in_task, in_task)
                )
            in_task_of.append(in_task)
            ops.append(op)

    def _task(self, name: str) -> TaskInfo:
        info = self.tasks.get(name)
        if info is None:
            info = TaskInfo(name)
            self.tasks[name] = info
        return info

    # -- the paper's helper functions ---------------------------------------

    def thread_of(self, index: int) -> str:
        """``thread(α)`` — the thread executing operation ``index``."""
        return self.ops[index].thread

    def task_of(self, index: int) -> Optional[Tuple[str, str]]:
        """``task(α)`` — (thread, task) pair for operations executed inside
        an asynchronous task, else ``None``."""
        name = self._in_task[index]
        if name is None:
            return None
        return (self.ops[index].thread, name)

    def task_name_of(self, index: int) -> Optional[str]:
        return self._in_task[index]

    def looped_before(self, thread: str, index: int) -> bool:
        """True iff ``loopOnQ(thread)`` occurs before position ``index``
        (premise of NO-Q-PO vs ASYNC-PO, Figure 6)."""
        loop = self.loop_index.get(thread)
        return loop is not None and loop < index

    def post_chain(self, index: int) -> List[int]:
        """``chain(α)`` of §4.3 — indices of the maximal chain of post
        operations ``β1 … βm`` with ``callee(βj) = task(βj+1)`` and
        ``callee(βm) = task(α)``, oldest first."""
        chain: List[int] = []
        task_name = self._in_task[index]
        seen = set()
        while task_name is not None and task_name not in seen:
            seen.add(task_name)
            info = self.tasks.get(task_name)
            if info is None or info.post_index is None:
                break
            chain.append(info.post_index)
            task_name = info.posted_in_task
        chain.reverse()
        return chain

    # -- views ---------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self) -> Iterator[Operation]:
        return iter(self.ops)

    def __getitem__(self, index: int) -> Operation:
        return self.ops[index]

    def memory_accesses(self) -> Iterator[Operation]:
        return (op for op in self.ops if op.is_memory_access)

    def locations(self) -> List[str]:
        seen: Dict[str, None] = {}
        for op in self.ops:
            if op.is_memory_access and op.location not in seen:
                seen[op.location] = None
        return list(seen)

    def fields(self) -> List[str]:
        """Distinct *fields*: the paper reports a field of a class once even
        if accessed through many objects.  Our locations are ``object.field``
        strings; the field identity is ``Class.field``."""
        seen: Dict[str, None] = {}
        for loc in self.locations():
            seen[field_of_location(loc)] = None
        return list(seen)

    def threads_with_queue(self) -> List[str]:
        return [t for t in self.threads if t in self.attach_index]

    def threads_without_queue(self) -> List[str]:
        return [t for t in self.threads if t not in self.attach_index]

    def async_task_count(self) -> int:
        return sum(1 for info in self.tasks.values() if info.begin_index is not None)

    def without_cancelled_posts(self, cancelled: Iterable[str]) -> "ExecutionTrace":
        """Return a trace with the posts of cancelled tasks removed (§4.2:
        'The cancellation of posted tasks is handled by removing the
        corresponding post operations from the trace')."""
        gone = set(cancelled)
        kept = [
            op
            for op in self.ops
            if not (op.kind is OpKind.POST and op.task in gone)
        ]
        return ExecutionTrace(kept, name=self.name)

    # -- (de)serialization ----------------------------------------------------

    def to_jsonl(self) -> str:
        """Canonical JSONL serialization: one record per operation, keys
        sorted, no trace name — byte-identical for equal operation
        sequences, which is what :meth:`canonical_digest` keys on.

        Each line equals ``json.dumps(operation_to_record(op),
        sort_keys=True)``.  The text is built once per trace and shared by
        the digest and every writer (store ingest, ``--save-trace``).
        """
        if self._jsonl is None:
            self._jsonl = "\n".join([_canonical_line(op) for op in self.ops]) + "\n"
        return self._jsonl

    def canonical_digest(self) -> str:
        """SHA-256 hex digest of the canonical serialization.

        Content-addressed identity for trace stores and result caches:
        two traces with the same operations share a digest regardless of
        their (display) names.
        """
        if self._digest is None:
            self._digest = hashlib.sha256(self.to_jsonl().encode("utf-8")).hexdigest()
        return self._digest

    @classmethod
    def from_jsonl(
        cls, text: str, name: str = "trace", strict: bool = True
    ) -> "ExecutionTrace":
        return cls.from_lines(text.splitlines(), name=name, strict=strict)

    @classmethod
    def from_lines(
        cls, lines: Iterable[str], name: str = "trace", strict: bool = True
    ) -> "ExecutionTrace":
        """Build a trace from an iterable of JSONL lines (streaming — a
        file handle works and is never read into memory at once).

        With ``strict=True`` (default) a malformed record raises
        :class:`TraceFormatError` naming the offending line; with
        ``strict=False`` bad lines are skipped with a warning — the mode
        corpus batch analysis uses so one broken record degrades one
        trace instead of failing a batch.
        """
        ops: List[Operation] = []
        for line_number, line in enumerate(lines, start=1):
            stripped = line.strip()
            if not stripped or stripped[0] == "#":
                continue
            try:
                # Built once, at its final position: ExecutionTrace keeps it.
                ops.append(operation_from_record(_json_record(stripped), len(ops)))
            except (ValueError, KeyError, TypeError) as exc:
                error = TraceFormatError(line_number, _format_reason(exc), stripped)
                if strict:
                    raise error from exc
                warnings.warn("skipping bad trace record: %s" % error, stacklevel=2)
        return cls(ops, name=name)

    @classmethod
    def load(
        cls,
        path: Union[str, "os.PathLike[str]"],
        name: Optional[str] = None,
        strict: bool = True,
    ) -> "ExecutionTrace":
        """Stream a JSONL trace file from disk."""
        from repro.obs import current_tracer

        with current_tracer().span("trace.load", path=str(path)) as span:
            with open(path, "r", encoding="utf-8") as handle:
                trace = cls.from_lines(handle, name=name or str(path), strict=strict)
            span.set(ops=len(trace))
            return trace

    def render(self) -> str:
        """Human-readable rendering in the style of the paper's Figure 3."""
        width = max((len(t) for t in self.threads), default=4)
        lines = []
        for op in self.ops:
            pad = " " * (4 * self.threads.index(op.thread))
            lines.append("%4d  %s%s" % (op.index + 1, pad.ljust(width), op.render()))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "ExecutionTrace(%s, %d ops, %d threads, %d tasks)" % (
            self.name,
            len(self.ops),
            len(self.threads),
            len(self.tasks),
        )


#: Optional operation fields serialized when present, in record order.
_RECORD_FIELDS = ("task", "target", "lock", "location", "delay", "event", "source")

#: Name-valued record fields, interned on load: a parsed trace holds one
#: string object per distinct thread, task, lock, and location.
_NAME_FIELDS = ("thread", "task", "target", "lock", "location")

_KIND_OF_VALUE = {kind.value: kind for kind in OpKind}
_intern = sys.intern


def operation_to_record(op: Operation) -> dict:
    """The JSON-serializable record of one operation (canonical form:
    ``kind``/``thread`` always present, optional fields only when set)."""
    rec = {"kind": op.kind.value, "thread": op.thread}
    for key in _RECORD_FIELDS:
        value = getattr(op, key)
        if value is not None:
            rec[key] = value
    if op.at_front:
        rec["at_front"] = True
    return rec


_scan_json = json.JSONDecoder().scan_once


def _json_record(text: str):
    """``json.loads(text)`` for a stripped line, calling the decoder's C
    scanner directly: ``json.loads`` wraps the same scan in Python-level
    checks that cost about as much as the scan itself on a one-record
    line.  Anything but one complete value falls back to ``json.loads``,
    which raises its usual error."""
    try:
        value, end = _scan_json(text, 0)
    except StopIteration:
        end = -1
    if end != len(text):
        return json.loads(text)
    return value


def _json_value(value) -> str:
    """``json.dumps(value, sort_keys=True)``, with the two common cases
    (names and integer delays) done without the encoder's set-up cost."""
    if type(value) is str:
        return _json_str(value)
    if type(value) is int:
        return int.__repr__(value)
    return json.dumps(value, sort_keys=True)


def _canonical_line(op: Operation) -> str:
    """``json.dumps(operation_to_record(op), sort_keys=True)``, written
    out: the keys below are in sorted order and the separators are
    ``json.dumps``'s defaults."""
    parts = []
    if op.at_front:
        parts.append('"at_front": true')
    if op.delay is not None:
        parts.append('"delay": ' + _json_value(op.delay))
    if op.event is not None:
        parts.append('"event": ' + _json_value(op.event))
    parts.append('"kind": "%s"' % op.kind.value)
    if op.location is not None:
        parts.append('"location": ' + _json_value(op.location))
    if op.lock is not None:
        parts.append('"lock": ' + _json_value(op.lock))
    if op.source is not None:
        parts.append('"source": ' + _json_value(op.source))
    if op.target is not None:
        parts.append('"target": ' + _json_value(op.target))
    if op.task is not None:
        parts.append('"task": ' + _json_value(op.task))
    parts.append('"thread": ' + _json_value(op.thread))
    return "{" + ", ".join(parts) + "}"


def operation_from_record(rec: dict, index: Optional[int] = None) -> Operation:
    """Inverse of :func:`operation_to_record`.

    ``index`` places the operation at its trace position (overriding any
    ``index`` key in the record); readers pass it so each operation is
    built exactly once.  Raises ``ValueError`` with a meaningful message
    for records missing required keys or naming unknown op kinds (instead
    of a bare ``KeyError``).
    """
    if not isinstance(rec, dict):
        raise ValueError("record is not a JSON object: %r" % (rec,))
    fields = dict(rec)
    try:
        kind_value = fields.pop("kind")
    except KeyError:
        raise ValueError("record is missing the 'kind' field")
    kind = _KIND_OF_VALUE.get(kind_value) if type(kind_value) is str else None
    if kind is None:
        raise ValueError(
            "unknown op kind %r (expected one of: %s)"
            % (kind_value, ", ".join(k.value for k in OpKind))
        )
    if "thread" not in fields:
        raise ValueError("record is missing the 'thread' field")
    for key in _NAME_FIELDS:
        value = fields.get(key)
        if type(value) is str:
            fields[key] = _intern(value)
    if index is not None:
        fields["index"] = index
    try:
        return Operation(kind, **fields)
    except TypeError as exc:
        raise ValueError("bad operation field: %s" % exc)


def _format_reason(exc: BaseException) -> str:
    if isinstance(exc, json.JSONDecodeError):
        return "invalid JSON (%s)" % exc.msg
    if isinstance(exc, MalformedOperationError):
        return "malformed operation (%s)" % exc
    return str(exc) or exc.__class__.__name__


def field_of_location(location: str) -> str:
    """Map a memory-location name ``Class@instance.field`` (or
    ``object.field``) to its field identity ``Class.field``."""
    if "." in location:
        obj, _, fld = location.rpartition(".")
        cls = obj.split("@", 1)[0]
        return "%s.%s" % (cls, fld)
    return location


class TraceBuilder:
    """Incremental trace construction with task-instance renaming.

    Hand-encoded traces (tests, examples reproducing the paper's Figures 3
    and 4) use this builder; the simulated runtime builds operations itself
    through :class:`repro.android.env.AndroidEnv`.
    """

    def __init__(self, name: str = "trace"):
        self.name = name
        self._ops: List[Operation] = []
        self._task_instances: Dict[str, int] = {}

    def add(self, op: Operation) -> Operation:
        op = op.with_index(len(self._ops))
        self._ops.append(op)
        return op

    def extend(self, ops: Sequence[Operation]) -> None:
        for op in ops:
            self.add(op)

    def unique_task(self, base: str) -> str:
        """Return a fresh task-instance name for procedure ``base``
        (``base``, ``base#2``, ``base#3``, …)."""
        n = self._task_instances.get(base, 0) + 1
        self._task_instances[base] = n
        return base if n == 1 else "%s#%d" % (base, n)

    def build(self) -> ExecutionTrace:
        return ExecutionTrace(self._ops, name=self.name)

    def __len__(self) -> int:
        return len(self._ops)
