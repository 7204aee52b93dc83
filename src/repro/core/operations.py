"""Core trace language of the paper (Table 1).

An execution of an Android application is abstracted as a sequence of
*operations* drawn from a small core language.  Every operation names the
thread executing it; the remaining fields depend on the op-code:

==============  =====================================================
op-code         meaning
==============  =====================================================
threadinit      start executing the current thread
threadexit      complete executing the current thread
fork            create a new thread (``target``)
join            consume a completed thread (``target``)
attachQ         attach a task queue to the current thread
loopOnQ         begin executing tasks from the current thread's queue
post            post task ``task`` asynchronously to thread ``target``
begin           start executing the posted task ``task``
end             finish executing the posted task ``task``
acquire         acquire lock ``lock``
release         release lock ``lock``
read            read memory location ``location``
write           write memory location ``location``
enable          enable posting of task ``task``
==============  =====================================================

Posts additionally carry a ``delay`` (for ``postDelayed``, §4.2 of the
paper), an ``at_front`` flag (post-to-the-front, which the paper defers to
future work) and an ``event`` tag marking posts that inject *environmental
events* (UI events, lifecycle callbacks) — the tag is consumed by race
classification (§4.3).
"""

from __future__ import annotations

import enum
from collections import namedtuple
from typing import Optional


class OpKind(enum.Enum):
    """Op-codes of the core language (paper, Table 1)."""

    THREAD_INIT = "threadinit"
    THREAD_EXIT = "threadexit"
    FORK = "fork"
    JOIN = "join"
    ATTACH_Q = "attachQ"
    LOOP_ON_Q = "loopOnQ"
    POST = "post"
    BEGIN = "begin"
    END = "end"
    ACQUIRE = "acquire"
    RELEASE = "release"
    READ = "read"
    WRITE = "write"
    ENABLE = "enable"

    # Members are singletons that compare by identity, so identity hashing
    # agrees with equality.  It keeps every set/dict lookup keyed by an
    # op-code in C; Enum's own ``__hash__`` is a Python-level method.
    __hash__ = object.__hash__

    def __str__(self) -> str:
        return self.value


#: Op kinds that access memory.  Only these participate in data races.
MEMORY_OPS = frozenset({OpKind.READ, OpKind.WRITE})

#: Op kinds that carry a task name (asynchronous-call machinery).
TASK_OPS = frozenset({OpKind.POST, OpKind.BEGIN, OpKind.END, OpKind.ENABLE})

#: Op kinds that carry a lock.
LOCK_OPS = frozenset({OpKind.ACQUIRE, OpKind.RELEASE})

#: Op kinds that carry a target thread.
THREAD_TARGET_OPS = frozenset({OpKind.FORK, OpKind.JOIN, OpKind.POST})

#: Field order of an :class:`Operation` (its positional constructor order).
OPERATION_FIELDS = (
    "kind",
    "thread",
    "index",
    "task",
    "target",
    "lock",
    "location",
    "in_task",
    "delay",
    "at_front",
    "event",
    "source",  # free-form provenance (file:line, callback)
)

_POST = OpKind.POST
_WRITE = OpKind.WRITE
_READ = OpKind.READ
_tuple_new = tuple.__new__


class Operation(namedtuple("_OperationFields", OPERATION_FIELDS)):
    """One operation of an execution trace: an immutable, validated value.

    ``index`` is the position in the trace (assigned by
    :class:`repro.core.trace.ExecutionTrace`); ``task`` is the unique task
    instance this operation *refers to* (for post/begin/end/enable), while
    ``in_task`` is the task instance whose handler *executed* the operation
    (``None`` for operations outside any asynchronous task, e.g. before
    ``loopOnQ`` or on a thread without a queue).

    Operations are tuple-backed (no per-instance ``__dict__``), so a trace
    of N operations costs N small tuples; equal fields mean equal values
    with equal hashes.  Every constructor validates once — readers, the
    simulator, and :class:`~repro.core.trace.TraceBuilder` pass the final
    ``index`` in, or re-position an already-valid operation with
    :meth:`with_index`.
    """

    __slots__ = ()

    def __new__(
        cls,
        kind: OpKind,
        thread: str,
        index: int = -1,
        task: Optional[str] = None,
        target: Optional[str] = None,
        lock: Optional[str] = None,
        location: Optional[str] = None,
        in_task: Optional[str] = None,
        delay: Optional[int] = None,
        at_front: bool = False,
        event: Optional[str] = None,
        source: Optional[str] = None,
    ) -> "Operation":
        if not thread:
            raise MalformedOperationError("operation %s has no thread" % kind)
        if kind in MEMORY_OPS:  # most operations: one check
            if not location:
                raise MalformedOperationError("%s requires a memory location" % kind)
        else:
            if kind in TASK_OPS and not task:
                raise MalformedOperationError("%s requires a task" % kind)
            if kind in THREAD_TARGET_OPS and not target:
                raise MalformedOperationError("%s requires a target thread" % kind)
            if kind in LOCK_OPS and not lock:
                raise MalformedOperationError("%s requires a lock" % kind)
        if delay is not None:
            if kind is not _POST:
                raise MalformedOperationError("delay is only meaningful on post")
            if delay < 0:
                raise MalformedOperationError("negative post delay")
        if at_front and kind is not _POST:
            raise MalformedOperationError("at_front is only meaningful on post")
        return _tuple_new(
            cls,
            (
                kind,
                thread,
                index,
                task,
                target,
                lock,
                location,
                in_task,
                delay,
                at_front,
                event,
                source,
            ),
        )

    def with_index(self, index: int) -> "Operation":
        """This operation at trace position ``index``.  The fields were
        validated when the operation was built, so they are not checked
        again."""
        if self.index == index:
            return self
        return _tuple_new(Operation, self[:2] + (index,) + self[3:])

    def _replace(self, **changes) -> "Operation":
        # namedtuple's _replace bypasses __new__; keep every copy validated.
        return Operation(**dict(zip(OPERATION_FIELDS, self), **changes))

    # -- convenience predicates -------------------------------------------

    @property
    def is_memory_access(self) -> bool:
        return self.kind in MEMORY_OPS

    @property
    def is_write(self) -> bool:
        return self.kind is _WRITE

    @property
    def is_read(self) -> bool:
        return self.kind is _READ

    @property
    def is_delayed_post(self) -> bool:
        return self.kind is _POST and bool(self.delay)

    def conflicts_with(self, other: "Operation") -> bool:
        """Two operations *conflict* if they access the same memory location
        and at least one is a write (paper, §2.4)."""
        return (
            self.is_memory_access
            and other.is_memory_access
            and self.location == other.location
            and (self.is_write or other.is_write)
        )

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """Render in the paper's concrete syntax, e.g. ``post(t0,p,t1)``."""
        args = [self.thread]
        if self.kind in (OpKind.FORK, OpKind.JOIN):
            args.append(self.target or "?")
        elif self.kind is OpKind.POST:
            args.append(self.task or "?")
            args.append(self.target or "?")
            if self.delay:
                args.append("delay=%d" % self.delay)
            if self.at_front:
                args.append("at_front")
        elif self.kind in (OpKind.BEGIN, OpKind.END, OpKind.ENABLE):
            args.append(self.task or "?")
        elif self.kind in LOCK_OPS:
            args.append(self.lock or "?")
        elif self.kind in MEMORY_OPS:
            args.append(self.location or "?")
        return "%s(%s)" % (self.kind.value, ",".join(args))

    def __str__(self) -> str:
        return self.render()


class MalformedOperationError(ValueError):
    """Raised when an :class:`Operation` is constructed with missing or
    contradictory fields for its op-code."""


# -- constructors ------------------------------------------------------------
#
# Thin factories mirroring the paper's notation.  They keep call sites in the
# runtime and in hand-written traces close to the paper's syntax:
# ``post(t0, "LAUNCH_ACTIVITY", t1)``.


def threadinit(thread: str, **kw) -> Operation:
    return Operation(OpKind.THREAD_INIT, thread, **kw)


def threadexit(thread: str, **kw) -> Operation:
    return Operation(OpKind.THREAD_EXIT, thread, **kw)


def fork(thread: str, child: str, **kw) -> Operation:
    return Operation(OpKind.FORK, thread, target=child, **kw)


def join(thread: str, child: str, **kw) -> Operation:
    return Operation(OpKind.JOIN, thread, target=child, **kw)


def attachq(thread: str, **kw) -> Operation:
    return Operation(OpKind.ATTACH_Q, thread, **kw)


def looponq(thread: str, **kw) -> Operation:
    return Operation(OpKind.LOOP_ON_Q, thread, **kw)


def post(thread: str, task: str, target: str, **kw) -> Operation:
    return Operation(OpKind.POST, thread, task=task, target=target, **kw)


def begin(thread: str, task: str, **kw) -> Operation:
    return Operation(OpKind.BEGIN, thread, task=task, **kw)


def end(thread: str, task: str, **kw) -> Operation:
    return Operation(OpKind.END, thread, task=task, **kw)


def acquire(thread: str, lock: str, **kw) -> Operation:
    return Operation(OpKind.ACQUIRE, thread, lock=lock, **kw)


def release(thread: str, lock: str, **kw) -> Operation:
    return Operation(OpKind.RELEASE, thread, lock=lock, **kw)


def read(thread: str, location: str, **kw) -> Operation:
    return Operation(OpKind.READ, thread, location=location, **kw)


def write(thread: str, location: str, **kw) -> Operation:
    return Operation(OpKind.WRITE, thread, location=location, **kw)


def enable(thread: str, task: str, **kw) -> Operation:
    return Operation(OpKind.ENABLE, thread, task=task, **kw)
