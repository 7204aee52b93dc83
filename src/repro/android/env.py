"""The simulated Android runtime environment and Trace Generator.

:class:`AndroidEnv` plays the role of the instrumented Dalvik VM +
Android libraries in the paper's tool: it schedules simulated threads,
manages looper message queues, and logs every concurrency-relevant action
as a core-language operation (Table 1).  The result of a run is an
:class:`~repro.core.trace.ExecutionTrace` that the offline Race Detector
analyses — exactly the paper's pipeline, with the Android emulator
replaced by a deterministic discrete-step simulator.

Determinism and replay
----------------------
A run is fully determined by (policy, injected events).  The environment
records every scheduling decision; :class:`~repro.android.scheduler.ReplayPolicy`
reproduces a run exactly — the capability DroidRacer's UI Explorer needs
for backtracking (§5).

Application programming model
-----------------------------
Application code receives a :class:`Ctx` — its window into the runtime:

* ``ctx.read(obj, "field")`` / ``ctx.write(obj, "field", v)`` — instrumented
  accesses to :class:`~repro.android.memory.SharedObject` fields;
* ``ctx.post(cb, ...)``, ``ctx.post_delayed``, ``ctx.post_at_front`` —
  asynchronous calls to looper threads;
* ``ctx.fork(entry)`` / ``yield ctx.join(t)`` — threading;
* ``yield ctx.acquire(lock)`` / ``ctx.release(lock)`` — monitors (blocking
  operations are *yielded* so the scheduler can park the thread);
* a bare ``yield`` — a preemption point (only generator callbacks are
  preemptible; plain callables run atomically).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Sequence, Set, Union

from repro.core.operations import (
    Operation,
    acquire as op_acquire,
    attachq as op_attachq,
    begin as op_begin,
    enable as op_enable,
    end as op_end,
    fork as op_fork,
    join as op_join,
    looponq as op_looponq,
    post as op_post,
    read as op_read,
    release as op_release,
    threadexit as op_threadexit,
    threadinit as op_threadinit,
    write as op_write,
)
from repro.core.trace import ExecutionTrace

from .errors import (
    AppCrashError,
    DeadlockError,
    PendingCommandError,
    SchedulerError,
    ThreadAPIError,
)
from .ids import IdAllocator
from .locks import Lock
from .message_queue import Message, MessageQueue
from .scheduler import RoundRobinPolicy, SchedulePolicy
from .threads import (
    Acquire,
    Command,
    Frame,
    Join,
    SimThread,
    ThreadState,
    WaitUntil,
    as_generator,
)


def looper_entry(ctx: "Ctx"):
    """Standard entry of a looper thread (HandlerThread.run): attach a task
    queue and loop on it."""
    ctx.attach_queue()
    ctx.loop()


def invoke(fn: Callable, *args, **kwargs):
    """Drive a callback that may be a plain callable or a generator
    function: ``yield from invoke(cb, ctx)`` inside framework code."""
    result = fn(*args, **kwargs)
    gen = as_generator(result)
    if gen is not None:
        yield from gen


class Ctx:
    """Per-thread application API (the 'this thread' handle)."""

    def __init__(self, env: "AndroidEnv", thread: SimThread):
        self.env = env
        self.thread = thread

    # -- instrumented memory ---------------------------------------------------

    def read(self, obj, field: str):
        """Instrumented field read (logs a ``read`` operation)."""
        self.env._log(op_read, self.thread.name, location=obj.location_of(field))
        return obj.raw_read(field)

    def write(self, obj, field: str, value) -> None:
        """Instrumented field write (logs a ``write`` operation)."""
        self.env._log(op_write, self.thread.name, location=obj.location_of(field))
        obj.raw_write(field, value)

    def read_silent(self, obj, field: str):
        """Untracked access — models reads from native (C/C++) code that
        the Trace Generator cannot see (§6, false negatives)."""
        return obj.raw_read(field)

    def write_silent(self, obj, field: str, value) -> None:
        obj.raw_write(field, value)

    # -- asynchronous calls ------------------------------------------------------

    def post(
        self,
        callback: Callable,
        name: str = "task",
        to: Optional[SimThread] = None,
        event: Optional[str] = None,
    ) -> Message:
        return self.env.post_message(
            self.thread, to or self.env.main, callback, name, event=event
        )

    def post_delayed(
        self,
        callback: Callable,
        delay: int,
        name: str = "task",
        to: Optional[SimThread] = None,
        event: Optional[str] = None,
    ) -> Message:
        return self.env.post_message(
            self.thread, to or self.env.main, callback, name, delay=delay, event=event
        )

    def post_at_front(
        self,
        callback: Callable,
        name: str = "task",
        to: Optional[SimThread] = None,
        event: Optional[str] = None,
    ) -> Message:
        return self.env.post_message(
            self.thread, to or self.env.main, callback, name, at_front=True, event=event
        )

    def cancel(self, message: Message) -> bool:
        return self.env.cancel_message(message)

    # -- threads ---------------------------------------------------------------

    def fork(
        self,
        entry: Callable,
        name: Optional[str] = None,
        untracked: bool = False,
    ) -> SimThread:
        return self.env.fork_thread(self.thread, entry, name=name, untracked=untracked)

    def join(self, thread: SimThread) -> Join:
        """Blocking: ``yield ctx.join(t)``."""
        return self.env._make_command(self.thread, Join(thread))

    def wait_until(self, predicate: Callable[[], bool], reason: str = "") -> WaitUntil:
        """Blocking: ``yield ctx.wait_until(pred)`` — untraced framework
        synchronization (no operation is logged)."""
        return self.env._make_command(self.thread, WaitUntil(predicate, reason))

    # -- locks -------------------------------------------------------------------

    def acquire(self, lock: Lock) -> Acquire:
        """Blocking: ``yield ctx.acquire(lock)``."""
        return self.env._make_command(self.thread, Acquire(lock))

    def release(self, lock: Lock) -> None:
        self.env.release_lock(self.thread, lock)

    # -- runtime-environment modeling ----------------------------------------------

    def enable(self, name: str) -> None:
        """Emit an ``enable`` operation (framework modeling, §4.2)."""
        self.env._log(op_enable, self.thread.name, task=name)

    # -- looper plumbing (thread entries) ----------------------------------------

    def attach_queue(self) -> None:
        self.env.attach_queue(self.thread)

    def loop(self) -> None:
        self.env.loop(self.thread)

    def __repr__(self) -> str:
        return "Ctx(%s)" % self.thread.name


class AndroidEnv:
    """One application process: threads, queues, locks, virtual clock and
    the generated trace."""

    def __init__(
        self,
        policy: Optional[SchedulePolicy] = None,
        name: str = "app",
        main_thread: str = "main",
    ):
        self.name = name
        self.ids = IdAllocator()
        self.policy = policy or RoundRobinPolicy()
        self.clock = 0
        self.steps = 0
        self.threads: Dict[str, SimThread] = {}
        self.ops: List[Operation] = []
        self.decisions: List[str] = []
        self.cancelled_tasks: Set[str] = set()
        self._seq = 0
        self._pending_command: Optional[Command] = None
        self._crash: Optional[AppCrashError] = None
        self._current: Optional[SimThread] = None
        # The main thread is framework-created; its entry attaches the task
        # queue and starts the loop (steps 1–3 of Figure 2), so the attachQ
        # and loopOnQ operations appear in the trace like any other.
        self.main = self.add_thread(main_thread, entry=looper_entry, role="main")

    # -- thread management ---------------------------------------------------------

    def add_thread(
        self,
        name: Optional[str] = None,
        entry: Optional[Callable] = None,
        role: str = "background",
        untracked: bool = False,
    ) -> SimThread:
        """Admit a framework-created thread (the paper's ``Threads`` set).
        Requested names are uniquified on collision (thread ids must be
        fresh, Figure 5's FORK rule)."""
        name = name or self.ids.alloc(role)
        if name in self.threads:
            name = self.ids.alloc(name)
            while name in self.threads:
                name = self.ids.alloc(name)
        thread = SimThread(name, entry)
        thread.role = role
        thread.untracked = untracked
        self.threads[name] = thread
        return thread

    def fork_thread(
        self,
        parent: SimThread,
        entry: Callable,
        name: Optional[str] = None,
        untracked: bool = False,
    ) -> SimThread:
        child = self.add_thread(name or self.ids.alloc("bg"), entry, untracked=untracked)
        if not untracked:
            # Untracked threads model natively-created threads whose fork
            # the Trace Generator cannot observe (§6) — no fork op, hence
            # no FORK happens-before edge.
            self._log(op_fork, parent.name, child.name)
        return child

    def ctx(self, thread: Union[SimThread, str]) -> Ctx:
        if isinstance(thread, str):
            thread = self.threads[thread]
        return Ctx(self, thread)

    @property
    def main_ctx(self) -> Ctx:
        return self.ctx(self.main)

    @property
    def current_ctx(self) -> Ctx:
        """Ctx of the thread currently being advanced by the scheduler —
        what a posted callback should use to attribute its operations."""
        if self._current is None:
            raise SchedulerError("no thread is currently executing")
        return self.ctx(self._current)

    # -- looper plumbing --------------------------------------------------------------

    def attach_queue(self, thread: SimThread) -> None:
        if thread.has_queue:
            raise ThreadAPIError("thread %s already has a queue" % thread.name)
        thread.queue = MessageQueue(thread.name)
        self._log(op_attachq, thread.name)

    def loop(self, thread: SimThread) -> None:
        if not thread.has_queue:
            raise ThreadAPIError("thread %s has no queue to loop on" % thread.name)
        if thread.looping:
            raise ThreadAPIError("thread %s is already looping" % thread.name)
        thread.looping = True
        self._log(op_looponq, thread.name)

    def ensure_looper_ready(self, thread: SimThread) -> None:
        """Bring a freshly-created looper thread up to its loop immediately
        (framework-internal; equivalent to the scheduler having run the
        thread first).  Lets plain (non-generator) callbacks post to a
        looper they just created — the serial-executor bootstrap."""
        if thread.state is ThreadState.NEW:
            self._advance(thread)
        guard = 0
        while thread.alive and not thread.looping and thread.frames:
            self._advance_frame(thread)
            guard += 1
            if guard > 1000:
                raise SchedulerError(
                    "thread %s did not reach its loop" % thread.name
                )

    def run_until(self, condition: Callable[[], bool], max_steps: int = 100_000) -> None:
        """Step until ``condition()`` holds; errors if quiescence or the
        step budget is reached first."""
        for _ in range(max_steps):
            if condition():
                return
            if not self.step():
                raise SchedulerError("quiescent before condition held")
        raise SchedulerError("condition not reached within %d steps" % max_steps)

    # -- posting ----------------------------------------------------------------------

    def post_message(
        self,
        poster: SimThread,
        target: SimThread,
        callback: Callable,
        base_name: str,
        delay: Optional[int] = None,
        at_front: bool = False,
        event: Optional[str] = None,
    ) -> Message:
        if not target.has_queue:
            raise ThreadAPIError(
                "thread %s has no task queue (attachQ first)" % target.name
            )
        if not poster.alive:
            raise ThreadAPIError("posting thread %s is not alive" % poster.name)
        if at_front and delay:
            raise ThreadAPIError(
                "postAtFrontOfQueue takes no delay (Android has no such API)"
            )
        task = self.ids.alloc_instance(base_name)
        self._seq += 1
        self._log(
            op_post,
            poster.name,
            task,
            target.name,
            delay=delay,
            at_front=at_front,
            event=event,
        )
        message = Message(
            task=task,
            callback=callback,
            target=target.name,
            posted_by=poster.name,
            when=self.clock + (delay or 0),
            seq=self._seq,
            delay=delay,
            at_front=at_front,
            event=event,
            post_index=len(self.ops) - 1,
        )
        target.queue.enqueue(message)
        return message

    def cancel_message(self, message: Message) -> bool:
        target = self.threads.get(message.target)
        if target is None or not target.has_queue:
            return False
        if target.queue.cancel(message.task):
            self.cancelled_tasks.add(message.task)
            return True
        return False

    # -- locks ------------------------------------------------------------------------

    def new_lock(self, name: Optional[str] = None) -> Lock:
        return Lock(name or self.ids.alloc("lock"))

    def release_lock(self, thread: SimThread, lock: Lock) -> None:
        lock.release(thread.name)
        if lock.depth == 0 and lock in thread.held_locks:
            thread.held_locks.remove(lock)
        self._log(op_release, thread.name, lock=lock.name)

    def _make_command(self, thread: SimThread, command: Command) -> Command:
        if self._pending_command is not None:
            raise PendingCommandError(
                "previous blocking command %r was never yielded" % self._pending_command
            )
        self._pending_command = command
        return command

    # -- trace ------------------------------------------------------------------------

    def _log(self, factory: Callable[..., Operation], *args, **fields) -> None:
        """Append ``factory(*args, **fields)`` built at its final trace
        position, so :meth:`build_trace` keeps every operation as is."""
        self.ops.append(factory(*args, index=len(self.ops), **fields))

    def build_trace(self, name: Optional[str] = None) -> ExecutionTrace:
        """Finalize the run into an analysable trace.  Posts of tasks that
        were cancelled while still pending are removed (§4.2)."""
        trace = ExecutionTrace(self.ops, name=name or self.name)
        if self.cancelled_tasks:
            trace = trace.without_cancelled_posts(self.cancelled_tasks)
        return trace

    # -- scheduling ---------------------------------------------------------------------

    def ready_threads(self) -> List[SimThread]:
        ready = []
        for thread in self.threads.values():
            if self._is_ready(thread):
                ready.append(thread)
        return ready

    def _is_ready(self, thread: SimThread) -> bool:
        if thread.state is ThreadState.NEW:
            return True
        if thread.state is ThreadState.BLOCKED:
            return self._command_ready(thread, thread.blocked_on)
        if thread.state is not ThreadState.RUNNABLE:
            return False
        if thread.frames or thread.actions:
            return True
        if thread.looping and thread.queue is not None:
            if thread.queue.eligible(self.clock) is not None:
                return True
            # Idle handlers fire when the queue has nothing to deliver.
            return bool(thread.idle_handlers) and thread.queue.next_wakeup() is None
        return False

    def _command_ready(self, thread: SimThread, command: Optional[Command]) -> bool:
        if isinstance(command, Acquire):
            return command.lock.available_to(thread.name)
        if isinstance(command, Join):
            return command.thread.state is ThreadState.FINISHED
        if isinstance(command, WaitUntil):
            return bool(command.predicate())
        return False

    def step(self) -> bool:
        """Execute one scheduling step; False when quiescent."""
        if self._crash is not None:
            raise self._crash
        ready = self.ready_threads()
        if not ready:
            if self._advance_clock():
                ready = self.ready_threads()
            if not ready:
                self._check_deadlock()
                return False
        names = sorted(thread.name for thread in ready)
        pick = self.policy.choose(names)
        if pick not in names:
            raise SchedulerError("policy chose non-ready thread %s" % pick)
        self.decisions.append(pick)
        thread = self.threads[pick]
        self._current = thread
        try:
            self._advance(thread)
        finally:
            self._current = None
        self.steps += 1
        return True

    def run(self, max_steps: int = 2_000_000) -> int:
        """Run until quiescent; returns the number of steps taken."""
        taken = 0
        while self.step():
            taken += 1
            if taken >= max_steps:
                raise SchedulerError(
                    "exceeded %d steps; runaway application loop?" % max_steps
                )
        return taken

    def _advance_clock(self) -> bool:
        wakeups = []
        for thread in self.threads.values():
            if thread.queue is not None and thread.looping and thread.alive:
                wakeup = thread.queue.next_wakeup()
                if wakeup is not None and wakeup > self.clock:
                    wakeups.append(wakeup)
        if not wakeups:
            return False
        self.clock = min(wakeups)
        return True

    def _check_deadlock(self) -> None:
        blocked = [
            thread.name
            for thread in self.threads.values()
            if thread.state is ThreadState.BLOCKED
        ]
        if blocked:
            raise DeadlockError(
                "threads blocked with no possible waker: %s" % ", ".join(blocked)
            )

    # -- the per-thread step -----------------------------------------------------------

    def _advance(self, thread: SimThread) -> None:
        if thread.state is ThreadState.NEW:
            self._log(op_threadinit, thread.name)
            thread.state = ThreadState.RUNNABLE
            if thread.entry is not None:
                gen = invoke(thread.entry, self.ctx(thread))
                thread.push_frame(Frame(gen))
            return

        if thread.state is ThreadState.BLOCKED:
            self._complete_command(thread)
            return

        if thread.frames:
            self._advance_frame(thread)
            return

        if thread.actions:
            action = thread.actions.pop(0)
            action()
            return

        if thread.looping and thread.queue is not None:
            message = thread.queue.eligible(self.clock)
            if message is not None:
                self._begin_task(thread, thread.queue.dequeue(self.clock))
                return
            if thread.idle_handlers:
                base_name, callback, enable_name = thread.idle_handlers.pop(0)
                self.post_message(thread, thread, callback, base_name, event=enable_name)
                return

        raise SchedulerError("thread %s was scheduled but has no work" % thread.name)

    def _begin_task(self, thread: SimThread, message: Message) -> None:
        self._log(op_begin, thread.name, task=message.task)
        thread.current_task = message.task

        def on_done() -> None:
            self._log(op_end, thread.name, task=message.task)
            thread.current_task = None

        gen = invoke(message.callback)
        thread.push_frame(Frame(gen, task=message.task, on_done=on_done))

    def _advance_frame(self, thread: SimThread) -> None:
        frame = thread.top_frame()
        try:
            yielded = next(frame.gen)
        except StopIteration:
            thread.pop_frame()
            self._maybe_exit(thread)
            return
        except Exception as exc:  # application crash
            thread.pop_frame()
            crash = AppCrashError(thread.name, frame.task or "<entry>", exc)
            self._crash = crash
            raise crash
        if yielded is None:
            return  # plain preemption point
        if isinstance(yielded, Command):
            if self._pending_command is yielded:
                self._pending_command = None
            self._try_command(thread, yielded)
            return
        raise SchedulerError(
            "callback on %s yielded %r; expected None or a blocking command"
            % (thread.name, yielded)
        )

    def _try_command(self, thread: SimThread, command: Command) -> None:
        if self._command_ready(thread, command):
            self._finish_command(thread, command)
        else:
            thread.state = ThreadState.BLOCKED
            thread.blocked_on = command

    def _complete_command(self, thread: SimThread) -> None:
        command = thread.blocked_on
        if command is None or not self._command_ready(thread, command):
            raise SchedulerError(
                "blocked thread %s scheduled while command %r not ready"
                % (thread.name, command)
            )
        thread.state = ThreadState.RUNNABLE
        thread.blocked_on = None
        self._finish_command(thread, command)

    def _finish_command(self, thread: SimThread, command: Command) -> None:
        if isinstance(command, Acquire):
            command.lock.acquire(thread.name)
            if command.lock not in thread.held_locks:
                thread.held_locks.append(command.lock)
            self._log(op_acquire, thread.name, lock=command.lock.name)
        elif isinstance(command, Join):
            self._log(op_join, thread.name, command.thread.name)
        elif isinstance(command, WaitUntil):
            pass  # untraced framework synchronization
        else:
            raise SchedulerError("unknown command %r" % command)

    def _maybe_exit(self, thread: SimThread) -> None:
        if thread.frames or thread.actions or thread.looping:
            return
        if thread.held_locks and any(l.holder == thread.name for l in thread.held_locks):
            raise ThreadAPIError(
                "thread %s exited still holding locks" % thread.name
            )
        self._log(op_threadexit, thread.name)
        thread.state = ThreadState.FINISHED

    def shutdown(self) -> None:
        """Exit all idle looper/action threads so the trace is complete."""
        for thread in self.threads.values():
            if thread.state is ThreadState.NEW:
                # Never scheduled: drop silently (no threadinit logged).
                thread.state = ThreadState.FINISHED
                continue
            if thread.alive and thread.idle:
                self._log(op_threadexit, thread.name)
                thread.state = ThreadState.FINISHED

    # -- introspection -------------------------------------------------------------------

    def quiescent(self) -> bool:
        if self.ready_threads():
            return False
        return not any(
            thread.queue is not None
            and thread.looping
            and thread.alive
            and thread.queue.next_wakeup() is not None
            for thread in self.threads.values()
        )

    def __repr__(self) -> str:
        return "AndroidEnv(%s, %d threads, %d ops, clock=%d)" % (
            self.name,
            len(self.threads),
            len(self.ops),
            self.clock,
        )
