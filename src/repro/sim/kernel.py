"""The simulation event loop.

:class:`Simulator` owns simulated time and the scheduled callbacks: a
priority queue for future instants plus a FIFO ready lane for zero-delay
hops. Everything else in the package — events, processes, busy-until
clocks, network links — ultimately reduces to ``schedule(delay, fn)``
calls against one Simulator instance.
"""

from __future__ import annotations

import collections
import heapq
import math
import typing

from repro.invariants.checker import NOOP_CHECKER
from repro.sim.events import Event, SimulationError, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry
from repro.trace.tracer import NOOP_TRACER

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.invariants.checker import InvariantChecker
    from repro.trace.tracer import Tracer


class TimerHandle:
    """A cancellable timer returned by :meth:`Simulator.schedule_cancellable`.

    Cancellation is O(1): the queue entry is tombstoned in place (its
    callback slot set to ``None``) and the dispatch loop pops-and-skips
    dead entries instead of dispatching a fire-and-check no-op. The entry
    keeps its ``(time, sequence)`` queue position, so sequence numbering,
    RNG draws and the order of live events are untouched — a run with
    cancellations stays byte-identical to one where the stale timers
    fired as no-ops.
    """

    __slots__ = ("_entry", "_callback", "_fired")

    def __init__(self, callback: typing.Callable[..., None]) -> None:
        self._callback = callback
        self._fired = False
        self._entry: list = []

    @property
    def active(self) -> bool:
        """Whether the timer is still pending (not fired, not cancelled)."""
        return not self._fired and self._entry[2] is not None

    def cancel(self) -> bool:
        """Tombstone the timer. Returns ``False`` if it already fired or
        was already cancelled (both are safe no-ops)."""
        if self._fired:
            return False
        entry = self._entry
        if entry[2] is None:
            return False
        entry[2] = None
        entry[3] = ()  # drop callback/argument refs promptly
        return True

    def _run(self, *args: object) -> None:
        self._fired = True
        self._callback(*args)


class Simulator:
    """A deterministic discrete-event simulator.

    Time is a float in seconds, starting at 0. Callbacks scheduled for the
    same instant run in schedule order (FIFO), which keeps runs fully
    deterministic for a fixed seed.

    Queue entries are ``[time, sequence, callback, args]`` lists numbered
    by one counter. Positive delays go to a binary heap; zero delays go
    to the ready lane, a deque whose entries all carry the current time
    in rising sequence order, so its head is its minimum. Dispatch pops
    the smaller ``(time, sequence)`` of the heap top and the lane head,
    which is exactly the order a single heap of every entry would give.

    Every simulator carries a tracer (:data:`NOOP_TRACER` unless
    :meth:`set_tracer` installs a live one); instrumented components read
    it via ``sim.tracer`` so a disabled trace layer costs one attribute
    check per hook.
    """

    def __init__(self, seed: int = 0) -> None:
        self._now = 0.0
        self._queue: list = []
        self._ready: collections.deque = collections.deque()
        self._sequence = 0
        self._running = False
        self.rng = RngRegistry(seed)
        self.tracer = NOOP_TRACER
        self.checker = NOOP_CHECKER

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def set_tracer(self, tracer: "Tracer") -> None:
        """Install a tracer and bind its clock to this simulator."""
        self.tracer = tracer
        tracer.bind_clock(lambda: self._now)

    def set_checker(self, checker: "InvariantChecker") -> None:
        """Install an invariant checker observing this simulator's run."""
        self.checker = checker

    def schedule(self, delay: float, callback: typing.Callable[..., None], *args: object) -> None:
        """Run ``callback(*args)`` after ``delay`` simulated seconds.

        Extra positional arguments ride on the queue entry, so hot-path
        callers (the network's per-message delivery) can schedule a
        bound method plus its operands instead of allocating a closure
        per event. Entries are 4-slot lists (not tuples) so cancellable
        timers can be tombstoned in place; queue order only ever compares
        the (time, sequence) prefix, and sequence is unique.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        if delay:
            heapq.heappush(self._queue, [self._now + delay, self._sequence, callback, args])
        else:
            self._ready.append([self._now, self._sequence, callback, args])

    def schedule_cancellable(
        self, delay: float, callback: typing.Callable[..., None], *args: object
    ) -> TimerHandle:
        """Like :meth:`schedule`, but returns a :class:`TimerHandle`.

        The handle's :meth:`~TimerHandle.cancel` tombstones the queue
        entry in O(1); the dispatch loop skips dead entries when they
        surface instead of dispatching them. Consensus engines use this
        for progress/view-change timers that are re-armed far more often
        than they fire.
        """
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        handle = TimerHandle(callback)
        entry = [self._now + delay, self._sequence, handle._run, args]
        handle._entry = entry
        if delay:
            heapq.heappush(self._queue, entry)
        else:
            self._ready.append(entry)
        return handle

    def delay_until(self, when: float) -> float:
        """The delay ``d`` for which ``now + d`` lands on ``when``.

        ``when - now`` rounds, so adding it back to ``now`` can miss
        ``when`` by an ulp; the delay is nudged one float at a time until
        the sum lands. :meth:`schedule` and :meth:`timeout` put their
        entry at that same sum. Only when ``when > 2 * now`` and ``now``
        carries a bit below the ulp of ``when`` can every sum step over
        ``when``; ``d`` then stops just short, ``now + d < when``, and a
        second call from that instant lands, because ``when - now`` is
        exact there (Sterbenz). Pushes nothing.
        """
        now = self._now
        if not when >= now:  # also rejects NaN
            raise ValueError(f"cannot delay until the past (when={when}, now={now})")
        delay = when - now
        while now + delay > when:
            delay = math.nextafter(delay, 0.0)
        while now + delay < when:
            step = math.nextafter(delay, math.inf)
            if now + step > when:
                break
            delay = step
        return delay

    def call_at(self, when: float, callback: typing.Callable[..., None], *args: object) -> None:
        """Run ``callback(*args)`` at exactly ``when``.

        One :meth:`schedule` entry where a delay lands on ``when``; else
        a first hop to just short of it, from where the second lands
        (see :meth:`delay_until`).
        """
        delay = self.delay_until(when)
        if self._now + delay < when:  # a two-hop landing
            self.schedule(delay, self.call_at, when, callback, *args)
        else:
            self.schedule(delay, callback, *args)

    def event(self, name: str = "") -> Event:
        """Create a fresh untriggered :class:`Event`."""
        return Event(self, name=name)

    def timeout(self, delay: float, value: object = None) -> Timeout:
        """Create a :class:`Timeout` firing after ``delay`` seconds."""
        return Timeout(self, delay, value)

    def spawn(self, generator: typing.Generator, name: str = "") -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def run(self, until: typing.Optional[float] = None) -> float:
        """Execute events until the queue drains or ``until`` is reached.

        Returns the simulated time at which execution stopped. When
        ``until`` is given, time is advanced to exactly ``until`` even if
        the queue drained earlier, mirroring wall-clock benchmark windows.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        # Hot loop. The untraced branch inlines _pop_next (one frame less
        # per dispatch), the time bound folds the None check into one
        # float compare, and the tracer branch is hoisted out of the loop
        # entirely (a tracer installed mid-run takes effect on the next
        # run() call, which is the only way tracers are ever installed).
        bound = math.inf if until is None else until
        try:
            if self.tracer.enabled:
                pop_next = self._pop_next
                entry = pop_next(bound)
                while entry is not None:
                    self._now = entry[0]
                    self._traced_dispatch(entry[2], entry[3])
                    entry = pop_next(bound)
            else:
                queue = self._queue
                ready = self._ready
                heappop = heapq.heappop
                popleft = ready.popleft
                while True:
                    if ready and not (queue and queue[0] < ready[0]):
                        entry = ready[0]
                        if entry[0] > bound:
                            break
                        popleft()
                    elif queue:
                        entry = queue[0]
                        if entry[0] > bound:
                            break
                        heappop(queue)
                    else:
                        break
                    self._now, __, callback, args = entry
                    if callback is not None:  # else a tombstoned (cancelled) timer
                        callback(*args)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def _pop_next(self, bound: float) -> typing.Optional[list]:
        """Pop the earliest entry of the heap and the ready lane.

        Returns ``None`` when both are empty or when the earliest entry
        lies beyond ``bound``; that entry then stays queued. The lane
        head wins unless the heap top is earlier in ``(time, sequence)``.
        """
        queue = self._queue
        ready = self._ready
        if ready and not (queue and queue[0] < ready[0]):
            if ready[0][0] > bound:
                return None
            return ready.popleft()
        if not queue or queue[0][0] > bound:
            return None
        return heapq.heappop(queue)

    def _traced_dispatch(self, callback: typing.Optional[typing.Callable[..., None]],
                         args: tuple = ()) -> None:
        """One dispatch with instrumentation: queue-depth gauge, dispatch
        counter and (when configured) a per-callback span whose ``wall_us``
        attribute carries the host-clock cost of the callback.

        A tombstoned (cancelled) timer has ``callback=None``: it gets the
        same gauge and counter updates as the fire-and-check no-op it
        replaced, so metric snapshots stay byte-identical, and no span.
        """
        tracer = self.tracer
        tracer.metrics.gauge("sim.queue_depth", system="sim").set(self.pending_events())
        tracer.metrics.counter("sim.dispatches", system="sim").inc()
        if callback is None:
            return
        if tracer.config.dispatch_spans and tracer.wants("sim"):
            name = getattr(callback, "__qualname__", None) or type(callback).__name__
            with tracer.span("dispatch", category="sim", fn=name):
                callback(*args)
        else:
            callback(*args)

    def run_until_complete(self, process: Process, limit: float = 1e9) -> object:
        """Run until ``process`` finishes and return its value.

        ``limit`` bounds the run to guard against livelock in tests.
        Dispatch goes through the same instrumented path as :meth:`run`
        (dispatch counters and spans stay accurate) under the same
        re-entrancy guard, and an over-limit event is peeked before it
        is popped, so it stays queued for a later :meth:`run`.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        traced = self.tracer.enabled
        try:
            while not process.triggered:
                entry = self._pop_next(limit)
                if entry is None:
                    if self.pending_events():
                        raise SimulationError(
                            f"exceeded time limit {limit} waiting for {process!r}"
                        )
                    raise SimulationError(f"deadlock: {process!r} never completed")
                self._now = entry[0]
                if traced:
                    self._traced_dispatch(entry[2], entry[3])
                elif entry[2] is not None:
                    entry[2](*entry[3])
        finally:
            self._running = False
        return process.value

    def pending_events(self) -> int:
        """Number of entries still queued in the heap and the ready lane
        (diagnostic).

        Cancelled-but-unpopped timers count, exactly as their
        fire-and-check no-op predecessors did.
        """
        return len(self._queue) + len(self._ready)
