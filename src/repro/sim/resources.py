"""Counted resources and busy-until clocks for modelling bounded concurrency.

Corda's flow-worker thread pools, notary signing slots and client workload
threads are all bounded concurrency: at most ``capacity`` holders at a
time, FIFO admission for waiters. A node CPU is the single-slot case
whose holders only wait out a service time; :class:`BusyClock` models it
without waiter events.
"""

from __future__ import annotations

import collections
import typing

from repro.sim.events import Event, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Resource:
    """A semaphore with ``capacity`` slots and FIFO waiters."""

    def __init__(self, sim: "Simulator", capacity: int, name: str = "") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name
        self._in_use = 0
        self._waiters: collections.deque = collections.deque()

    @property
    def in_use(self) -> int:
        """Number of currently held slots."""
        return self._in_use

    @property
    def available(self) -> int:
        """Number of free slots."""
        return self.capacity - self._in_use

    @property
    def queued(self) -> int:
        """Number of processes waiting for a slot."""
        return len(self._waiters)

    def acquire(self) -> Event:
        """Request a slot; the returned event fires once it is granted."""
        event = Event(self.sim, name=("acquire:", self.name))
        if self._in_use < self.capacity:
            self._in_use += 1
            event.succeed()
        else:
            self._waiters.append(event)
        return event

    def release(self) -> None:
        """Return a slot, admitting the oldest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"release() on idle resource {self.name!r}")
        if self._waiters:
            waiter = self._waiters.popleft()
            waiter.succeed()
        else:
            self._in_use -= 1

    def use(self, process_body: typing.Generator) -> typing.Generator:
        """Run ``process_body`` while holding a slot (generator helper).

        Usage inside a process::

            yield from pool.use(self._handle(tx))
        """
        yield self.acquire()
        try:
            result = yield from process_body
        finally:
            self.release()
        return result


class BusyClock:
    """A FIFO non-preemptive single server as a busy-until clock.

    A reservation made at ``now`` starts at ``max(now, free_at)`` and
    ends ``duration`` later; the server is then busy until that end.
    This is exactly when a capacity-1 :class:`Resource` holder that only
    waits out ``duration`` would finish, in the same FIFO order, but it
    costs one float compare instead of an acquire event, a hand-off hop
    and a release.
    """

    __slots__ = ("free_at",)

    #: A clock is one server (the attribute :class:`Resource` also has).
    capacity = 1

    def __init__(self) -> None:
        self.free_at = 0.0

    def reserve(self, now: float, duration: float) -> float:
        """Book ``duration`` seconds behind every earlier reservation and
        return the simulated time at which the booking ends."""
        if not duration >= 0:  # also rejects NaN
            raise ValueError(f"negative or NaN service time: {duration}")
        free_at = self.free_at
        end = (now if now > free_at else free_at) + duration
        self.free_at = end
        return end
