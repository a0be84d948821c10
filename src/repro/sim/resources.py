"""Counted resources (semaphores) for modelling bounded concurrency.

Corda's flow-worker thread pools, notary signing slots and client workload
threads are all bounded concurrency: at most ``capacity`` holders at a
time, FIFO admission for waiters.
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
