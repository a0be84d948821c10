"""Generator-based simulation processes.

A process wraps a Python generator. The generator yields events (or other
processes, which are themselves events); the process resumes with the
event's value when it fires, or with the event's exception thrown at the
yield point when it fails. A process is itself an :class:`Event` that fires
with the generator's return value, so processes can wait on each other.
"""

from __future__ import annotations

import typing

from repro.sim.events import _PENDING, Event, Interrupt, SimulationError

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator


class Process(Event):
    """Drives a generator through the simulation.

    Yield an :class:`Event` to wait for it. The generator's ``return``
    value becomes the process's event value. Unhandled exceptions fail the
    process event, propagating to any process waiting on it.
    """

    __slots__ = ("_generator", "_waiting_on")

    def __init__(self, sim: "Simulator", generator: typing.Generator, name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise TypeError(f"Process requires a generator, got {type(generator).__name__}")
        # Event.__init__ inlined: one frame less per spawn.
        self.sim = sim
        self._callbacks: list = []
        self._value: object = _PENDING
        self._exception: typing.Optional[BaseException] = None
        self._name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        self._waiting_on: typing.Optional[Event] = None
        sim.schedule(0.0, self._step, None, None)

    @property
    def is_alive(self) -> bool:
        """Whether the generator is still running."""
        return not self.triggered

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at its yield point.

        Interrupting a finished process is a no-op, matching the common
        DES convention (the interrupter usually races completion).
        """
        if self.triggered:
            return
        self._waiting_on = None
        self.sim.schedule(0.0, self._step, None, Interrupt(cause))

    def kill(self) -> None:
        """Terminate the process immediately, without running its body.

        Unlike :meth:`interrupt`, the generator gets no chance to handle
        anything — it is closed (``finally`` blocks still run) and the
        process event succeeds with ``None`` so waiters are released.
        Killing a finished process is a no-op.
        """
        if self.triggered:
            return
        self._waiting_on = None
        self._generator.close()
        self.succeed(None)

    def _step(self, value: object, exception: typing.Optional[BaseException]) -> None:
        if self._value is not _PENDING or self._exception is not None:
            return
        self._waiting_on = None
        try:
            if exception is not None:
                target = self._generator.throw(exception)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as error:  # noqa: BLE001 - must fail the event
            self.fail(error)
            return
        if not isinstance(target, Event):
            self._generator.close()
            self.fail(SimulationError(f"process {self._name!r} yielded non-event {target!r}"))
            return
        self._waiting_on = target
        # target.add_callback(self._on_event), inlined on the resume path.
        if target._value is not _PENDING or target._exception is not None:
            self.sim.schedule(0.0, self._on_event, target)
        else:
            target._callbacks.append(self._on_event)

    def _on_event(self, event: Event) -> None:
        # Stale wakeups occur when an interrupt replaced the wait target.
        if self._waiting_on is not event:
            return
        if event._exception is None:
            self._step(event._value, None)
        else:
            self._step(None, event._exception)
