"""Event primitives for the simulation kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on.
Events are created untriggered, accumulate callbacks while pending and run
every callback exactly once when triggered. :class:`Timeout` is an event
that the kernel triggers after a fixed simulated delay. :class:`AnyOf` and
:class:`AllOf` are condition events composing several child events.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.kernel import Simulator

# Sentinel distinguishing "no value yet" from a legitimate None value.
_PENDING = object()


class SimulationError(Exception):
    """Base class for errors raised by the simulation kernel."""


class Interrupt(Exception):
    """Raised inside a process that another process interrupted.

    The ``cause`` attribute carries the value passed to
    :meth:`repro.sim.process.Process.interrupt`.
    """

    def __init__(self, cause: object = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot triggerable occurrence in simulated time.

    Processes wait on events by yielding them; arbitrary code can subscribe
    with :meth:`add_callback`. An event is either *pending*, *succeeded*
    (carrying a value) or *failed* (carrying an exception).
    """

    __slots__ = ("sim", "_callbacks", "_value", "_exception", "_name")

    def __init__(self, sim: "Simulator",
                 name: typing.Union[str, typing.Tuple[str, str]] = "") -> None:
        # ``name`` may be a ``(prefix, suffix)`` pair, joined only when
        # the label is read, so hot paths skip formatting a string.
        self.sim = sim
        self._callbacks: list = []
        self._value: object = _PENDING
        self._exception: typing.Optional[BaseException] = None
        self._name = name

    @property
    def triggered(self) -> bool:
        """Whether the event has already fired (successfully or not)."""
        return self._value is not _PENDING or self._exception is not None

    @property
    def ok(self) -> bool:
        """Whether the event fired successfully."""
        return self._value is not _PENDING and self._exception is None

    @property
    def value(self) -> object:
        """The value the event fired with.

        Raises the event's exception for failed events and
        :class:`SimulationError` for pending ones.
        """
        if self._exception is not None:
            raise self._exception
        if self._value is _PENDING:
            raise SimulationError(f"event {self!r} has not been triggered")
        return self._value

    @property
    def exception(self) -> typing.Optional[BaseException]:
        """The exception of a failed event, or ``None``."""
        return self._exception

    def add_callback(self, callback: typing.Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event fires.

        If the event already fired, the callback runs on the next kernel
        step (never synchronously), preserving deterministic ordering.
        """
        if self._value is not _PENDING or self._exception is not None:
            self.sim.schedule(0.0, callback, self)
        else:
            self._callbacks.append(callback)

    def succeed(self, value: object = None) -> "Event":
        """Fire the event successfully with ``value``."""
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"event {self!r} already triggered")
        self._value = value
        callbacks = self._callbacks  # _flush(), inlined on the resume path
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                self.sim.schedule(0.0, callback, self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Fire the event with an exception.

        Waiting processes receive the exception at their yield point.
        """
        if self._value is not _PENDING or self._exception is not None:
            raise SimulationError(f"event {self!r} already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._exception = exception
        self._flush()
        return self

    def _flush(self) -> None:
        callbacks = self._callbacks
        if callbacks:
            self._callbacks = []
            for callback in callbacks:
                self.sim.schedule(0.0, callback, self)

    def _label(self) -> str:
        name = self._name
        if isinstance(name, tuple):
            prefix, suffix = name
            return f"{prefix}{suffix}"
        return name or self.__class__.__name__

    def __repr__(self) -> str:
        state = "pending"
        if self.triggered:
            state = "ok" if self.ok else "failed"
        return f"<{self._label()} {state} at t={self.sim.now:.6f}>"


class Timeout(Event):
    """An event triggered by the kernel after ``delay`` simulated seconds."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: object = None) -> None:
        if not delay >= 0:  # also rejects NaN
            raise ValueError(f"negative or NaN timeout delay: {delay}")
        # Event.__init__ inlined: one frame less per timeout.
        self.sim = sim
        self._callbacks = []
        self._value = _PENDING
        self._exception = None
        self._name = ""
        self.delay = delay
        sim.schedule(delay, self.succeed, value)

    def _label(self) -> str:
        return f"Timeout({self.delay})"


class _Condition(Event):
    """Common machinery for :class:`AnyOf` / :class:`AllOf`."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim: "Simulator", events: typing.Sequence[Event]) -> None:
        super().__init__(sim, name=self.__class__.__name__)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            sim.schedule(0.0, self.succeed, {})
            return
        for event in self.events:
            event.add_callback(self._on_child)

    def _on_child(self, event: Event) -> None:
        raise NotImplementedError

    def _results(self) -> dict:
        return {e: e.value for e in self.events if e.ok}


class AnyOf(_Condition):
    """Fires when the first child event fires.

    The value is a dict of the triggered children's values. A failing child
    fails the condition.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)
            return
        self.succeed(self._results())


class AllOf(_Condition):
    """Fires once every child event has fired.

    The value is a dict mapping each child to its value. The first failing
    child fails the condition immediately.
    """

    __slots__ = ()

    def _on_child(self, event: Event) -> None:
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.exception)
            return
        self._remaining -= 1
        if self._remaining == 0:
            self.succeed(self._results())
