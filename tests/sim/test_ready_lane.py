"""The two-lane kernel against a single-heap reference.

Zero-delay entries ride a FIFO ready lane beside the heap. These tests
pin that the split changes nothing observable: the same dispatch order,
the same ``now`` at every dispatch, the same sequence numbers and the
same pending count as the single heap the kernel used before. They also
cover the NaN-delay guard and the lazily built event labels.
"""

import heapq
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Resource, Simulator, Store, TimerHandle
from repro.sim.events import SimulationError


class _SingleHeapSimulator:
    """The kernel before the ready lane (verbatim ``schedule``,
    ``schedule_cancellable``, untraced ``run`` and ``pending_events``):
    every entry, zero-delay or not, goes through one binary heap."""

    def __init__(self) -> None:
        self._now = 0.0
        self._queue: list = []
        self._sequence = 0
        self._running = False

    @property
    def now(self) -> float:
        return self._now

    def schedule(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        heapq.heappush(self._queue, [self._now + delay, self._sequence, callback, args])

    def schedule_cancellable(self, delay, callback, *args):
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        self._sequence += 1
        handle = TimerHandle(callback)
        entry = [self._now + delay, self._sequence, handle._run, args]
        handle._entry = entry
        heapq.heappush(self._queue, entry)
        return handle

    def run(self, until=None):
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        bound = math.inf if until is None else until
        queue = self._queue
        pop = heapq.heappop
        try:
            while queue:
                entry = queue[0]
                if entry[0] > bound:
                    break
                pop(queue)
                self._now = entry[0]
                callback = entry[2]
                if callback is None:
                    continue  # tombstoned (cancelled) timer
                if entry[3]:
                    callback(*entry[3])
                else:
                    callback()
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
        return self._now

    def pending_events(self) -> int:
        return len(self._queue)


# Few distinct delays, so positive delays often land on an instant that
# is already queued (0.25 + 0.25 == 0.5) and meet zero-delay hops there.
_DELAYS = st.sampled_from([0.0, 0.0, 0.0, 0.25, 0.5, 1.0])


def _action(nested):
    """(delay, cancellable, index of a handle to cancel, nested actions)."""
    return st.tuples(_DELAYS, st.booleans(), st.none() | st.integers(0, 30), nested)


_ACTIONS = st.recursive(
    _action(st.just(())),
    lambda children: _action(st.lists(children, max_size=3).map(tuple)),
    max_leaves=40,
)
_UNTILS = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0]), max_size=3)


def _drive(sim, plan, untils):
    """Run ``plan`` on ``sim`` and log every dispatch and every stop."""
    log = []
    handles = []
    labels = itertools.count()

    def submit(action):
        delay, cancellable, cancel, children = action
        if cancellable:
            handles.append(sim.schedule_cancellable(delay, fire, next(labels), cancel, children))
        else:
            sim.schedule(delay, fire, next(labels), cancel, children)

    def fire(label, cancel, children):
        log.append((label, sim.now, sim._sequence, sim.pending_events()))
        if cancel is not None and handles:
            handles[cancel % len(handles)].cancel()
        for child in children:
            submit(child)

    for action in plan:
        submit(action)
    for until in untils:
        log.append(("stop", sim.run(until=until), sim._sequence, sim.pending_events()))
    log.append(("end", sim.run(), sim._sequence, sim.pending_events()))
    return log


class TestSingleHeapEquivalence:
    @settings(max_examples=150, deadline=None)
    @given(plan=st.lists(_ACTIONS, max_size=6), untils=_UNTILS)
    def test_same_dispatch_order_times_and_counts(self, plan, untils):
        assert _drive(Simulator(), plan, untils) == _drive(_SingleHeapSimulator(), plan, untils)

    def test_heap_entry_at_current_instant_keeps_its_sequence_slot(self):
        # b is queued on the heap for t=1.0 before a's zero-delay hop c
        # exists, so b runs first even though c sits in the ready lane.
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: (order.append("a"), sim.schedule(0.0, order.append, "c")))
        sim.schedule(0.5, lambda: sim.schedule(0.5, order.append, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_pending_events_counts_both_lanes(self):
        sim = Simulator()
        sim.schedule(0.0, lambda: None)
        sim.schedule(1.0, lambda: None)
        sim.schedule_cancellable(0.0, lambda: None).cancel()
        assert sim.pending_events() == 3
        sim.run()
        assert sim.pending_events() == 0

    def test_deadlock_check_drains_ready_lane_tombstones(self):
        sim = Simulator()

        def proc():
            yield sim.event()  # never triggered

        process = sim.spawn(proc())
        sim.schedule_cancellable(0.0, lambda: None).cancel()
        with pytest.raises(SimulationError, match="deadlock"):
            sim.run_until_complete(process)
        assert sim.pending_events() == 0


class TestNanDelays:
    def test_schedule_rejects_nan(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="nan"):
            sim.schedule(float("nan"), lambda: None)
        assert sim.pending_events() == 0

    def test_schedule_cancellable_rejects_nan(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="nan"):
            sim.schedule_cancellable(float("nan"), lambda: None)
        assert sim.pending_events() == 0

    def test_timeout_rejects_nan(self):
        sim = Simulator()
        with pytest.raises(ValueError, match="nan"):
            sim.timeout(float("nan"))
        assert sim.pending_events() == 0


class TestLazyLabels:
    def test_timeout_label(self):
        sim = Simulator()
        assert repr(sim.timeout(0.5)) == "<Timeout(0.5) pending at t=0.000000>"

    def test_resource_acquire_label(self):
        sim = Simulator()
        pool = Resource(sim, capacity=1, name="cpu")
        assert repr(pool.acquire()).startswith("<acquire:cpu ok ")
        assert repr(pool.acquire()).startswith("<acquire:cpu pending ")

    def test_store_get_and_put_labels(self):
        sim = Simulator()
        store = Store(sim, capacity=1, name="pool")
        assert repr(store.put("x")).startswith("<put:pool ok ")
        assert repr(store.put("y")).startswith("<put:pool pending ")
        assert repr(store.get()).startswith("<get:pool ok ")
        assert repr(Store(sim, name="empty").get()).startswith("<get:empty pending ")

    def test_plain_event_labels_are_unchanged(self):
        sim = Simulator()
        assert repr(sim.event("ready")).startswith("<ready pending ")
        assert repr(sim.event()).startswith("<Event pending ")
