"""Unit tests for the FIFO store kept as the commit-pipeline test oracle."""

import pytest

from repro.sim import Simulator
from tests.sim.legacy_store import Store


@pytest.fixture()
def sim():
    return Simulator(seed=1)


class TestUnboundedStore:
    def test_put_then_get_fifo(self, sim):
        store = Store(sim)
        got = []

        def producer():
            for item in ["a", "b", "c"]:
                yield store.put(item)

        def consumer():
            for __ in range(3):
                item = yield store.get()
                got.append(item)

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert got == ["a", "b", "c"]

    def test_get_blocks_until_put(self, sim):
        store = Store(sim)
        arrival_times = []

        def consumer():
            item = yield store.get()
            arrival_times.append((sim.now, item))

        def producer():
            yield sim.timeout(5.0)
            yield store.put("late-item")

        sim.spawn(consumer())
        sim.spawn(producer())
        sim.run()
        assert arrival_times == [(5.0, "late-item")]

    def test_waiting_getters_served_in_order(self, sim):
        store = Store(sim)
        got = []

        def consumer(name):
            item = yield store.get()
            got.append((name, item))

        sim.spawn(consumer("first"))
        sim.spawn(consumer("second"))

        def producer():
            yield sim.timeout(1.0)
            yield store.put(1)
            yield store.put(2)

        sim.spawn(producer())
        sim.run()
        assert got == [("first", 1), ("second", 2)]


class TestBoundedStore:
    def test_capacity_validation(self, sim):
        with pytest.raises(ValueError):
            Store(sim, capacity=0)

    def test_try_put_respects_capacity(self, sim):
        store = Store(sim, capacity=2)
        assert store.try_put("a")
        assert store.try_put("b")
        assert not store.try_put("c")  # rejected, like Sawtooth's queue
        assert len(store) == 2

    def test_put_blocks_when_full(self, sim):
        store = Store(sim, capacity=1)
        events = []

        def producer():
            yield store.put("first")
            events.append(("stored-first", sim.now))
            yield store.put("second")
            events.append(("stored-second", sim.now))

        def consumer():
            yield sim.timeout(10.0)
            item = yield store.get()
            events.append(("got", item, sim.now))

        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        assert events == [
            ("stored-first", 0.0),
            ("stored-second", 10.0),
            ("got", "first", 10.0),
        ]

    def test_try_get(self, sim):
        store = Store(sim)
        assert store.try_get() == (False, None)
        store.try_put("x")
        assert store.try_get() == (True, "x")

    def test_drain_with_limit(self, sim):
        store = Store(sim)
        for i in range(5):
            store.try_put(i)
        assert store.drain(limit=3) == [0, 1, 2]
        assert store.drain() == [3, 4]
        assert store.drain() == []

    def test_drain_admits_blocked_putters(self, sim):
        store = Store(sim, capacity=2)
        stored = []

        def producer():
            for i in range(4):
                yield store.put(i)
                stored.append(i)

        sim.spawn(producer())
        sim.run()
        assert stored == [0, 1]
        assert store.drain(limit=2) == [0, 1]
        sim.run()
        assert stored == [0, 1, 2, 3]
        assert store.peek_all() == [2, 3]

class TestDrainWithWaitingPutters:
    def test_drain_admits_only_what_capacity_allows(self, sim):
        store = Store(sim, capacity=3)
        for i in range(3):
            assert store.try_put(i)
        # Five independent putters park on the full store.
        stored = []

        def producer(i):
            yield store.put(i)
            stored.append(i)

        for i in range(3, 8):
            sim.spawn(producer(i))
        sim.run()
        assert stored == []
        assert store.drain(limit=2) == [0, 1]
        # Exactly two freed slots: the two oldest blocked putters were
        # admitted, the rest stay parked.
        assert store.peek_all() == [2, 3, 4]
        assert store.is_full
        sim.run()
        assert stored == [3, 4]
        assert store.drain() == [2, 3, 4]
        sim.run()
        assert stored == [3, 4, 5, 6, 7]
        assert store.peek_all() == [5, 6, 7]

    def test_full_drain_unblocks_all_putters_when_they_fit(self, sim):
        store = Store(sim, capacity=4)
        for i in range(4):
            assert store.try_put(i)

        def producer(i):
            yield store.put(i)

        for i in (4, 5):
            sim.spawn(producer(i))
        sim.run()
        assert store.drain() == [0, 1, 2, 3]
        assert store.peek_all() == [4, 5]
        assert not store.is_full
        assert store.drain() == [4, 5]

    def test_admitted_putter_event_fires(self, sim):
        store = Store(sim, capacity=1)
        store.try_put("old")
        put_event = store.put("new")
        assert not put_event.triggered
        assert store.drain() == ["old"]
        assert put_event.triggered
        assert store.peek_all() == ["new"]

    def test_drain_on_empty_store_with_no_putters(self, sim):
        store = Store(sim, capacity=2)
        assert store.drain() == []
        assert store.drain(limit=5) == []
