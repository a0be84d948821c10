"""Node CPUs as busy-until clocks against the semaphore they replaced.

A node CPU used to be a capacity-1 :class:`Resource`: ``busy(d)``
acquired it, waited out a timeout and released it, and admission work
ran as one spawned process per submission. The CPU is now a
:class:`BusyClock` (``start = max(now, free_at)``), ``busy(d)`` is one
timeout to the booked end, and single-wait work books the CPU through
``on_cpu`` with a plain callback. These tests pin that every piece of
work finishes at the same float time and in the same order as under
the semaphore, and that ``Simulator.delay_until`` lands exactly, in a
second hop where no single float delay reaches the target.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.base import BaseNode
from repro.sim import BusyClock, Resource, Simulator


class _LegacyNode:
    """The node CPU before the clock: a semaphore and the verbatim
    ``BaseNode.busy`` of that time."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.cpu = Resource(sim, capacity=1, name="n0-cpu")

    def busy(self, duration):
        """Occupy this node's CPU for ``duration`` (generator helper)."""
        yield self.cpu.acquire()
        try:
            if duration > 0:
                yield self.sim.timeout(duration)
        finally:
            self.cpu.release()


class _Node:
    """Just the CPU of a :class:`BaseNode`, driven by its own methods."""

    busy = BaseNode.busy
    on_cpu = BaseNode.on_cpu

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.cpu = BusyClock()


def _process(sim, node, job, durations, done):
    for segment, duration in enumerate(durations):
        yield from node.busy(duration)
        done.append((job, segment, sim.now))


def _run_legacy(jobs):
    """Every job a spawned process, as admission work used to be."""
    sim = Simulator(seed=1)
    node = _LegacyNode(sim)
    done = []
    for job, (arrival, __, durations) in enumerate(jobs):
        sim.schedule(arrival, lambda job=job, durations=durations: sim.spawn(
            _process(sim, node, job, durations, done)))
    sim.run()
    return done


def _run_clock(jobs):
    """Process jobs through ``busy``; callback jobs start in the slot of
    the old spawn and book the CPU through ``on_cpu``."""
    sim = Simulator(seed=1)
    node = _Node(sim)
    done = []

    def start(job, duration):
        node.on_cpu(duration, lambda: done.append((job, 0, sim.now)))

    for job, (arrival, kind, durations) in enumerate(jobs):
        if kind == "process":
            sim.schedule(arrival, lambda job=job, durations=durations: sim.spawn(
                _process(sim, node, job, durations, done)))
        else:
            sim.schedule(arrival, sim.schedule, 0.0, start, job, durations[0])
    sim.run()
    return done


# Grid values make arrivals coincide with each other and with ends of
# earlier work; free floats exercise the rounding of start + duration.
_GRID = st.integers(0, 32).map(lambda k: k * 0.125)
_ARRIVALS = st.one_of(_GRID, st.floats(0.0, 4.0, allow_nan=False))
_POSITIVE = st.one_of(
    st.integers(1, 8).map(lambda k: k * 0.125),
    st.floats(1e-6, 1.0, allow_nan=False),
)


def _jobs(durations):
    job = st.one_of(
        st.tuples(_ARRIVALS, st.just("process"), st.lists(durations, min_size=1, max_size=3)),
        st.tuples(_ARRIVALS, st.just("callback"), st.lists(durations, min_size=1, max_size=1)),
    )
    return st.lists(job, min_size=1, max_size=25)


class TestEquivalenceWithSemaphore:
    @settings(max_examples=100, deadline=None)
    @given(_jobs(_POSITIVE))
    def test_same_completion_floats_in_the_same_order(self, jobs):
        assert _run_clock(jobs) == _run_legacy(jobs)

    @settings(max_examples=60, deadline=None)
    @given(_jobs(st.one_of(st.just(0.0), _POSITIVE)))
    def test_zero_durations_finish_at_the_same_floats(self, jobs):
        # Zero-length work can tie with other work at one instant; the
        # times stay equal, the order within a tie is not pinned.
        assert sorted(_run_clock(jobs)) == sorted(_run_legacy(jobs))

    def test_queued_work_starts_at_the_holders_end(self):
        jobs = [(0.0, "callback", [0.3]), (0.1, "process", [0.2, 0.1]), (0.1, "callback", [0.7])]
        assert _run_clock(jobs) == _run_legacy(jobs) == [
            (0, 0, 0.3), (1, 0, 0.3 + 0.2), (2, 0, 0.3 + 0.2 + 0.7),
            (1, 1, 0.3 + 0.2 + 0.7 + 0.1),
        ]


class TestBusyClock:
    def test_is_a_single_server(self):
        assert BusyClock.capacity == 1
        assert BusyClock().free_at == 0.0

    def test_idle_clock_starts_now(self):
        clock = BusyClock()
        assert clock.reserve(2.0, 0.5) == 2.5
        assert clock.free_at == 2.5

    def test_busy_clock_queues_fifo_behind_earlier_bookings(self):
        clock = BusyClock()
        assert clock.reserve(0.0, 1.0) == 1.0
        assert clock.reserve(0.2, 0.5) == 1.5
        assert clock.reserve(0.4, 0.0) == 1.5
        assert clock.reserve(3.0, 0.25) == 3.25

    @pytest.mark.parametrize("duration", [-1e-9, -1.0, math.nan, -math.inf])
    def test_rejects_negative_and_nan_durations(self, duration):
        clock = BusyClock()
        clock.reserve(0.0, 1.0)
        with pytest.raises(ValueError, match="negative or NaN"):
            clock.reserve(0.5, duration)
        assert clock.free_at == 1.0

    def test_node_cpu_is_a_clock(self):
        sim = Simulator(seed=1)
        node = _Node(sim)
        node.on_cpu(0.5, lambda: None)
        assert node.cpu.free_at == 0.5
        assert sim.pending_events() == 1


_NOW = st.one_of(st.just(0.0), st.floats(0.0, 1e9, allow_nan=False))


#: A target no single delay reaches from ``_UNREACHABLE_NOW``: the sums
#: step over it (``now`` has a bit below the ulp of the target).
_UNREACHABLE_NOW = 0.125 + 1e-6
_UNREACHABLE_END = (_UNREACHABLE_NOW + 0.25) + 1e-6


class TestDelayUntil:
    @settings(max_examples=300, deadline=None)
    @given(_NOW, st.one_of(
        st.integers(0, 4).map(lambda ulps: ("ulps", ulps)),
        st.floats(0.0, 1e3, allow_nan=False).map(lambda gap: ("gap", gap)),
        st.floats(0.0, 1e-300, allow_nan=False).map(lambda gap: ("gap", gap)),
        st.floats(1.0, 1e6, allow_nan=False).map(lambda factor: ("times", factor)),
    ))
    def test_lands_on_the_target_in_at_most_two_hops(self, now, offset):
        sim = Simulator(seed=1)
        sim.run(until=now)
        kind, amount = offset
        when = now
        if kind == "ulps":  # sub-ulp gaps: the next few floats after now
            for __ in range(amount):
                when = math.nextafter(when, math.inf)
        elif kind == "gap":
            when = now + amount
        else:  # far targets, where when - now rounds
            when = now * amount
        delay = sim.delay_until(when)
        assert delay >= 0
        if now + delay != when:
            # No delay lands: the largest sum below and the next one
            # above straddle the target, and the second hop is exact.
            assert now + delay < when < now + math.nextafter(delay, math.inf)
            sim.run(until=now + delay)
            assert sim.now + sim.delay_until(when) == when
        if now <= when <= 2 * now or now == 0.0:
            assert now + delay == when

    def test_a_target_out_of_reach_of_one_delay(self):
        sim = Simulator(seed=1)
        sim.run(until=_UNREACHABLE_NOW)
        delay = sim.delay_until(_UNREACHABLE_END)
        assert sim.now + delay < _UNREACHABLE_END
        assert sim.now + math.nextafter(delay, math.inf) > _UNREACHABLE_END

    @pytest.mark.parametrize("kind", ["process", "callback"])
    def test_cpu_work_lands_on_an_unreachable_end(self, kind):
        sim = Simulator(seed=1)
        node = _Node(sim)
        node.cpu.free_at = _UNREACHABLE_END - 1e-6
        sim.run(until=_UNREACHABLE_NOW)
        done = []
        if kind == "process":
            sim.spawn(_process(sim, node, 0, [1e-6], done))
        else:
            node.on_cpu(1e-6, lambda: done.append((0, 0, sim.now)))
        sim.run()
        assert done == [(0, 0, _UNREACHABLE_END)]

    def test_a_timeout_fires_at_the_target(self):
        sim = Simulator(seed=1)
        sim.run(until=0.1)
        when = 0.1 + 0.2  # 0.30000000000000004: the subtraction rounds
        fired = []
        sim.timeout(sim.delay_until(when)).add_callback(lambda event: fired.append(sim.now))
        assert sim.pending_events() == 1
        sim.run()
        assert fired == [when]

    @pytest.mark.parametrize("when", [0.5, math.nan])
    def test_rejects_the_past_and_nan(self, when):
        sim = Simulator(seed=1)
        sim.run(until=1.0)
        with pytest.raises(ValueError):
            sim.delay_until(when)
