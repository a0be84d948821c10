"""The node commit pipeline and the event service against the processes
they replaced.

Every system used to commit decided blocks in its own process reading
a :class:`~tests.sim.legacy_store.Store`: get an item, book its CPU
work through ``busy``, then apply and append. ``BaseNode`` now runs one
callback pipeline for all of them (``enqueue_commit`` with the
``commit_cost`` and ``finish_commit`` hooks). The property here runs
both on the same draws of enqueue instants, costs and competing CPU
work, and pins that every item finishes at the same float in the same
order, that the competing work does too, that the CPU ends booked to
the same instant, and that the waiting count every enqueue sees is the
old store's length.

An item now finishes in the entry where its CPU booking ends, where the
process needed one more zero-delay hop to resume. So competing work
booked from a zero-delay hop that is itself created at that instant,
after the landing, queues behind the next item instead of ahead of it;
one test pins that same-instant shift, which the seed-matrix audit
(``scripts/audit_behaviour_delta.py``) finds in no run.

The notification path is pinned directly: capacity, the FIFO emit
floats and when the backlog frees.
"""

import collections
import dataclasses

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.base import BaseNode, DeploymentSpec
from repro.chains.registry import create_system
from repro.sim import BusyClock, Simulator
from repro.storage import Receipt, TxStatus
from tests.sim.legacy_store import Store


class _LegacyNode:
    """A node before the pipeline: the shared shape of the old per-system
    ``_commit_loop`` (a process reading a store; ``None``-cost items, such
    as empty blocks, finish without touching the CPU)."""

    busy = BaseNode.busy
    on_cpu = BaseNode.on_cpu

    def __init__(self, sim, done):
        self.sim = sim
        self.cpu = BusyClock()
        self.done = done
        self._commit_queue = Store(sim, name="n0-commits")
        sim.spawn(self._commit_loop(), name="n0-committer")

    def waiting(self):
        return len(self._commit_queue)

    def enqueue_commit(self, item):
        self._commit_queue.try_put(item)

    def _commit_loop(self):
        while True:
            item = yield self._commit_queue.get()
            job, cost = item
            if cost is None:
                self.done.append((job, self.sim.now))
                continue
            yield from self.busy(cost)
            self.done.append((job, self.sim.now))


class _Node:
    """Just the CPU and commit pipeline of a :class:`BaseNode`."""

    busy = BaseNode.busy
    on_cpu = BaseNode.on_cpu
    enqueue_commit = BaseNode.enqueue_commit
    _start_commit = BaseNode._start_commit
    _commit_done = BaseNode._commit_done

    def __init__(self, sim, done):
        self.sim = sim
        self.cpu = BusyClock()
        self.done = done
        self._commit_waiting = collections.deque()
        self._committing = False

    def waiting(self):
        return len(self._commit_waiting)

    def commit_cost(self, item):
        return item[1]

    def finish_commit(self, item):
        self.done.append((item[0], self.sim.now))


def _run(node_class, events):
    """Drive one node through ``events``: ``("commit", at, cost)`` enqueues
    an item, ``("cpu", at, duration)`` books competing CPU work from a
    callback at that instant, ``("hop", at, duration)`` from a zero-delay
    hop that callback schedules (as admission work starts) and
    ``("late", at, duration)`` from a hop scheduled 0.125 s later."""
    sim = Simulator(seed=1)
    done, other, seen = [], [], []
    node = node_class(sim, done)

    def enqueue(job, cost):
        seen.append(node.waiting())
        node.enqueue_commit((job, cost))

    def compete(job, duration):
        node.on_cpu(duration, lambda: other.append((job, sim.now)))

    def hop(job, duration):
        sim.schedule(0.0, compete, job, duration)

    def late(job, duration):
        sim.schedule(0.125, hop, job, duration)

    kinds = {"commit": enqueue, "cpu": compete, "hop": hop, "late": late}
    for job, (kind, at, amount) in enumerate(events):
        sim.schedule(at, kinds[kind], job, amount)
    sim.run()
    return done, other, seen, node.cpu.free_at


# Grid instants make enqueues coincide with each other, with competing
# work and with the ends of earlier work; free floats exercise the
# rounding of start + duration.
_GRID = st.integers(0, 32).map(lambda k: k * 0.125)
_AT = st.one_of(_GRID, st.floats(0.0, 4.0, allow_nan=False))
_POSITIVE = st.one_of(
    st.integers(1, 8).map(lambda k: k * 0.125),
    st.floats(1e-6, 1.0, allow_nan=False),
)
_COST = st.one_of(st.none(), st.just(0.0), _POSITIVE)
_EVENTS = st.lists(
    st.one_of(
        st.tuples(st.just("commit"), _AT, _COST),
        st.tuples(st.sampled_from(["cpu", "hop"]), _AT, _POSITIVE),
    ),
    min_size=1, max_size=30,
)


class TestEquivalenceWithStoreLoop:
    @settings(max_examples=200, deadline=None)
    @given(_EVENTS)
    def test_same_finish_floats_order_cpu_and_waiting_counts(self, events):
        assert _run(_Node, events) == _run(_LegacyNode, events)

    def test_items_queue_fifo_behind_the_one_committing(self):
        events = [("commit", 0.0, 0.5), ("commit", 0.125, None), ("cpu", 0.25, 0.25),
                  ("commit", 0.25, 0.125)]
        done, other, seen, free_at = _run(_Node, events)
        assert done == [(0, 0.5), (1, 0.5), (3, 0.875)]
        assert other == [(2, 0.75)]
        assert seen == [0, 0, 1]
        assert free_at == 0.875
        assert _run(_LegacyNode, events) == (done, other, seen, free_at)

    def test_work_booked_after_a_landing_at_its_instant_queues_behind_the_next_item(self):
        # Item 0 ends at 0.5. The late hop is created at 0.5 by an entry
        # queued after item 0's landing: the process resumed one hop
        # later, so the hop booked the CPU first; the pipeline has
        # already started item 1.
        events = [("commit", 0.0, 0.5), ("commit", 0.125, 0.25), ("late", 0.375, 0.25)]
        assert _run(_Node, events) == ([(0, 0.5), (1, 0.75)], [(2, 1.0)], [0, 0], 1.0)
        assert _run(_LegacyNode, events) == ([(0, 0.5), (1, 1.0)], [(2, 0.75)], [0, 0], 1.0)

    def test_an_idle_pipeline_starts_after_one_zero_delay_hop(self):
        sim = Simulator(seed=1)
        node = _Node(sim, [])
        node.enqueue_commit((0, 0.5))
        assert node.waiting() == 0 and sim.pending_events() == 1
        assert node.cpu.free_at == 0.0  # the CPU is booked at the start
        sim.run()
        assert node.done == [(0, 0.5)] and not node._committing


def _receipts(*payload_ids):
    return [Receipt(payload_id=payload_id, tx_id="t", status=TxStatus.COMMITTED,
                    block_height=1, commit_time=0.0) for payload_id in payload_ids]


def _gateway(emit_cost, capacity):
    """An unstarted Fabric node whose event service emits ``emit_cost``
    seconds per receipt and holds at most ``capacity`` receipts."""
    sim = Simulator(seed=1)
    system = create_system("fabric", sim, DeploymentSpec(), "KeyValue")
    node = system.nodes[system.node_ids[0]]
    node.profile = dataclasses.replace(
        node.profile, event_emit_cost=emit_cost, event_queue_capacity=capacity
    )
    sent = []

    def send(dst, kind, payload, size_bytes):
        sent.append((sim.now, dst, [r.payload_id for r in payload],
                     node._event_backlog_payloads))

    node.send = send
    return sim, node, sent


class TestNotificationPath:
    def test_capacity_accepts_exactly_that_many_payloads(self):
        sim, node, sent = _gateway(0.25, 6)
        node.notify_client("c0", _receipts("a", "b", "c", "d"))
        node.notify_client("c1", _receipts("e", "f"))
        node.notify_client("c0", _receipts("g"))
        assert node.dropped_notifications == 1
        assert node._event_backlog_payloads == 6
        sim.run()
        assert [payload_ids for __, __, payload_ids, __ in sent] == [
            ["a", "b", "c", "d"], ["e", "f"]]

    def test_emits_follow_the_fifo_busy_until_floats(self):
        sim, node, sent = _gateway(0.1, None)
        sim.schedule(0.0, node.notify_client, "c0", _receipts("a", "b", "c"))
        sim.schedule(0.1, node.notify_client, "c1", _receipts("d"))
        sim.schedule(2.0, node.notify_client, "c0", _receipts("e", "f"))
        sim.run()
        first = 0.0 + 0.1 * 3
        assert [(at, dst) for at, dst, __, __ in sent] == [
            (first, "c0"), (first + 0.1, "c1"), (2.0 + 0.1 * 2, "c0")]

    def test_the_backlog_frees_at_emission(self):
        sim, node, sent = _gateway(0.25, 4)
        sim.schedule(0.0, node.notify_client, "c0", _receipts("a", "b", "c", "d"))
        sim.schedule(0.5, node.notify_client, "c0", _receipts("e"))  # full: dropped
        sim.schedule(1.5, node.notify_client, "c0", _receipts("f"))  # freed at 1.0
        sim.run()
        assert node.dropped_notifications == 1
        assert [(at, backlog) for at, __, __, backlog in sent] == [(1.0, 0), (1.75, 0)]
        assert node._event_backlog_payloads == 0

    def test_zero_emit_cost_sends_after_one_zero_delay_hop(self):
        sim, node, sent = _gateway(0.0, None)
        node.notify_client("c0", _receipts("a"))
        assert sent == [] and sim.pending_events() == 1
        sim.run()
        assert sent == [(0.0, "c0", ["a"], 0)]
