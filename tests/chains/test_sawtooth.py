"""Tests for the Sawtooth model: batches, backpressure, scale stall."""

import pytest

from repro.storage import TxStatus
from tests.chains.helpers import deploy


class TestBatches:
    def test_single_batch_commits(self):
        sim, system, client = deploy("sawtooth")
        payloads = client.submit_batch(
            [("Set", {"key": f"k{i}", "value": i}) for i in range(5)], iel="KeyValue"
        )
        sim.run(until=20.0)
        for payload in payloads:
            assert client.receipts[payload.payload_id].status is TxStatus.COMMITTED
        for node in system.nodes.values():
            assert node.state.get("k0") == 0
            assert node.state.get("k4") == 4

    def test_failing_transaction_discards_whole_batch(self):
        sim, system, client = deploy("sawtooth")
        payloads = client.submit_batch(
            [
                ("Set", {"key": "good", "value": 1}),
                ("Get", {"key": "missing-key"}),  # fails
                ("Set", {"key": "also-good", "value": 2}),
            ],
            iel="KeyValue",
        )
        sim.run(until=20.0)
        # Atomic batch: nothing is confirmed, nothing reaches state.
        for payload in payloads:
            assert payload.payload_id not in client.receipts
        assert system.discarded_batches == 1
        for node in system.nodes.values():
            assert node.state.get("good") is None
            assert node.state.get("also-good") is None

    def test_chains_consistent(self):
        sim, system, client = deploy("sawtooth")
        for i in range(10):
            client.submit_batch([("Set", {"key": f"b{i}", "value": i})], iel="KeyValue")
        sim.run(until=30.0)
        system.validate_all_chains()

    def test_publishing_delay_paces_blocks(self):
        sim, system, client = deploy("sawtooth", params={"block_publishing_delay": 5.0})
        for i in range(6):
            sim.schedule(4.0 * i, lambda i=i: client.submit_batch(
                [("Set", {"key": f"k{i}", "value": i})], iel="KeyValue"))
        sim.run(until=40.0)
        node = system.nodes[system.node_ids[0]]
        timestamps = [b.header.timestamp for b in node.chain.blocks()]
        gaps = [b - a for a, b in zip(timestamps, timestamps[1:])]
        assert all(gap >= 4.9 for gap in gaps)


class TestBackpressure:
    def test_full_queue_rejects_batches(self):
        sim, system, client = deploy(
            "sawtooth", params={"PendingQueueCapacity": 3, "block_publishing_delay": 10.0}
        )
        all_payloads = []
        for i in range(10):
            all_payloads += client.submit_batch(
                [("Set", {"key": f"k{i}", "value": i})], iel="KeyValue"
            )
        sim.run(until=8.0)
        assert len(client.rejections) > 0
        rejected = [pid for pid in client.rejections if "queue full" in client.rejections[pid]]
        assert rejected

    def test_rejected_batches_are_lost_not_confirmed(self):
        sim, system, client = deploy(
            "sawtooth", params={"PendingQueueCapacity": 2, "block_publishing_delay": 5.0}
        )
        payloads = []
        for i in range(8):
            payloads += client.submit_batch(
                [("Set", {"key": f"k{i}", "value": i})], iel="KeyValue"
            )
        sim.run(until=60.0)
        confirmed = [p for p in payloads if p.payload_id in client.receipts]
        rejected = [p for p in payloads if p.payload_id in client.rejections]
        assert len(confirmed) + len(rejected) == len(payloads)
        assert rejected  # some were pushed back


class TestScaleStall:
    def test_sixteen_validators_keep_everything_pending(self):
        sim, system, client = deploy("sawtooth", node_count=16)
        client.submit_batch([("Set", {"key": "k", "value": 1})], iel="KeyValue")
        sim.run(until=30.0)
        # Nothing finalizes: no blocks, no receipts, batch still pending.
        assert all(h == -1 for h in system.total_chain_height().values())
        assert client.receipts == {}
        assert len(system.pending) == 1

    def test_eight_validators_work(self):
        sim, system, client = deploy("sawtooth", node_count=8)
        payloads = client.submit_batch([("Set", {"key": "k", "value": 1})], iel="KeyValue")
        sim.run(until=30.0)
        assert payloads[0].payload_id in client.receipts


class TestGossipAdmission:
    """Every validator pays admission CPU for every offered batch; only
    under fault injection does a backup's charge note pending work for
    its view-change timer."""

    def submit(self, fault_mode, node_count=4):
        sim, system, client = deploy("sawtooth", node_count=node_count)
        if fault_mode:
            system.enter_fault_mode()
        noted = []
        for node_id, node in system.nodes.items():
            note = node.engine.note_pending_work
            node.engine.note_pending_work = (
                lambda node_id=node_id, note=note: (noted.append(node_id), note()))
        client.submit_batch(
            [("Set", {"key": f"k{i}", "value": i}) for i in range(3)], iel="KeyValue")
        sim.run(until=0.5)  # before the first publishing round
        return system, noted

    def backups(self, system):
        return [node_id for node_id, node in system.nodes.items()
                if not node.engine.is_primary]

    def test_every_validator_books_admission_cpu(self):
        system, __ = self.submit(fault_mode=False)
        for node in system.nodes.values():
            assert node.cpu.free_at > 3 * system.profile.admission_cost

    def test_fault_free_gossip_notes_no_pending_work(self):
        system, noted = self.submit(fault_mode=False)
        assert noted == []

    def test_fault_mode_backups_note_pending_work(self):
        system, noted = self.submit(fault_mode=True)
        assert noted and sorted(noted) == sorted(self.backups(system))

    def test_scale_stalled_deployment_notes_no_pending_work(self):
        system, noted = self.submit(fault_mode=True, node_count=16)
        assert noted == []
