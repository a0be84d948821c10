"""The COCONUT client application.

One client (Section 4.3) runs four workload threads that send payload
bundles sequentially — without waiting for finalization confirmations —
for the send window, rate-limited to the configured payloads/second per
client. The client keeps listening for finalization notifications for a
grace period after sending stops and terminates at the total deadline.
All timestamps of Figure 2 are taken here, on the client: ``starttime``
just before a payload is sent, ``endtime`` when its confirmation (a
commit on *all* nodes) arrives. Each send and each resolved payload is
folded into the phase's :class:`~repro.stream.accumulator.PhaseAccumulator`
at once; the Section 4.5 metrics are read from those accumulators only.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.coconut.bal import Driver, make_driver
from repro.coconut.config import BenchmarkConfig
from repro.coconut.workload import WorkloadPlan
from repro.net import Endpoint, Message
from repro.sim.events import Event
from repro.sim.kernel import Simulator
from repro.storage import Payload
from repro.storage.receipts import TxStatus
from repro.stream.accumulator import ClientStream, PhaseAccumulator
from repro.workloads.arrivals import build_schedule


@dataclasses.dataclass
class PayloadRecord:
    """The client-side life of one payload."""

    payload_id: str
    phase: str
    start_time: float
    end_time: typing.Optional[float] = None
    status: str = "pending"
    #: Confirmed but flagged invalid on-chain (Fabric MVCC conflicts);
    #: still counts as received per Section 5.4.
    invalid: bool = False

    @property
    def received(self) -> bool:
        """Whether a finalization confirmation arrived in time."""
        return self.status == "received"

    @property
    def latency(self) -> float:
        """End-to-end finalization latency (FLS)."""
        if self.end_time is None:
            raise ValueError(f"payload {self.payload_id} has no end time")
        return self.end_time - self.start_time


class CoconutClient(Endpoint):
    """One COCONUT client application endpoint."""

    def __init__(
        self,
        client_id: str,
        sim: Simulator,
        config: BenchmarkConfig,
        gateway_id: str,
    ) -> None:
        super().__init__(client_id)
        self.sim = sim
        self.config = config
        self.gateway_id = gateway_id
        self.driver: Driver = make_driver(
            config.system,
            client_id,
            ops_per_transaction=config.ops_per_transaction,
            txs_per_batch=config.txs_per_batch,
        )
        self.plan = WorkloadPlan(
            client_id,
            config.workload_threads,
            spec=config.workload,
            rng_streams=sim.rng.stream,
        )
        #: phase -> payload_id -> record. On the retain path this holds
        #: every payload ever offered; with ``config.stream_metrics`` it
        #: holds only payloads still in flight (records are dropped the
        #: moment they resolve).
        self.records: typing.Dict[str, typing.Dict[str, PayloadRecord]] = {}
        #: phase -> the fold of every send and resolved record.
        self.accumulators: typing.Dict[str, PhaseAccumulator] = {}
        self._payload_phase: typing.Dict[str, str] = {}
        self._listen_deadline: typing.Dict[str, float] = {}
        self.ignored_late_receipts = 0
        #: Retire-path state (None = records are retained).
        self.stream: typing.Optional[ClientStream] = (
            ClientStream(client_id) if config.stream_metrics else None
        )

    # ------------------------------------------------------------------
    # Driving a phase

    def run_phase(self, phase: str, start_at: float) -> Event:
        """Launch the phase's workload threads; fires at client shutdown."""
        config = self.config
        self.records.setdefault(phase, {})
        if phase not in self.accumulators:
            # Retained records allow exact nearest-rank percentiles;
            # retired ones leave only the histogram.
            self.accumulators[phase] = PhaseAccumulator(
                phase, keep_latencies=self.stream is None
            )
        send_deadline = start_at + config.scaled_send
        self._listen_deadline[phase] = start_at + config.scaled_listen
        threads = [
            self.sim.spawn(
                self._workload_thread(phase, thread, start_at, send_deadline),
                name=f"{self.endpoint_id}-{phase}-t{thread}",
            )
            for thread in range(config.workload_threads)
        ]
        done = self.sim.event(name=f"{self.endpoint_id}-{phase}-done")
        shutdown_at = start_at + config.scaled_total
        # The threads stop at the send deadline; the client itself (and
        # its event listening) terminates at the total deadline.
        self.sim.schedule(max(0.0, shutdown_at - self.sim.now), lambda: done.succeed(threads))
        return done

    def _workload_thread(
        self, phase: str, thread: int, start_at: float, send_deadline: float
    ) -> typing.Generator:
        config = self.config
        group = self.driver.group_size
        # Each thread carries its share of the client's rate limit; a
        # submission carries `group` payloads, so submissions are spaced
        # by group * threads / rate.
        interval = group * config.workload_threads / config.rate_limit
        arrival = self.plan.spec.for_phase(phase).arrival
        schedule = build_schedule(
            arrival,
            interval,
            config.scaled_send,
            thread,
            config.workload_threads,
            lambda: self.sim.rng.stream(
                f"workloads/{self.endpoint_id}/t{thread}/arrival"
            ),
        )
        sim = self.sim
        if sim.now < start_at:
            yield sim.timeout(start_at - sim.now)
        initial = schedule.initial_delay()
        if initial is None:
            return
        if initial > 0:
            # Only replay defers the first send; every other kind fires
            # at phase start exactly like the pre-workloads loop.
            yield sim.timeout(initial)
        # Send-loop invariants hoisted out of the loop: the tracer and
        # its category filter are fixed for the run, the phase's record
        # dict and the plan/RNG-stream lookups never change identity.
        endpoint_id = self.endpoint_id
        iel = config.iel
        payload_for = self.plan.payload_for
        phase_records = self.records[phase]
        payload_phase = self._payload_phase
        wrap = self.driver.wrap
        tracer = sim.tracer
        trace_txs = tracer.enabled and tracer.wants("client")
        stream = self.stream
        accumulator = self.accumulators[phase]
        while sim.now < send_deadline:
            payloads = []
            for __ in range(group):
                function, args = payload_for(iel, phase, thread)
                payloads.append(Payload.create(endpoint_id, iel, function, args))
            now = sim.now
            accumulator.on_send(now, count=len(payloads))
            for payload in payloads:
                payload_id = payload.payload_id
                phase_records[payload_id] = PayloadRecord(
                    payload_id=payload_id,
                    phase=phase,
                    start_time=now,
                )
                payload_phase[payload_id] = phase
                if trace_txs and tracer.sampled(payload_id):
                    # Submit -> confirm, closed in _record_end; payloads
                    # that never confirm stay open (drained at export).
                    tracer.begin(
                        ("tx", payload_id), "tx", category="client",
                        node=endpoint_id, phase=phase,
                    )
            if trace_txs:
                tracer.metrics.counter("client.sent", node=endpoint_id).inc(len(payloads))
            if stream is not None:
                stream.note_live(len(phase_records))
            bundle = wrap(payloads)
            self.send(
                self.gateway_id,
                "client/submit",
                bundle,
                size_bytes=getattr(bundle, "size_bytes", 256),
            )
            delay = schedule.next_delay(sim.now - start_at)
            if delay is None:
                return
            yield sim.timeout(delay)

    # ------------------------------------------------------------------
    # Event collection

    def on_message(self, message: Message) -> None:
        if message.kind == "client/receipt":
            for receipt in message.payload:
                self._record_end(
                    receipt.payload_id,
                    "received" if receipt.is_success else "failed",
                    invalid=receipt.status is TxStatus.INVALIDATED,
                )
        elif message.kind == "client/reject":
            reject = message.payload
            for payload_id in reject.payload_ids:
                self._record_end(payload_id, "failed")

    def _record_end(self, payload_id: str, status: str, invalid: bool = False) -> None:
        phase = self._payload_phase.get(payload_id)
        if phase is None:
            return
        tracer = self.sim.tracer
        if self.sim.now > self._listen_deadline.get(phase, float("inf")):
            self.ignored_late_receipts += 1
            if tracer.enabled:
                tracer.end(("tx", payload_id), status="late")
            return
        record = self.records[phase][payload_id]
        if record.end_time is not None:
            return
        record.end_time = self.sim.now
        record.status = status
        record.invalid = invalid
        if tracer.enabled:
            tracer.end(("tx", payload_id), status=status)
            if tracer.wants("client"):
                tracer.metrics.counter(f"client.{status}", node=self.endpoint_id).inc()
                tracer.metrics.histogram("client.fls", node=self.endpoint_id).record(
                    record.latency
                )
        if self.stream is None:
            self.accumulators[phase].on_retire(record)
        else:
            # Retire path: after the fold the record itself is dropped —
            # live records track in-flight payloads, not offered load.
            self.stream.retire(self.accumulators[phase], record)
            del self.records[phase][payload_id]
            del self._payload_phase[payload_id]

    # ------------------------------------------------------------------
    # Phase accounting

    def phase_records(self, phase: str) -> typing.List[PayloadRecord]:
        """All records of one phase (in flight only on the retire path)."""
        return list(self.records.get(phase, {}).values())

    def finish_phase(self, phase: str) -> int:
        """Retire-path teardown: spill and drop still-pending records.

        Called by the runner after the phase's metrics are taken. Any
        record left is a payload that never resolved inside the listen
        window; it already counts in ``sent`` (and as an in-window loss
        when resilience is armed), so it only needs spilling — keeping
        it would grow memory phase over phase. Returns how many records
        were dropped. No-op on the retain path.
        """
        if self.stream is None:
            return 0
        leftover = self.records.get(phase)
        if not leftover:
            return 0
        for payload_id, record in leftover.items():
            self.stream.expire(record)
            self._payload_phase.pop(payload_id, None)
        dropped = len(leftover)
        leftover.clear()
        return dropped

