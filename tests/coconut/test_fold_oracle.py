"""The accumulator fold against the record-scanning code it replaced.

The reference functions below are verbatim copies of the record-scan
implementations that computed the Section 4.5 metrics and the
resilience report before the fold became the only path:
``CoconutClient.phase_summary`` (+ ``PhaseSummary``),
``PhaseMetrics.from_clients`` and ``ResilienceReport.from_records``.
Only their signatures changed (methods became functions; ``cls`` names
the class). They are the oracle the properties compare the fold with,
over random multi-client record sets mixing pending, received, failed
and invalid payloads, with fault windows on bucket edges, empty phases
and total failure:

* every :class:`PhaseMetrics` field is bit-equal except ``mean_fls``;
* ``mean_fls`` is exactly ``math.fsum(latencies) / n`` (the correctly
  rounded mean) and within 1e-12 relative of the reference's naive
  left-to-right mean;
* the :class:`ResilienceReport` (``to_dict()`` and ``timeline``) is
  byte-equal.
"""

from __future__ import annotations

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.coconut.client import PayloadRecord
from repro.coconut.metrics import PhaseMetrics, percentile
from repro.faults.metrics import RECOVERY_TOLERANCE, ResilienceReport
from repro.stream.accumulator import PhaseAccumulator
from tests.coconut.test_metrics import FakeClient

PHASE = "Set"

# ----------------------------------------------------------------------
# Reference: the record-scan path, verbatim


@dataclasses.dataclass
class PhaseSummary:
    """One client's single-pass phase accounting (exact path)."""

    sent: int
    failed: int
    received: typing.List[PayloadRecord]
    first_send: typing.Optional[float]
    last_receive: typing.Optional[float]


class ReferenceClient:
    """A client that only retains records, as the reference reads them."""

    def __init__(self, records: typing.Dict[str, typing.Dict[str, PayloadRecord]]) -> None:
        self.records = records

    def phase_summary(self, phase: str) -> "PhaseSummary":
        sent = 0
        failed = 0
        received: typing.List[PayloadRecord] = []
        first_send: typing.Optional[float] = None
        last_receive: typing.Optional[float] = None
        for record in self.records.get(phase, {}).values():
            sent += 1
            if first_send is None or record.start_time < first_send:
                first_send = record.start_time
            if record.received:
                received.append(record)
                if last_receive is None or record.end_time > last_receive:
                    last_receive = record.end_time
            elif record.status == "failed":
                failed += 1
        return PhaseSummary(
            sent=sent,
            failed=failed,
            received=received,
            first_send=first_send,
            last_receive=last_receive,
        )


def reference_from_clients(clients, phase: str, repetition: int) -> PhaseMetrics:
    cls = PhaseMetrics
    summaries = [client.phase_summary(phase) for client in clients]
    expected = sum(summary.sent for summary in summaries)
    received_records = [
        record for summary in summaries for record in summary.received
    ]
    failed = sum(summary.failed for summary in summaries)
    first_sends = [
        summary.first_send for summary in summaries if summary.first_send is not None
    ]
    last_receives = [
        summary.last_receive
        for summary in summaries
        if summary.last_receive is not None
    ]
    if not received_records or not first_sends or not last_receives:
        # Total failure: the paper reports 0 MTPS / 0 s (Table 15).
        return cls(
            phase=phase,
            repetition=repetition,
            expected=expected,
            received=0,
            failed=failed,
            t_first_send=min(first_sends) if first_sends else 0.0,
            t_last_receive=0.0,
            duration=0.0,
            tps=0.0,
            mean_fls=0.0,
        )
    t_fstx = min(first_sends)
    t_lrtx = max(last_receives)
    duration = t_lrtx - t_fstx
    tps = len(received_records) / duration if duration > 0 else 0.0
    latencies = sorted(record.latency for record in received_records)
    mean_fls = sum(latencies) / len(latencies)
    return cls(
        phase=phase,
        repetition=repetition,
        expected=expected,
        received=len(received_records),
        failed=failed,
        t_first_send=t_fstx,
        t_last_receive=t_lrtx,
        duration=duration,
        tps=tps,
        mean_fls=mean_fls,
        p50_fls=percentile(latencies, 50),
        p95_fls=percentile(latencies, 95),
        p99_fls=percentile(latencies, 99),
        invalidated=sum(1 for record in received_records if record.invalid),
    )


def reference_from_records(
    records: typing.Iterable[object],
    *,
    fault_start: float,
    fault_end: float,
    phase_start: float,
    phase_end: float,
    bucket_width: float = 1.0,
    tolerance: float = RECOVERY_TOLERANCE,
) -> ResilienceReport:
    cls = ResilienceReport
    if bucket_width <= 0:
        raise ValueError(f"bucket_width must be > 0, got {bucket_width}")
    if phase_end <= phase_start:
        raise ValueError("phase_end must be after phase_start")
    records = list(records)
    span = phase_end - phase_start
    bucket_count = max(1, int(math.ceil(span / bucket_width)))
    counts = [0] * bucket_count
    sent_in_window = committed_in_window = lost_in_window = 0
    pre_fault_commits = 0
    for record in records:
        start = typing.cast(float, getattr(record, "start_time"))
        end = typing.cast(typing.Optional[float], getattr(record, "end_time"))
        received = bool(getattr(record, "received"))
        in_window = fault_start <= start <= fault_end
        if in_window:
            sent_in_window += 1
            if not received:
                lost_in_window += 1
        if not received or end is None:
            continue
        if fault_start <= end <= fault_end:
            committed_in_window += 1
        if end < fault_start:
            pre_fault_commits += 1
        index = int((end - phase_start) / bucket_width)
        if 0 <= index < bucket_count:
            counts[index] += 1
    timeline = [count / bucket_width for count in counts]
    baseline_window = max(0.0, fault_start - phase_start)
    baseline_tps = pre_fault_commits / baseline_window if baseline_window > 0 else 0.0
    # Worst bucket whose span intersects the fault window.
    first_fault_bucket = max(0, int((fault_start - phase_start) / bucket_width))
    last_fault_bucket = min(
        bucket_count - 1, int((fault_end - phase_start) / bucket_width)
    )
    if first_fault_bucket <= last_fault_bucket:
        dip_tps = min(timeline[first_fault_bucket : last_fault_bucket + 1])
    else:
        dip_tps = baseline_tps
    dip_depth = 0.0
    if baseline_tps > 0:
        dip_depth = max(0.0, 1.0 - dip_tps / baseline_tps)
    time_to_recover: typing.Optional[float] = None
    if baseline_tps > 0:
        threshold = tolerance * baseline_tps
        first_post_bucket = int(math.ceil((fault_end - phase_start) / bucket_width))
        for index in range(max(0, first_post_bucket), bucket_count):
            if timeline[index] >= threshold:
                bucket_end = phase_start + (index + 1) * bucket_width
                time_to_recover = max(0.0, bucket_end - fault_end)
                break
    return cls(
        fault_start=fault_start,
        fault_end=fault_end,
        bucket_width=bucket_width,
        timeline=timeline,
        timeline_start=phase_start,
        baseline_tps=baseline_tps,
        dip_tps=dip_tps,
        dip_depth=dip_depth,
        time_to_recover=time_to_recover,
        sent_in_window=sent_in_window,
        committed_in_window=committed_in_window,
        lost_in_window=lost_in_window,
    )


# ----------------------------------------------------------------------
# Strategies

#: Times on a quarter-second grid hit 1 s bucket edges and window edges
#: exactly; free floats cover everything in between.
grid_time = st.integers(min_value=0, max_value=48).map(lambda i: i * 0.25)
free_time = st.floats(min_value=0.0, max_value=12.0, allow_nan=False)
times = st.one_of(grid_time, free_time)

outcomes = st.one_of(
    st.just(("pending", None, False)),
    st.tuples(st.sampled_from(("received", "failed")), times, st.booleans()),
)


def build_records(specs, client: int) -> typing.List[PayloadRecord]:
    records = []
    for index, (start, (status, latency, invalid)) in enumerate(specs):
        records.append(
            PayloadRecord(
                payload_id=f"c{client}-p{index}",
                phase=PHASE,
                start_time=start,
                end_time=None if latency is None else start + latency,
                status=status,
                invalid=invalid,
            )
        )
    return records


client_specs = st.lists(
    st.lists(st.tuples(times, outcomes), max_size=30), min_size=1, max_size=4
)


@st.composite
def windows(draw):
    """Phase window plus a fault window inside it, as the runner clips it."""
    phase_start = draw(st.sampled_from((0.0, 1.0, 2.5)))
    phase_end = phase_start + draw(st.one_of(
        st.integers(min_value=1, max_value=14).map(float),
        st.floats(min_value=0.25, max_value=14.0, allow_nan=False),
    ))
    edges = sorted(draw(st.lists(
        st.one_of(
            st.integers(min_value=0, max_value=56).map(lambda i: phase_start + i * 0.25),
            st.floats(min_value=phase_start, max_value=phase_end, allow_nan=False),
        ).map(lambda t: min(t, phase_end)),
        min_size=2, max_size=2,
    )))
    return dict(fault_start=edges[0], fault_end=edges[1],
                phase_start=phase_start, phase_end=phase_end)


# ----------------------------------------------------------------------
# Properties


def assert_metrics_match(fold: PhaseMetrics, reference: PhaseMetrics, records) -> None:
    fold_fields = dataclasses.asdict(fold)
    reference_fields = dataclasses.asdict(reference)
    fold_mean = fold_fields.pop("mean_fls")
    reference_mean = reference_fields.pop("mean_fls")
    assert fold_fields == reference_fields
    latencies = [record.latency for record in records if record.received]
    if latencies:
        assert fold_mean == math.fsum(latencies) / len(latencies)
        assert fold_mean == pytest.approx(reference_mean, rel=1e-12, abs=0.0)
    else:
        assert fold_mean == reference_mean == 0.0


class TestMetricsAgainstRecordScan:
    @settings(max_examples=150, deadline=None)
    @given(client_specs)
    def test_every_field_matches(self, specs):
        per_client = [build_records(client, index) for index, client in enumerate(specs)]
        fold = PhaseMetrics.from_clients(
            [FakeClient(records) for records in per_client], PHASE, repetition=2
        )
        reference = reference_from_clients(
            [ReferenceClient({PHASE: {r.payload_id: r for r in records}})
             for records in per_client],
            PHASE, repetition=2,
        )
        everything = [record for records in per_client for record in records]
        assert_metrics_match(fold, reference, everything)
        assert fold.latency_histogram is None

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.lists(st.tuples(times, st.sampled_from((
        ("pending", None, False), ("failed", 0.5, False), ("failed", 1.0, True),
    )))), min_size=1, max_size=4))
    def test_total_failure_matches(self, specs):
        per_client = [build_records(client, index) for index, client in enumerate(specs)]
        fold = PhaseMetrics.from_clients(
            [FakeClient(records) for records in per_client], PHASE, 0
        )
        reference = reference_from_clients(
            [ReferenceClient({PHASE: {r.payload_id: r for r in records}})
             for records in per_client],
            PHASE, 0,
        )
        assert fold == reference
        assert fold.received == 0 and fold.tps == 0.0

    def test_empty_phase_matches(self):
        fold = PhaseMetrics.from_clients([FakeClient([]), FakeClient([])], PHASE, 0)
        reference = reference_from_clients(
            [ReferenceClient({}), ReferenceClient({PHASE: {}})], PHASE, 0
        )
        assert fold == reference


class TestResilienceAgainstRecordScan:
    @settings(max_examples=150, deadline=None)
    @given(client_specs, windows())
    def test_report_byte_equal(self, specs, window):
        per_client = [build_records(client, index) for index, client in enumerate(specs)]
        clients = [FakeClient(records, window=window) for records in per_client]
        merged = PhaseAccumulator.merged([c.accumulators[PHASE] for c in clients], PHASE)
        assert merged.resilience is not None
        fold = merged.resilience.report()
        reference = reference_from_records(
            [record for records in per_client for record in records], **window
        )
        assert json.dumps(fold.to_dict()) == json.dumps(reference.to_dict())
        assert repr(fold.timeline) == repr(reference.timeline)
        assert fold == reference

    def test_pending_in_window_sends_are_losses(self):
        window = dict(fault_start=2.0, fault_end=4.0, phase_start=0.0, phase_end=10.0)
        records = build_records(
            [(2.0, ("pending", None, False)), (3.0, ("received", 0.5, False)),
             (4.0, ("failed", 1.0, False)), (5.0, ("pending", None, False))],
            client=0,
        )
        fold = FakeClient(records, window=window).accumulators[PHASE].resilience.report()
        assert fold == reference_from_records(records, **window)
        assert (fold.sent_in_window, fold.lost_in_window) == (3, 2)

    def test_total_failure_report_matches(self):
        window = dict(fault_start=0.0, fault_end=3.0, phase_start=0.0, phase_end=6.0)
        records = build_records(
            [(float(t), ("failed", 0.5, False)) for t in range(6)], client=0
        )
        fold = FakeClient(records, window=window).accumulators[PHASE].resilience.report()
        reference = reference_from_records(records, **window)
        assert fold == reference
        assert fold.timeline == [0.0] * 6 and not fold.recovered
