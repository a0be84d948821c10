"""The Section 4.5 metrics fold and bounded-memory record retention.

Every client folds each send and each resolved payload into per-phase
accumulators: counters, running extremes, an exact (Shewchuk-summed)
latency total, and either the raw latencies or a log-bucketed
histogram. :meth:`repro.coconut.metrics.PhaseMetrics.from_stream` reads
them; it is the only computation of the Section 4.5 metrics.

``BenchmarkConfig(stream_metrics=True)`` — or ``--stream-metrics`` on
``coconut run / experiment / search`` — only changes what happens to a
record once folded: it is retired at once, so client memory stays
bounded by payloads in flight rather than growing with offered load
(the harness's own scalability ceiling; Gromit, arXiv:2208.11254,
makes the general point that a benchmark is only credible while its
own overhead stays flat), and percentiles come from the histogram.

Equivalence contract (pinned by ``tests/stream/``): for any fixed seed
both retention modes report the same expected/received/failed/
invalidated counts, the same t_fstx/t_lrtx/duration/TPS, the same
(correctly rounded) MFLS and resilience reports, and p50/p95/p99 within
one histogram bucket of the retained records' exact values, for any
client/thread/worker merge order.
"""

from repro.stream.accumulator import (
    ClientStream,
    ExactSum,
    PhaseAccumulator,
    ResilienceAccumulator,
)
from repro.stream.histogram import BASE, RESOLUTION, LogHistogram
from repro.stream.spill import SpillSink, read_spill

__all__ = [
    "BASE",
    "RESOLUTION",
    "ClientStream",
    "ExactSum",
    "LogHistogram",
    "PhaseAccumulator",
    "ResilienceAccumulator",
    "SpillSink",
    "read_spill",
]
