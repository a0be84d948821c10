"""Retain-vs-retire equivalence: the two record-retention modes.

Both modes fold every send and resolved record into the same
:class:`~repro.stream.accumulator.PhaseAccumulator`; they differ only in
whether the record is kept afterwards (``stream_metrics=False``) or
dropped (``stream_metrics=True``). For any seeded config the two must
report the same benchmark outcome:

* expected/received/failed/invalidated NoT, t_fstx, t_lrtx, duration
  and TPS **exactly equal** (sums and min/max are order-insensitive);
* MFLS **exactly equal**: both modes take the correctly rounded mean
  of one Shewchuk exact sum (``ExactSum``);
* p50/p95/p99 within one histogram bucket (~2.6% relative) of the
  retain path's exact nearest-rank values;
* resilience reports under fault plans **byte-identical**;
* parallel fan-out of streamed units byte-identical to serial.
"""

import pytest

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.faults import FaultPlan
from repro.parallel import ParallelExecutor, SerialExecutor
from repro.stream import BASE, RESOLUTION
from repro.workloads import AccessSpec, ArrivalSpec, PhaseOverride, WorkloadSpec

#: One bucket's relative span: the documented percentile error bound.
BUCKET_WIDTH = BASE ** (1.0 / RESOLUTION)

#: Per-client rates well under each system's knee at the test scale, so
#: runs are cheap but still confirm a few hundred transactions.
RATES = {
    "fabric": 20,
    "quorum": 10,
    "bitshares": 20,
    "sawtooth": 4,
    "diem": 10,
    "corda_os": 4,
    "corda_enterprise": 4,
}

ALL_SYSTEMS = sorted(RATES)


def run_pair(system, iel="KeyValue", scale=0.02, seed=3, **kwargs):
    """The same unit measured with records retained and with records retired."""
    outcomes = {}
    runners = {}
    for stream in (False, True):
        config = BenchmarkConfig(
            system=system, iel=iel, rate_limit=RATES[system], scale=scale,
            repetitions=1, seed=seed, stream_metrics=stream, **kwargs,
        )
        runner = BenchmarkRunner(keep_last_rig=False)
        outcomes[stream] = runner.run(config)
        runners[stream] = runner
    return outcomes[False], outcomes[True], runners


def assert_equivalent(exact, stream):
    assert set(exact.phases) == set(stream.phases)
    confirmed_any = False
    for phase in exact.phases:
        pairs = zip(exact.phases[phase].repetitions, stream.phases[phase].repetitions)
        for e, s in pairs:
            context = f"{exact.label} {phase}"
            assert s.expected == e.expected, context
            assert s.received == e.received, context
            assert s.failed == e.failed, context
            assert s.invalidated == e.invalidated, context
            assert s.t_first_send == e.t_first_send, context
            assert s.t_last_receive == e.t_last_receive, context
            assert s.duration == e.duration, context
            assert s.tps == e.tps, context
            assert s.mean_fls == e.mean_fls, context
            for q_exact, q_stream in (
                (e.p50_fls, s.p50_fls),
                (e.p95_fls, s.p95_fls),
                (e.p99_fls, s.p99_fls),
            ):
                if q_exact == 0.0:
                    assert q_stream == 0.0, context
                else:
                    assert q_exact / BUCKET_WIDTH <= q_stream <= q_exact * BUCKET_WIDTH, (
                        f"{context}: {q_stream} vs exact {q_exact}"
                    )
            assert s.latency_histogram is not None, context
            if s.received:
                confirmed_any = True
                assert s.latency_histogram["total"] == s.received, context
    assert confirmed_any, f"{exact.label}: nothing confirmed; test proves nothing"


class TestAllSystems:
    @pytest.mark.parametrize("system", ALL_SYSTEMS)
    def test_keyvalue_equivalent(self, system):
        exact, stream, runners = run_pair(system)
        assert_equivalent(exact, stream)
        # The bounded-memory observable: in-flight records, not offered
        # load. A slow system at this tiny scale may legitimately hold
        # every payload in flight, so the hard bound is the per-client
        # offered load; systems that confirm within the send window must
        # stay strictly under it.
        peak = runners[True].last_stream_peak
        expected_per_client = exact.phases[next(iter(exact.phases))].repetitions[0].expected // 4
        assert peak is not None and 0 < peak <= expected_per_client
        if system in ("fabric", "quorum"):
            assert peak < expected_per_client // 2


class TestRepresentativeWorkloads:
    def test_fabric_zipfian_rmw(self):
        # Contended read-modify-writes: the invalidated counter is live.
        workload = WorkloadSpec(
            name="zipf-rmw",
            access=AccessSpec(kind="zipfian", theta=0.99, key_space=200, shared=True),
            phases=(("Set", PhaseOverride(mix=(("Rmw", 1.0),))),),
        )
        exact, stream, __ = run_pair(
            "fabric", workload=workload, phases=("Set",), seed=2330
        )
        assert_equivalent(exact, stream)
        set_metrics = exact.phases["Set"].repetitions[0]
        assert set_metrics.invalidated > 0  # the workload did contend

    def test_quorum_burst_arrival(self):
        workload = WorkloadSpec(
            name="burst",
            arrival=ArrivalSpec(kind="burst", on_s=1.0, off_s=1.0),
        )
        exact, stream, __ = run_pair("quorum", workload=workload, seed=2330)
        assert_equivalent(exact, stream)

    def test_multi_phase_banking_unit(self):
        exact, stream, __ = run_pair("quorum", iel="BankingApp", seed=5)
        assert_equivalent(exact, stream)


class TestUnderFaults:
    @pytest.mark.parametrize("system", ("fabric", "quorum"))
    def test_resilience_reports_byte_identical(self, system):
        plan = FaultPlan().kill_leader(at=0.5).restart("leader", at=1.5)
        exact, stream, runners = run_pair(
            system, iel="DoNothing", fault_plan=plan, seed=7
        )
        assert_equivalent(exact, stream)
        exact_res = {p: r.to_dict() for p, r in runners[False].last_resilience.items()}
        stream_res = {p: r.to_dict() for p, r in runners[True].last_resilience.items()}
        assert exact_res  # the fault run did produce reports
        assert stream_res == exact_res
        # The report also rides on the phase metrics.
        for phase in exact.phases:
            for e, s in zip(
                exact.phases[phase].repetitions, stream.phases[phase].repetitions
            ):
                assert s.resilience == e.resilience


class TestParallelMerge:
    def test_jobs2_matches_serial(self):
        configs = [
            BenchmarkConfig(system=system, iel="DoNothing", rate_limit=RATES[system],
                            scale=0.02, repetitions=1, seed=11, stream_metrics=True)
            for system in ("fabric", "quorum", "bitshares")
        ]
        serial = [o.result.to_dict() for o in SerialExecutor().run_units(configs)]
        parallel = [
            o.result.to_dict() for o in ParallelExecutor(jobs=2).run_units(configs)
        ]
        assert parallel == serial
        # Streamed payloads round-trip the worker boundary intact.
        for unit in serial:
            assert any(
                "latency_histogram" in rep
                for phase in unit["phases"].values()
                for rep in phase["repetitions"]
            )


class TestDeterminism:
    def test_streamed_run_repeats_byte_identical(self):
        first = run_pair("fabric")[1]
        second = run_pair("fabric")[1]
        assert first.to_dict() == second.to_dict()
