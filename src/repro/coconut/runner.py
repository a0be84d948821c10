"""Benchmark orchestration.

Runs one benchmark unit: for each repetition, provision a fresh rig
(Section 4.1), wait out the system's stabilization time (Section 4.4),
then execute the unit's phases back to back — every phase is a full
send/listen/terminate cycle (Section 4.3) — and compute the Section 4.5
metrics from the clients' phase accumulators.
"""

from __future__ import annotations

import typing

from repro.coconut.config import BenchmarkConfig
from repro.coconut.metrics import PhaseMetrics
from repro.coconut.provisioner import Provisioner, Rig
from repro.coconut.results import PhaseResult, ResultStore, UnitResult
from repro.faults import FaultInjector, ResilienceReport
from repro.invariants import InvariantChecker, InvariantReport
from repro.stream.accumulator import ResilienceAccumulator

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.stream.spill import SpillSink
    from repro.trace.tracer import Tracer


class BenchmarkRunner:
    """Executes benchmark units and aggregates their results."""

    def __init__(
        self,
        store: typing.Optional[ResultStore] = None,
        provisioner: typing.Optional[Provisioner] = None,
        progress: typing.Optional[typing.Callable[[str], None]] = None,
        tracer: typing.Optional["Tracer"] = None,
        keep_last_rig: bool = True,
        check: bool = False,
        check_level: str = "basic",
        spill: typing.Optional["SpillSink"] = None,
    ) -> None:
        self.store = store
        self.provisioner = provisioner or Provisioner()
        self.progress = progress or (lambda message: None)
        #: Installed on every repetition's simulator when set, so one
        #: tracer collects the whole unit (phases carry repetition attrs).
        self.tracer = tracer
        #: Whether to install an invariant checker on every repetition's
        #: simulator. Each repetition gets a fresh checker (a fresh rig
        #: restarts every chain at height zero, which a shared checker
        #: would misread as an agreement violation); the unit-level
        #: report is their merge.
        self.check = check
        self.check_level = check_level
        #: Whether to pin the most recent repetition's rig for post-run
        #: inspection (block statistics, chain validation). Sweep drivers
        #: disable this: retaining a full simulated deployment per unit
        #: bloats memory across large parameter sweeps.
        self.keep_last_rig = keep_last_rig
        self.last_rig: typing.Optional[Rig] = None
        #: Phase -> resilience report of the most recent repetition that
        #: ran under a fault plan (empty for healthy runs). Rebuilt from
        #: the phase metrics' report dict, as cached and pooled results
        #: are, so it carries every scalar but no bucket timeline.
        self.last_resilience: typing.Dict[str, ResilienceReport] = {}
        #: The most recent unit's merged invariant report (None when the
        #: unit ran unchecked).
        self.last_invariants: typing.Optional[InvariantReport] = None
        #: Full-fidelity record sink attached to retire-path clients (the
        #: spill path of :mod:`repro.stream`); ignored when records are
        #: retained.
        self.spill = spill
        #: Most payload records simultaneously tracked by any client of
        #: the most recent retire-path unit — the bounded-memory
        #: observable (None after retain-path runs, whose live count
        #: equals the total offered load by construction).
        self.last_stream_peak: typing.Optional[int] = None
        #: Records written to the spill sink by the most recent unit.
        self.last_stream_spilled: int = 0

    def run(self, config: BenchmarkConfig) -> UnitResult:
        """Run one benchmark unit, all repetitions, all phases."""
        # Cleared unconditionally: a reused runner must not report the
        # previous unit's resilience data after a healthy run.
        self.last_resilience = {}
        self.last_invariants = None
        self.last_stream_peak = None
        self.last_stream_spilled = 0
        phases = config.phase_sequence
        per_phase: typing.Dict[str, typing.List[PhaseMetrics]] = {p: [] for p in phases}
        reports: typing.List[InvariantReport] = []
        for repetition in range(config.repetitions):
            self.progress(f"{config.label()} repetition {repetition + 1}/{config.repetitions}")
            rig = self.provisioner.provision(config, repetition)
            if config.stream_metrics and self.spill is not None:
                self.spill.set_context(label=config.label(), repetition=repetition)
                for client in rig.clients:
                    assert client.stream is not None
                    client.stream.sink = self.spill
            if self.tracer is not None:
                rig.sim.set_tracer(self.tracer)
            if self.check:
                rig.sim.set_checker(
                    InvariantChecker(
                        level=self.check_level, iel=config.iel, repetition=repetition
                    )
                )
            metrics = self._run_repetition(rig, config, repetition)
            if self.check:
                report = rig.sim.checker.finalize(rig.system)
                reports.append(report)
                # The report spans the whole repetition; it rides on the
                # final phase's metrics next to the resilience data.
                metrics[phases[-1]].invariants = report.to_dict()
                self.progress(f"  invariants: {report.render()}")
            if self.keep_last_rig:
                self.last_rig = rig
            for phase, phase_metrics in metrics.items():
                per_phase[phase].append(phase_metrics)
        if self.check:
            self.last_invariants = InvariantReport.merge(reports)
        result = UnitResult(
            label=config.label(),
            system=config.system,
            iel=config.iel,
            aggregate_rate=config.aggregate_rate,
            params=dict(config.params),
            scale=config.scale,
            phases={
                phase: PhaseResult(phase=phase, repetitions=reps)
                for phase, reps in per_phase.items()
            },
        )
        if self.store is not None:
            self.store.save(result)
        return result

    def _run_repetition(
        self, rig: Rig, config: BenchmarkConfig, repetition: int
    ) -> typing.Dict[str, PhaseMetrics]:
        """One repetition: run every phase of the unit sequentially."""
        clock = rig.system.stabilization_time
        metrics: typing.Dict[str, PhaseMetrics] = {}
        tracer = rig.sim.tracer
        injector: typing.Optional[FaultInjector] = None
        if config.fault_plan:
            # Action times are offsets from the first phase's start.
            injector = FaultInjector(rig.sim, rig.system, config.fault_plan)
            injector.install(epoch=clock)
            self.last_resilience = {}
        checker = rig.sim.checker
        for phase in config.phase_sequence:
            if checker.enabled:
                checker.set_phase(phase)
            # All clients wait for each other and start together
            # (Section 4.3: uniform load distribution).
            phase_start = clock
            for client in rig.clients:
                client.run_phase(phase, clock)
            clock += config.scaled_total
            window = self._fault_window(injector, phase_start, clock)
            if window is not None:
                # Both windows are known before anything executes, so the
                # resilience timeline is filled as payloads resolve.
                for client in rig.clients:
                    client.accumulators[phase].resilience = ResilienceAccumulator(
                        *window, phase_start=phase_start, phase_end=clock
                    )
            rig.sim.run(until=clock)
            if tracer.enabled:
                tracer.record_span(
                    "phase", category="bench", start=phase_start, end=clock,
                    phase=phase, repetition=repetition, system=config.system,
                    iel=config.iel,
                )
            metrics[phase] = PhaseMetrics.from_clients(rig.clients, phase, repetition)
            if window is not None:
                report = ResilienceReport.from_dict(
                    typing.cast(dict, metrics[phase].resilience)
                )
                self.last_resilience[phase] = report
                self.progress(f"  {phase} resilience: {report.render()}")
            # Retire path: records that never resolved are spilled and
            # dropped so live state cannot accumulate phase over phase.
            for client in rig.clients:
                client.finish_phase(phase)
            self.progress(
                f"  {phase}: {metrics[phase].received}/{metrics[phase].expected} received, "
                f"tps={metrics[phase].tps:.2f}, fls={metrics[phase].mean_fls:.2f}s"
            )
        if config.stream_metrics:
            peak = max(client.stream.peak_live for client in rig.clients)
            if self.last_stream_peak is None or peak > self.last_stream_peak:
                self.last_stream_peak = peak
            self.last_stream_spilled += sum(
                client.stream.spilled for client in rig.clients
            )
            self.progress(f"  stream: peak live records/client {peak}")
        return metrics

    @staticmethod
    def _fault_window(
        injector: typing.Optional[FaultInjector], phase_start: float, phase_end: float
    ) -> typing.Optional[typing.Tuple[float, float]]:
        """The fault window clipped to a phase, or None if it misses the phase."""
        if injector is None:
            return None
        window = injector.fault_window()
        if window is None or window[0] >= phase_end or window[1] <= phase_start:
            return None
        return max(window[0], phase_start), min(window[1], phase_end)

    def run_many(self, configs: typing.Iterable[BenchmarkConfig]) -> typing.List[UnitResult]:
        """Run a batch of units, dropping rigs between them.

        Multi-unit drivers never keep rigs: retaining one full simulated
        deployment per unit accumulates every deployment in memory over
        a batch. ``keep_last_rig`` is restored afterwards so a reused
        runner keeps its single-unit behaviour.
        """
        keep = self.keep_last_rig
        self.keep_last_rig = False
        try:
            return [self.run(config) for config in configs]
        finally:
            self.keep_last_rig = keep
