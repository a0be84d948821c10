"""One benchmark run: one workload, one seed, a fixed measuring time.

:meth:`Bench.end_to_end` gives the end-to-end metrics, and
:meth:`Bench.traced` the per-layer metrics of :mod:`layers`. Both start
with the strict-checked run of :meth:`Bench.gate`, whose simulated
metrics every later unit of the run must reproduce exactly.
"""

from __future__ import annotations

import gc
import json
import pathlib
import statistics
import subprocess
import sys
import time
import traceback
import typing

import calibrate
import layers
import units
from repro.coconut.runner import BenchmarkRunner

HERE = pathlib.Path(__file__).resolve().parent

#: Set-up-only fresh-process probes per run; ``setup_s`` is the median
#: over them and the full probe, which times its set-up too.
SETUP_PROBES = 9
PROBE_TIMEOUT_S = 150

#: End-to-end metric -> unit, in report order.
END_TO_END = {
    "wall_norm_s": "s", "cpu_norm_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "sim_mtps": "tx/s", "sim_mfls_s": "s", "sim_fls_p99_s": "s",
    "sim_confirmed_frac": "ratio",
}

Problems = typing.List[str]


class Bench:
    """Runs one workload for one seed and keeps score of its operations.

    An operation is one unit run or one fresh-process probe; it fails
    when it raises or one of its checks fails.
    """

    def __init__(self, workload_name: str, seed: int) -> None:
        self.workload = units.WORKLOADS[workload_name]
        self.seed = seed
        self.config = self.workload.build(seed)
        self.attempted = 0
        self.failed = 0
        #: Simulated metrics of the strict-checked run.
        self.reference: typing.Optional[typing.Dict[str, float]] = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and self.reference is not None

    def operation(self, label: str, fn: typing.Callable[[], typing.Tuple[Problems, typing.Any]]):
        """Run one operation; returns its value, or None when it failed."""
        self.attempted += 1
        try:
            problems, value = fn()
        except Exception:  # noqa: BLE001 - a failed operation is a result, not a crash
            problems, value = [f"raised:\n{traceback.format_exc()}"], None
        for problem in problems:
            print(f"perfbench: {label}: {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
            return None
        return value

    def _outcome_problems(self, result, runner: BenchmarkRunner) -> Problems:
        problems = units.check_unit(result, runner)
        sim = units.sim_metrics(result)
        if self.reference is None:
            self.reference = sim
        elif sim != self.reference:
            problems.append(f"simulated metrics {sim} differ from {self.reference}")
        return problems

    # -- operations ----------------------------------------------------

    def gate(self) -> None:
        """The untimed strict-checked run that fixes the reference outcome."""

        def run():
            runner = BenchmarkRunner(check=True, check_level="strict")
            result = runner.run(self.config)
            problems = self._outcome_problems(result, runner)
            report = runner.last_invariants
            if report is None or not report.ok:
                problems.append(f"invariants: {report.render() if report else 'not checked'}")
            return problems, None

        self.operation("strict run", run)

    def timed_unit(self) -> typing.Optional[typing.Tuple[float, float]]:
        """One untraced unit; its wall and CPU seconds."""

        def run():
            runner = BenchmarkRunner()
            gc.collect()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            result = runner.run(self.config)
            timing = (time.perf_counter() - wall0, time.process_time() - cpu0)
            return self._outcome_problems(result, runner), timing

        return self.operation("timed run", run)

    def traced_unit(self, first: typing.Optional[dict]) -> typing.Optional[dict]:
        """One traced unit; its per-layer metrics, whose counts must equal
        those of ``first`` (the run's first traced unit)."""

        def run():
            runner = BenchmarkRunner()
            gc.collect()
            with layers.LayerTrace() as trace:
                result = runner.run(self.config)
            problems = self._outcome_problems(result, runner)
            metrics, trace_problems = layers.layer_metrics(trace, result, runner, self.workload)
            problems += trace_problems
            if first is not None and layers.counts(metrics) != layers.counts(first):
                problems.append("per-layer counts differ between runs of one seed")
            return problems, metrics

        return self.operation("traced run", run)

    def probe(self, full: bool) -> typing.Optional[dict]:
        """One fresh-process probe (see child.py)."""

        def run():
            command = [
                sys.executable, str(HERE / "child.py"),
                "--workload", self.workload.name, "--seed", str(self.seed),
            ] + (["--full"] if full else [])
            done = subprocess.run(
                command, cwd=HERE.parent, capture_output=True, text=True,
                timeout=PROBE_TIMEOUT_S, check=False,
            )
            if done.returncode != 0:
                return [f"exited {done.returncode}: {done.stderr.strip()[-2000:]}"], None
            out = json.loads(done.stdout.strip().splitlines()[-1])
            if full and out["sim"] != self.reference:
                return [f"fresh process gave {out['sim']}, this one {self.reference}"], None
            return [], out

        return self.operation("probe", run)

    # -- the two kinds of run ------------------------------------------

    def end_to_end(self, seconds: float) -> typing.Dict[str, float]:
        """The strict run, fresh-process probes, then timed units for
        ``seconds``, each between two calibration runs."""
        self.gate()
        probes = [p for p in (self.probe(full=False) for _ in range(SETUP_PROBES)) if p]
        full = self.probe(full=True)
        if full is not None:
            probes.append(full)
        raw: typing.List[typing.Tuple[float, float]] = []
        normalised: typing.List[typing.Tuple[float, float]] = []
        before = calibrate.measure()
        deadline = time.perf_counter() + seconds
        while True:
            timing = self.timed_unit()
            after = calibrate.measure()
            if timing is not None:
                raw.append(timing)
                normalised.append(tuple(
                    t * calibrate.REFERENCE_S / ((b + a) / 2)
                    for t, b, a in zip(timing, before, after)
                ))
            before = after
            if time.perf_counter() >= deadline:
                break

        metrics = dict.fromkeys(END_TO_END, 0.0)
        if normalised:
            metrics["wall_norm_s"] = statistics.median(t[0] for t in normalised)
            metrics["cpu_norm_s"] = statistics.median(t[1] for t in normalised)
            print(f"{self.workload.name}: {len(raw)} units, raw median wall "
                  f"{statistics.median(t[0] for t in raw):.4f} s, cpu "
                  f"{statistics.median(t[1] for t in raw):.4f} s")
        if probes:
            metrics["setup_s"] = statistics.median(
                p["setup_s"] * calibrate.REFERENCE_S / p["calibration_s"] for p in probes
            )
            print(f"{self.workload.name}: raw median set-up "
                  f"{statistics.median(p['setup_s'] for p in probes):.4f} s")
        if full is not None:
            metrics["peak_rss_mb"] = full["peak_rss_mb"]
        metrics.update(self.reference or {})
        return metrics

    def traced(self, seconds: float) -> typing.Dict[str, float]:
        """The strict run, then untraced and traced units in turn for
        ``seconds``."""
        self.gate()
        walls: typing.List[float] = []
        traces: typing.List[dict] = []
        deadline = time.perf_counter() + seconds
        while True:
            timing = self.timed_unit()
            if timing is not None:
                walls.append(timing[0])
            metrics = self.traced_unit(traces[0] if traces else None)
            if metrics is not None:
                traces.append(metrics)
            if time.perf_counter() >= deadline:
                break
        names = layers.per_layer_names()
        if not traces or not walls:
            return dict.fromkeys(names, 0.0)
        untraced = statistics.median(walls)
        result = {name: statistics.median(t[name] for t in traces)
                  for name in names if name not in ("trace.overhead_ratio", "trace.corrected_ratio")}
        result["trace.overhead_ratio"] = (
            statistics.median(t["trace.wall_s"] for t in traces) / untraced
        )
        result["trace.corrected_ratio"] = (
            statistics.median(t["trace.corrected_wall_s"] for t in traces) / untraced
        )
        return {name: result[name] for name in names}
