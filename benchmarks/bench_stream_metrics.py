"""Record-retention benchmarks: runtime and memory-bound observables.

Both retention modes fold every payload into the same
:mod:`repro.stream` accumulators; they differ only in what happens to a
payload's record once it resolves. This times the same benchmark units
with records retained (the default) and retired at resolution
(``stream_metrics``), and records the peak simultaneously-tracked
record count of each — the quantity retirement exists to bound. The
retain mode necessarily tracks every offered payload; the retire mode
tracks only in-flight ones, so its peak is load-dependent but
run-length-independent.

Usage::

    PYTHONPATH=src python benchmarks/bench_stream_metrics.py              # print
    PYTHONPATH=src python benchmarks/bench_stream_metrics.py --update BENCH_stream.json
    PYTHONPATH=src python benchmarks/bench_stream_metrics.py --check BENCH_stream.json \
        --threshold 3.0 --quick

``--check`` exits non-zero when any timed target is slower than
``threshold`` times the committed best, and *always* fails if the retire
mode stops being memory-bounded (peak live records reaching the offered
load on a fast system is a logic regression, not machine noise).
"""

from __future__ import annotations

import argparse
import sys
import typing

from repro.coconut.config import BenchmarkConfig
from repro.coconut.runner import BenchmarkRunner
from repro.perf import TimingResult, check_baseline, load_baseline, time_callable, write_baseline
from repro.storage.transaction import reset_id_counters

#: Elevated-rate units: enough offered load that the tracked-record gap
#: between the two modes is unmistakable, cheap enough to time in CI.
CONFIGS = {
    "fabric": dict(system="fabric", iel="KeyValue", rate_limit=50,
                   scale=0.05, repetitions=1, seed=3),
    "quorum": dict(system="quorum", iel="KeyValue", rate_limit=25,
                   scale=0.05, repetitions=1, seed=4),
}


def peak_tracked_records(config: BenchmarkConfig) -> int:
    """Most payload records any client held at once during one run."""
    reset_id_counters()
    runner = BenchmarkRunner(keep_last_rig=True)
    runner.run(config)
    if config.stream_metrics:
        assert runner.last_stream_peak is not None
        return runner.last_stream_peak
    # Retained: every record of every phase stays until the end.
    return max(
        sum(len(records) for records in client.records.values())
        for client in runner.last_rig.clients
    )


def bench_unit(name: str, retire: bool, repeats: int) -> TimingResult:
    """Time one full unit in one retention mode."""
    config = BenchmarkConfig(**CONFIGS[name], stream_metrics=retire)

    def run_unit():
        reset_id_counters()
        BenchmarkRunner(keep_last_rig=False).run(config)

    suffix = "retire" if retire else "retain"
    return time_callable(run_unit, f"{name}_{suffix}", repeats=repeats, warmup=1)


def run_all(quick: bool = False) -> typing.Tuple[typing.List[TimingResult], dict]:
    """Run every target; returns (results, notes) for the baseline."""
    repeats = 1 if quick else 3
    results: typing.List[TimingResult] = []
    peaks: typing.Dict[str, typing.Dict[str, int]] = {}
    overheads: typing.Dict[str, float] = {}
    for name in CONFIGS:
        retain = bench_unit(name, retire=False, repeats=repeats)
        retire = bench_unit(name, retire=True, repeats=repeats)
        results.extend([retain, retire])
        overheads[name] = round(retire.best / retain.best, 3)
        peaks[name] = {
            "retain": peak_tracked_records(BenchmarkConfig(**CONFIGS[name])),
            "retire": peak_tracked_records(
                BenchmarkConfig(**CONFIGS[name], stream_metrics=True)
            ),
        }
    notes = {
        "peak_tracked_records": peaks,
        "retire_over_retain_runtime": overheads,
        "quick": quick,
    }
    return results, notes


def check_memory_bound(notes: dict) -> typing.List[str]:
    """Logic (not timing) regressions: retiring records must track
    fewer records than retaining them on these fast systems."""
    problems = []
    for name, peaks in notes["peak_tracked_records"].items():
        if peaks["retire"] * 2 >= peaks["retain"]:
            problems.append(
                f"{name}: retire peak {peaks['retire']} not well under "
                f"retain peak {peaks['retain']} — record retirement regressed"
            )
    return problems


def _print_report(results: typing.Sequence[TimingResult], notes: dict) -> None:
    print(f"{'target':<16} {'best (s)':>12} {'mean (s)':>12}")
    for result in results:
        print(f"{result.name:<16} {result.best:>12.6f} {result.mean:>12.6f}")
    print()
    for name, peaks in notes["peak_tracked_records"].items():
        ratio = peaks["retain"] / peaks["retire"] if peaks["retire"] else float("inf")
        print(
            f"{name}: peak tracked records {peaks['retain']} retained vs "
            f"{peaks['retire']} retired ({ratio:.1f}x fewer), "
            f"runtime {notes['retire_over_retain_runtime'][name]:.2f}x retain"
        )


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--update", metavar="PATH", help="write a fresh baseline file")
    parser.add_argument("--check", metavar="PATH", help="check against a committed baseline")
    parser.add_argument(
        "--threshold", type=float, default=3.0,
        help="regression multiplier for --check (default 3.0)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="fewer repeats (CI smoke); work per call is unchanged",
    )
    args = parser.parse_args(argv)

    results, notes = run_all(quick=args.quick)
    _print_report(results, notes)

    problems = check_memory_bound(notes)
    if args.update:
        write_baseline(args.update, results, notes=notes)
        print(f"\nwrote baseline {args.update}")
    if args.check:
        problems += check_baseline(load_baseline(args.check), results, threshold=args.threshold)
    if problems:
        print(f"\nFAIL:", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    if args.check:
        print(f"\nOK: all targets within {args.threshold:g}x of {args.check}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
