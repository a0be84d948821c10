"""The repository benchmark: host cost and simulated outcome of one unit.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fabric-kv --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics: host wall and CPU time of
``BenchmarkRunner.run`` (median over the units run in ``--seconds``)
and fresh-process set-up time, each normalised to the reference host
speed of :mod:`calibrate`; fresh-process peak RSS; and the unit's
simulated outcome. ``--trace 1`` alternates untraced and traced units
and prints the per-layer metrics of :mod:`layers` instead.

Every run first executes the unit once under the strict invariant
checker. Each later unit must conserve payloads per phase and report the
same simulated metrics as that first run. The last stdout line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``;
the exit code is 1 when a check failed and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def main() -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench
    import layers
    import units

    if args.workload not in units.WORKLOADS:
        print(f"perfbench: error: unknown workload {args.workload!r}; "
              f"known: {sorted(units.WORKLOADS)}", file=sys.stderr)
        return 2
    run = bench.Bench(args.workload, args.seed)
    if args.trace:
        metrics = run.traced(args.seconds)
        unit_of = {name: layers.metric_unit(name) for name in metrics}
    else:
        metrics = run.end_to_end(args.seconds)
        unit_of = bench.END_TO_END
    for name, value in metrics.items():
        print(f"{args.workload:20s} {name:32s} {value:14.6g} {unit_of[name]}")
    print(json.dumps({
        "correct": run.correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit_of[name]} for name, value in metrics.items()},
    }))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
