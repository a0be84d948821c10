"""Self-test of the per-layer tracing: every wrapper must see its calls.

Runs one small traced unit of every workload and fails (exit 1) when a
wrapped entry point that the workload must reach records no call, when
the heap pushes seen by the wrappers differ from the kernel's own count,
or when more of the traced wall time than ``layers.RESIDUE_LIMIT``
passes outside every span. A renamed or re-imported entry point thus
fails here instead of reading zero.

Usage: ``python3 perfbench/selftest.py`` from the repository root.
"""

from __future__ import annotations

import dataclasses
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent

#: Scale of each workload's self-test unit: the smallest that still
#: commits blocks and confirms payloads.
SMALL_SCALE = {
    "fabric-kv": 0.01,
    "fabric-zipf-stream": 0.01,
    "sawtooth-n12": 0.02,
    "quorum-n32-wan": 0.03,
}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import layers
    import units
    from repro.coconut.runner import BenchmarkRunner

    failures = 0
    for name, workload in units.WORKLOADS.items():
        config = dataclasses.replace(workload.build(1), scale=SMALL_SCALE[name])
        runner = BenchmarkRunner()
        with layers.LayerTrace() as trace:
            result = runner.run(config)
        problems = units.check_unit(result, runner)
        metrics, trace_problems = layers.layer_metrics(trace, result, runner, workload)
        problems += trace_problems
        status = "FAIL" if problems else "ok"
        print(f"{status:4s} {name}: traced wall {trace.wall:.3f} s, "
              f"sim.self_share {metrics['sim.self_share']:.2f}, "
              f"crypto.self_share {metrics['crypto.self_share']:.2f}")
        for problem in problems:
            print(f"     {problem}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
