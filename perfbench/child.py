"""One fresh-process probe of a workload: set-up time and peak RSS.

Started by ``run.py`` as a separate interpreter, because import time and
peak memory are properties of a fresh process. Prints one JSON line:

* ``setup_s``: host seconds from before ``import repro`` to the first
  ``Simulator.run`` call (imports, config validation,
  ``Provisioner.provision``, ``system.start``);
* ``calibration_s``: wall seconds of one :func:`calibrate.kernel` run
  right afterwards, the host's current speed;
* with ``--full``, the whole unit then runs and the line also carries
  ``peak_rss_mb`` (this process's peak resident set, ``VmHWM``) and the
  unit's simulated metrics, which must equal those of the parent's runs.

Usage: ``python3 perfbench/child.py --workload fabric-kv --seed 1 [--full]``
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time


def _peak_rss_mb() -> float:
    """Peak resident set of this process since its exec.

    ``ru_maxrss`` is no use here: Linux carries the high-water mark of
    the pre-exec address space, the parent's, into the child.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


class _SetupDone(Exception):
    """Raised at the first ``Simulator.run`` call of a set-up-only probe."""


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args()
    here = pathlib.Path(__file__).resolve().parent
    sys.path.insert(0, str(here.parent / "src"))

    started = time.perf_counter()
    import units  # noqa: E402 - importing repro is the measured set-up
    from repro.coconut.runner import BenchmarkRunner
    from repro.sim.kernel import Simulator

    marks: list = []
    original_run = Simulator.run

    def first_run(sim, *run_args, **run_kwargs):
        if not marks:
            marks.append(time.perf_counter())
            if not args.full:
                raise _SetupDone
        return original_run(sim, *run_args, **run_kwargs)

    Simulator.run = first_run
    runner = BenchmarkRunner(keep_last_rig=False)
    out: dict = {}
    try:
        result = runner.run(units.WORKLOADS[args.workload].build(args.seed))
        out["sim"] = units.sim_metrics(result)
        out["peak_rss_mb"] = _peak_rss_mb()
    except _SetupDone:
        pass
    finally:
        Simulator.run = original_run
    out["setup_s"] = marks[0] - started
    import calibrate

    out["calibration_s"] = calibrate.measure()[0]
    print(json.dumps(out))


if __name__ == "__main__":
    main()
