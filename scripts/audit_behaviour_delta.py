"""Audit every observable change a simulator edit makes against a base revision.

A change that must reorder same-instant events (or recount the kernel's
own bookkeeping) cannot keep the seed goldens byte-identical, so before
re-capturing them this script runs a fixed seed matrix in two trees —
the base revision, checked out with ``git worktree add`` into a
temporary directory, and the working tree — and diffs, per run:

* ``UnitResult.to_dict()`` (every phase metric, invariant report
  included),
* the tracer's metrics snapshot (counters, gauges, histograms),
* the normalised trace digest of ``tests/perf/equivalence.py``.

Every run installs the strict invariant checker. The matrix is all
seven systems x seeds 1-3 at tiny scale, the three ``tests/perf``
golden cases, Sawtooth at n=12, Quorum at n=32, Kafka-ordered Fabric,
and a leader-crash fault plan on Sawtooth, Quorum and Fabric.

Run from the repository root::

    python3 scripts/audit_behaviour_delta.py --allow sim.dispatches,sim.queue_depth

Every changed field is printed. The exit code is 1 when a field outside
``--allow`` changed or any strict oracle failed in either tree, else 0.
A field is allowed when one of its path segments (or a ``/``-separated
part of one, as in the metric key ``sim/sim.dispatches``) is an
``--allow`` name. ``--base-tree`` reuses an existing checkout of the
base instead of adding a worktree.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import typing

ROOT = pathlib.Path(__file__).resolve().parent.parent

SYSTEMS = ("fabric", "quorum", "sawtooth", "diem", "bitshares", "corda_os", "corda_enterprise")
SEEDS = (1, 2, 3)
LEADER_CRASH_SYSTEMS = ("sawtooth", "quorum", "fabric")
#: Window scale of the leader-crash runs: the resilience experiments'
#: rate, at half their default window.
LEADER_CRASH_SCALE = 0.1


# ----------------------------------------------------------------------
# The matrix (runs inside one tree's interpreter)


def _matrix() -> typing.List[typing.Tuple[str, typing.Callable[[], dict]]]:
    from repro.coconut.config import BenchmarkConfig
    from repro.experiments.resilience import RATE_LIMIT, leader_crash_plan
    from repro.net.latency import EUROPEAN_WAN_LATENCY
    from repro.workloads.spec import WorkloadSpec
    from tests.perf.equivalence import CASES, run_case

    cases: typing.List[typing.Tuple[str, typing.Callable[[], dict]]] = []
    for system in SYSTEMS:
        for seed in SEEDS:
            config = dict(system=system, iel="KeyValue", rate_limit=20, scale=0.02,
                          repetitions=1, seed=seed)
            cases.append((f"tiny/{system}/seed{seed}",
                          lambda config=config: _strict_run(BenchmarkConfig(**config))))
    for case in CASES:
        cases.append((f"golden/{case['name']}", lambda case=case: run_case(case)))
    cases.append(("scale/sawtooth-n12", lambda: _strict_run(BenchmarkConfig(
        system="sawtooth", iel="KeyValue", rate_limit=50, scale=0.05, repetitions=1,
        seed=1, node_count=12,
        workload=WorkloadSpec.from_dict({"name": "poisson", "arrival": {"kind": "poisson"}}),
    ))))
    cases.append(("scale/quorum-n32", lambda: _strict_run(BenchmarkConfig(
        system="quorum", iel="DoNothing", rate_limit=400, scale=0.03, repetitions=1,
        seed=1, node_count=32, latency=EUROPEAN_WAN_LATENCY,
        params={"istanbul.blockperiod": 5.0},
    ))))
    cases.append(("kafka/fabric", lambda: _strict_run(BenchmarkConfig(
        system="fabric", iel="KeyValue", rate_limit=50, scale=0.05, repetitions=1,
        seed=1, params={"OrderingService": "kafka"},
    ))))
    for system in LEADER_CRASH_SYSTEMS:
        def crash(system: str = system) -> dict:
            config = BenchmarkConfig(system=system, iel="DoNothing", rate_limit=RATE_LIMIT,
                                     repetitions=1, scale=LEADER_CRASH_SCALE, seed=61)
            config.fault_plan = leader_crash_plan(config)
            return _strict_run(config)
        cases.append((f"leader-crash/{system}", crash))
    return cases


def _strict_run(config: object) -> dict:
    """One traced run under the strict checker, as ``run_case`` does it."""
    from repro.coconut.runner import BenchmarkRunner
    from repro.storage.transaction import reset_id_counters
    from repro.trace.config import TraceConfig
    from repro.trace.tracer import Tracer
    from tests.perf.equivalence import normalized_trace

    reset_id_counters()
    tracer = Tracer(TraceConfig())
    runner = BenchmarkRunner(tracer=tracer, check=True, check_level="strict",
                             keep_last_rig=False)
    result = runner.run(config)
    tracer.drain_open(status="unconfirmed")
    return {"instrumented": {
        "result": result.to_dict(),
        "metrics": tracer.metrics.snapshot(),
        "trace": normalized_trace(tracer),
    }}


def emit(out_path: str) -> None:
    """Run the matrix with whichever ``repro`` is first on the path."""
    import repro

    observed = {"repro": str(pathlib.Path(repro.__file__).resolve().parent), "cases": {}}
    for name, run in _matrix():
        observed["cases"][name] = run()
        print(f"  ran {name}", file=sys.stderr, flush=True)
    pathlib.Path(out_path).write_text(json.dumps(observed, sort_keys=True))


# ----------------------------------------------------------------------
# Diffing


def flatten(value: object, path: typing.Tuple[str, ...] = ()) -> typing.Dict[tuple, object]:
    """Leaf values of nested dicts and lists, keyed by their path."""
    if isinstance(value, dict):
        leaves: typing.Dict[tuple, object] = {}
        for key, child in value.items():
            leaves.update(flatten(child, path + (str(key),)))
        return leaves
    if isinstance(value, list):
        leaves = {}
        for index, child in enumerate(value):
            leaves.update(flatten(child, path + (str(index),)))
        return leaves
    return {path: value}


def allowed_name(path: typing.Sequence[str], allow: typing.AbstractSet[str]) -> typing.Optional[str]:
    """The ``--allow`` name that covers a field path, if any."""
    for segment in path:
        for part in (segment, *segment.split("/")):
            if part in allow:
                return part
    return None


_MISSING = "<absent>"


def changed_fields(base: dict, change: dict) -> typing.List[typing.Tuple[tuple, object, object]]:
    """Every leaf path whose value differs (or exists on one side only)."""
    old, new = flatten(base), flatten(change)
    return [
        (path, old.get(path, _MISSING), new.get(path, _MISSING))
        for path in sorted(old.keys() | new.keys())
        if old.get(path, _MISSING) != new.get(path, _MISSING)
    ]


def oracle_failures(case: dict) -> typing.List[str]:
    """Paths of every invariant report in a case that is not ok (or a
    note that the case carries none, which means it ran unchecked)."""
    reports = {
        path[:-1]: value for path, value in flatten(case).items()
        if path[-1] == "ok" and "invariants" in path
    }
    if not reports:
        return ["<no invariant report>"]
    return ["/".join(path) for path, ok in reports.items() if ok is not True]


def audit(base: dict, change: dict, allow: typing.AbstractSet[str]) -> int:
    """Print the delta report; returns the number of problems found."""
    problems = 0
    allowed_counts: typing.Dict[str, int] = {}
    for name in sorted(base["cases"].keys() | change["cases"].keys()):
        if name not in base["cases"] or name not in change["cases"]:
            print(f"FAIL {name}: present in one tree only")
            problems += 1
            continue
        for tree, observed in (("base", base), ("change", change)):
            for where in oracle_failures(observed["cases"][name]):
                print(f"FAIL {name}: invariants not ok in the {tree} tree at {where}")
                problems += 1
        deltas = changed_fields(base["cases"][name], change["cases"][name])
        if not deltas:
            print(f"same {name}")
            continue
        for path, old, new in deltas:
            key = allowed_name(path, allow)
            if key is None:
                problems += 1
            else:
                allowed_counts[key] = allowed_counts.get(key, 0) + 1
            print(f"{'FAIL' if key is None else 'allowed'} {name}: {'/'.join(path)}: {old} -> {new}")
    print(f"\n{len(base['cases'])} cases; allowed deltas by field: "
          f"{json.dumps(allowed_counts, sort_keys=True)}; problems: {problems}")
    return problems


# ----------------------------------------------------------------------
# Command line


def _run_tree(tree: pathlib.Path, out_path: pathlib.Path) -> subprocess.Popen:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tree / "src"), str(ROOT)]),
               PYTHONHASHSEED="0")
    return subprocess.Popen(
        [sys.executable, str(pathlib.Path(__file__).resolve()), "--emit", str(out_path)],
        cwd=str(tree), env=env,
    )


def compare(base_tree: pathlib.Path, workdir: pathlib.Path,
            allow: typing.AbstractSet[str]) -> int:
    outputs = {"base": workdir / "base.json", "change": workdir / "change.json"}
    children = {
        "base": _run_tree(base_tree, outputs["base"]),
        "change": _run_tree(ROOT, outputs["change"]),
    }
    failed = [tree for tree, child in children.items() if child.wait() != 0]
    if failed:
        print(f"FAIL: the matrix exited non-zero in the {' and '.join(failed)} tree")
        return 1
    base = json.loads(outputs["base"].read_text())
    change = json.loads(outputs["change"].read_text())
    print(f"base:   {base['repro']}\nchange: {change['repro']}")
    return 1 if audit(base, change, allow) else 0


def main(argv: typing.Optional[typing.Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD",
                        help="revision to compare the working tree against (default HEAD)")
    parser.add_argument("--base-tree", metavar="PATH",
                        help="an existing checkout of the base, instead of a git worktree")
    parser.add_argument("--allow", default="",
                        help="comma-separated field names allowed to change")
    parser.add_argument("--emit", metavar="PATH", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    allow = frozenset(name for name in args.allow.split(",") if name)
    with tempfile.TemporaryDirectory(prefix="audit-") as tmp:
        workdir = pathlib.Path(tmp)
        if args.base_tree:
            return compare(pathlib.Path(args.base_tree).resolve(), workdir, allow)
        base_tree = workdir / "base"
        subprocess.run(["git", "worktree", "add", "--detach", str(base_tree), args.base],
                       cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        try:
            return compare(base_tree, workdir, allow)
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", str(base_tree)],
                           cwd=ROOT, check=False)


if __name__ == "__main__":
    sys.exit(main())
