"""The four benchmark workloads and the checks on their outcomes.

Each workload is one COCONUT benchmark unit, built through the public
:class:`~repro.coconut.config.BenchmarkConfig` API with the run's seed.
Load is open-loop: 4 simulated clients x 4 workload threads offer
payloads on the simulated clock, whatever the system does.

The outcome of a unit is summarised by four simulated metrics
(:func:`sim_metrics`). For one seed they are deterministic, so every
run of that seed must report the same values; :func:`check_unit`
verifies per-phase payload conservation on top.
"""

from __future__ import annotations

import dataclasses
import math
import pathlib
import typing

from repro.coconut.config import BenchmarkConfig
from repro.coconut.results import UnitResult
from repro.coconut.runner import BenchmarkRunner
from repro.net.latency import EUROPEAN_WAN_LATENCY
from repro.workloads.spec import WorkloadSpec

#: The checkout root (this file lives in ``<root>/perfbench``).
ROOT = pathlib.Path(__file__).resolve().parent.parent

#: The shared-key read-modify-write spec of ``fabric-zipf-stream``.
ZIPFIAN_RMW = ROOT / "examples" / "workloads" / "zipfian-rmw.json"


@dataclasses.dataclass(frozen=True)
class Workload:
    """One named benchmark workload."""

    name: str
    why: str
    build: typing.Callable[[int], BenchmarkConfig]
    #: Layers whose wrapped entry points this workload must reach; the
    #: traced run fails when one of them records no call.
    reaches: typing.FrozenSet[str]


def _fabric_kv(seed: int) -> BenchmarkConfig:
    return BenchmarkConfig(
        system="fabric", iel="KeyValue", rate_limit=100, scale=0.05,
        repetitions=1, seed=seed,
    )


def _fabric_zipf_stream(seed: int) -> BenchmarkConfig:
    return BenchmarkConfig(
        system="fabric", iel="KeyValue", rate_limit=100, scale=0.05,
        repetitions=1, seed=seed,
        workload=WorkloadSpec.from_json_file(str(ZIPFIAN_RMW)),
        stream_metrics=True,
    )


def _sawtooth_n12(seed: int) -> BenchmarkConfig:
    # Poisson arrivals at the same mean rate as the paper's constant
    # spacing: with constant spacing and constant latency this unit
    # draws no random number, so every seed would be the same run.
    return BenchmarkConfig(
        system="sawtooth", iel="KeyValue", rate_limit=50, scale=0.05,
        repetitions=1, seed=seed, node_count=12,
        workload=WorkloadSpec.from_dict({"name": "poisson", "arrival": {"kind": "poisson"}}),
    )


def _quorum_n32_wan(seed: int) -> BenchmarkConfig:
    return BenchmarkConfig(
        system="quorum", iel="DoNothing", rate_limit=400, scale=0.03,
        repetitions=1, seed=seed, node_count=32, latency=EUROPEAN_WAN_LATENCY,
        params={"istanbul.blockperiod": 5.0},
    )


#: Every layer but ``stream``, which only the streaming path reaches.
_COMMON = frozenset(
    {"sim", "net", "consensus", "chains", "crypto", "storage", "iel", "coconut", "workloads"}
)

WORKLOADS: typing.Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "fabric-kv",
            "Fabric KeyValue Set then Get below the knee, exact metrics path: "
            "host time in crypto, chains and storage",
            _fabric_kv,
            _COMMON,
        ),
        Workload(
            "fabric-zipf-stream",
            "same Fabric rig with zipfian read-modify-write (MVCC conflicts) "
            "folded by repro.stream instead of retained records",
            _fabric_zipf_stream,
            _COMMON | {"stream"},
        ),
        Workload(
            "sawtooth-n12",
            "Sawtooth PBFT on 12 validators under backpressure: kernel and "
            "n-wide fan-out bound, crypto nearly idle",
            _sawtooth_n12,
            _COMMON,
        ),
        Workload(
            "quorum-n32-wan",
            "Quorum IBFT on 32 nodes over jittered WAN links: the only n^2 "
            "vote and jittered-network workload",
            _quorum_n32_wan,
            _COMMON,
        ),
    )
}


def sim_metrics(result: UnitResult) -> typing.Dict[str, float]:
    """The unit's simulated outcome, in the paper's terms.

    ``sim_confirmed_frac`` is confirmed payloads over payloads sent, so
    one minus it is the lost fraction.
    """
    reps = [phase.repetitions[0] for phase in result.phases.values()]
    sent = sum(rep.expected for rep in reps)
    return {
        "sim_mtps": math.fsum(rep.tps for rep in reps) / len(reps),
        "sim_mfls_s": math.fsum(rep.mean_fls for rep in reps) / len(reps),
        "sim_fls_p99_s": max(rep.p99_fls for rep in reps),
        "sim_confirmed_frac": sum(rep.received for rep in reps) / sent if sent else 0.0,
    }


def check_unit(result: UnitResult, runner: BenchmarkRunner) -> typing.List[str]:
    """Per-phase payload conservation; returns the violations found.

    Every sent payload is confirmed, rejected or lost, and invalidated
    payloads are a subset of confirmed ones. On the exact path the
    counts are also rebuilt from the clients' retained records, which
    ``runner.last_rig`` must hold.
    """
    problems: typing.List[str] = []
    rig = runner.last_rig
    for name, phase in result.phases.items():
        for rep in phase.repetitions:
            where = f"{result.label} {name}"
            if rep.expected <= 0:
                problems.append(f"{where}: no payload sent")
            if not 0 <= rep.received <= rep.expected:
                problems.append(f"{where}: confirmed {rep.received} of {rep.expected} sent")
            if rep.received + rep.failed > rep.expected:
                problems.append(
                    f"{where}: confirmed {rep.received} + rejected {rep.failed} "
                    f"exceed sent {rep.expected}"
                )
            if not 0 <= rep.invalidated <= rep.received:
                problems.append(
                    f"{where}: {rep.invalidated} invalidated of {rep.received} confirmed"
                )
            if rig is None or rig.clients[0].stream is not None:
                continue
            records = [r for client in rig.clients for r in client.phase_records(name)]
            statuses = [r.status for r in records]
            counted = (
                len(records),
                statuses.count("received"),
                statuses.count("failed"),
                sum(1 for r in records if r.invalid),
            )
            reported = (rep.expected, rep.received, rep.failed, rep.invalidated)
            if counted != reported:
                problems.append(
                    f"{where}: records give sent/confirmed/rejected/invalid "
                    f"{counted}, metrics report {reported}"
                )
            if any(r.invalid and not r.received for r in records):
                problems.append(f"{where}: an invalidated payload was never confirmed")
            if statuses.count("pending") != len(records) - counted[1] - counted[2]:
                problems.append(f"{where}: records in an unknown state")
    return problems
