"""Cross-check of the traced self-time shares against cProfile.

For every workload, runs units of seed 1 under ``cProfile`` and under
:class:`layers.LayerTrace`, and compares each layer's share of the
wall time. cProfile's self time is mapped to layers by the module each
function lives in (``src/repro/<layer>/``); the self time of a C
function or of code outside the repository goes to the layers of its
callers, in proportion to the time each caller spent in it. Fails
(exit 1) when the median shares of some layer differ by more than
:data:`MARGIN`.

The two methods differ by design, so the margin is wide: the tracer
charges unwrapped helper code to the layer that called it, and cProfile
inflates layers that make many small calls by its own per-call cost.

Usage: ``python3 perfbench/cprofile_check.py`` from the repository root.
"""

from __future__ import annotations

import cProfile
import pathlib
import pstats
import statistics
import sys
import typing

HERE = pathlib.Path(__file__).resolve().parent

#: Largest allowed gap between the two shares of one layer.
MARGIN = 0.15

#: Units per method and workload; the shares compared are their medians.
UNITS = 3


def _layer_of_code(filename: str, layers_: typing.Tuple[str, ...]) -> typing.Optional[str]:
    parts = pathlib.PurePath(filename).parts
    if "repro" in parts:
        index = len(parts) - 1 - parts[::-1].index("repro")
        if index + 1 < len(parts) and parts[index + 1] in layers_:
            return parts[index + 1]
    return None


def profiled_shares(config, layers_: typing.Tuple[str, ...]) -> typing.Dict[str, float]:
    """Per-layer shares of cProfile self time for one unit."""
    from repro.coconut.runner import BenchmarkRunner

    profile = cProfile.Profile()
    runner = BenchmarkRunner()
    profile.enable()
    runner.run(config)
    profile.disable()
    seconds = dict.fromkeys(layers_, 0.0)
    other = 0.0
    for func, (_, _, tottime, _, callers) in pstats.Stats(profile).stats.items():
        layer = _layer_of_code(func[0], layers_)
        if layer is not None:
            seconds[layer] += tottime
            continue
        for caller, caller_stats in callers.items():
            caller_layer = _layer_of_code(caller[0], layers_)
            if caller_layer is None:
                other += caller_stats[2]
            else:
                seconds[caller_layer] += caller_stats[2]
    total = sum(seconds.values()) + other
    return {layer: value / total for layer, value in seconds.items()}


def traced_shares(config) -> typing.Dict[str, float]:
    """Per-layer corrected self-time shares of one traced unit."""
    import layers
    from repro.coconut.runner import BenchmarkRunner

    with layers.LayerTrace() as trace:
        BenchmarkRunner().run(config)
    self_time, _, wall = trace.corrected()
    return {layer: value / wall for layer, value in self_time.items()}


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    import layers
    import units

    worst = 0.0
    for name, workload in units.WORKLOADS.items():
        config = workload.build(1)
        profiled = [profiled_shares(config, layers.LAYERS) for _ in range(UNITS)]
        traced = [traced_shares(config) for _ in range(UNITS)]
        print(f"{name}: layer, cProfile share, traced share, difference")
        for layer in layers.LAYERS:
            a = statistics.median(shares[layer] for shares in profiled)
            b = statistics.median(shares[layer] for shares in traced)
            worst = max(worst, abs(b - a))
            flag = "  FAIL" if abs(b - a) > MARGIN else ""
            print(f"  {layer:10s} {a:6.3f} {b:6.3f} {b - a:+6.3f}{flag}")
    print(f"largest difference {worst:.3f} (margin {MARGIN})")
    return 1 if worst > MARGIN else 0


if __name__ == "__main__":
    sys.exit(main())
