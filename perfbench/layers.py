"""Per-layer call counts and self times, from the benchmark's own files.

:class:`LayerTrace` wraps the public entry points of each ``repro.<layer>``
package (the :data:`ENTRIES` table) for the duration of one traced unit
and restores them afterwards; no file under ``src/`` changes. Each
wrapped call opens a span on a stack. A layer's self time is its spans'
durations minus the time their child spans cover, so the self times of
all layers plus the time spent outside any span (the residue) add up to
the traced wall time.

Module-level functions are replaced at every use site: ``hash_object``
is imported by name into ``repro.storage.transaction``,
``repro.storage.block``, ``repro.crypto.signatures`` and others, so every
``repro`` module global bound to the original is rebound to the wrapper.

The kernel dispatches event callbacks and resumes spawned processes
from its own loop. A callback defined in another traced layer (the
network's delivery, a chain's block timer) is timed as that layer, and
so is each resume of a generator whose code lives in one (a chain's
commit loop, a client's workload thread); ``sim`` keeps the kernel's
own work.

Every wrapped call costs time of its own, which the raw spans charge
partly to the called layer and partly to the caller. :class:`LayerTrace`
measures that cost on a no-op at the start of each trace
(:func:`wrapper_cost`) and :meth:`LayerTrace.corrected` subtracts it,
call by call, from the layer that paid it.
"""

from __future__ import annotations

import dataclasses
import importlib
import pkgutil
import statistics
import sys
import time
import types
import typing

#: Largest share of the traced wall time that may pass outside every
#: span. ``Simulator.run`` is wrapped, so only the runner's set-up and
#: result assembly should; a larger residue means an unwrapped region.
RESIDUE_LIMIT = 0.02

#: The traced layers, one per ``repro.<name>`` package.
LAYERS = (
    "sim", "net", "consensus", "chains", "crypto", "storage", "iel",
    "coconut", "stream", "workloads",
)

ALL = "all"


@dataclasses.dataclass(frozen=True)
class Entry:
    """One wrapped public entry point."""

    layer: str
    #: Metric key its calls are summed under.
    key: str
    module: str
    #: Defining class, or None for a module-level function.
    owner: typing.Optional[str]
    attr: str
    #: Workloads that must call it (a name set, or :data:`ALL`).
    on: typing.Union[str, typing.FrozenSet[str]] = frozenset()
    #: Also wrap overrides in subclasses of ``owner``.
    subclasses: bool = False
    #: Also count truthy return values (:meth:`LayerTrace.count_true`).
    results: bool = False

    @property
    def ident(self) -> str:
        """Unique name of the entry point."""
        return f"{self.module}:{self.owner + '.' if self.owner else ''}{self.attr}"

    def required_on(self, workload: str) -> bool:
        """Whether ``workload`` must call this entry point."""
        return self.on == ALL or workload in self.on


def _on(*names: str) -> typing.FrozenSet[str]:
    return frozenset(names)


_FABRIC = _on("fabric-kv", "fabric-zipf-stream")
_CONSTANT = _on("fabric-kv", "fabric-zipf-stream", "quorum-n32-wan")

ENTRIES: typing.Tuple[Entry, ...] = (
    # sim: the kernel's public scheduling surface.
    Entry("sim", "sim.run", "repro.sim.kernel", "Simulator", "run", ALL),
    Entry("sim", "sim.push", "repro.sim.kernel", "Simulator", "schedule", ALL),
    Entry("sim", "sim.push", "repro.sim.kernel", "Simulator", "schedule_cancellable", ALL),
    Entry("sim", "sim.spawn", "repro.sim.kernel", "Simulator", "spawn", ALL),
    Entry("sim", "sim.timeout", "repro.sim.kernel", "Simulator", "timeout", ALL),
    Entry("sim", "sim.cancel", "repro.sim.kernel", "TimerHandle", "cancel",
          _on("sawtooth-n12", "quorum-n32-wan"), results=True),
    # net
    Entry("net", "net.send", "repro.net.network", "Network", "send", ALL),
    Entry("net", "net.broadcast", "repro.net.network", "Network", "broadcast",
          _on("sawtooth-n12", "quorum-n32-wan")),
    # consensus: every engine's message and proposal handlers.
    Entry("consensus", "consensus.msg", "repro.consensus.pbft", "PbftEngine", "on_message",
          _on("sawtooth-n12")),
    Entry("consensus", "consensus.propose", "repro.consensus.pbft", "PbftEngine",
          "submit_proposal", _on("sawtooth-n12")),
    Entry("consensus", "consensus.msg", "repro.consensus.ibft", "IbftEngine", "on_message",
          _on("quorum-n32-wan")),
    Entry("consensus", "consensus.propose", "repro.consensus.ibft", "IbftEngine",
          "submit_proposal", _on("quorum-n32-wan")),
    Entry("consensus", "consensus.msg", "repro.consensus.raft", "RaftEngine", "on_message",
          _FABRIC),
    Entry("consensus", "consensus.propose", "repro.consensus.raft", "RaftEngine",
          "submit_proposal", _FABRIC),
    Entry("consensus", "consensus.msg", "repro.consensus.diembft", "DiemBftEngine",
          "on_message"),
    Entry("consensus", "consensus.msg", "repro.consensus.dpos", "DposEngine", "on_message"),
    Entry("consensus", "consensus.propose", "repro.consensus.kafka", "KafkaBroker", "publish"),
    Entry("consensus", "consensus.propose", "repro.consensus.notary", "NotaryService",
          "notarise"),
    # chains: node delivery and the block pipeline.
    Entry("chains", "chains.delivery", "repro.chains.base", "BaseNode", "on_message", ALL,
          subclasses=True),
    Entry("chains", "chains.apply", "repro.chains.base", "BaseNode", "apply_payloads",
          _on("sawtooth-n12", "quorum-n32-wan"), subclasses=True),
    Entry("chains", "chains.seal", "repro.chains.base", "BaseNode", "seal_and_append", ALL,
          subclasses=True),
    Entry("chains", "chains.notify", "repro.chains.base", "BaseNode", "notify_client", ALL,
          subclasses=True),
    Entry("chains", "chains.submit", "repro.chains.base", "SystemModel", "handle_submit", ALL,
          subclasses=True),
    # crypto
    Entry("crypto", "crypto.hash", "repro.crypto.hashing", None, "hash_object", ALL),
    Entry("crypto", "crypto.hash", "repro.crypto.hashing", None, "hash_bytes", ALL),
    Entry("crypto", "crypto.hash", "repro.crypto.hashing", None, "leaf_hash", ALL),
    Entry("crypto", "crypto.merkle", "repro.crypto.merkle", "MerkleTree", "__init__", ALL),
    Entry("crypto", "crypto.sign", "repro.crypto.signatures", "Signer", "sign"),
    Entry("crypto", "crypto.sign", "repro.crypto.signatures", "Signer", "verify"),
    # storage
    Entry("storage", "storage.validate", "repro.storage.state", "WorldState", "validate",
          ALL),
    Entry("storage", "storage.apply", "repro.storage.state", "WorldState", "apply",
          ALL, results=True),
    Entry("storage", "storage.append", "repro.storage.chain", "Chain", "append", ALL),
    # iel
    Entry("iel", "iel.execute", "repro.iel.base", "InterfaceExecutionLayer", "execute", ALL,
          subclasses=True),
    # coconut: the client and the metrics fold.
    Entry("coconut", "coconut.confirm", "repro.coconut.client", "CoconutClient", "on_message",
          ALL),
    Entry("coconut", "coconut.run_phase", "repro.coconut.client", "CoconutClient",
          "run_phase", ALL),
    Entry("coconut", "coconut.fold", "repro.coconut.metrics", "PhaseMetrics", "from_clients",
          _on("fabric-kv", "sawtooth-n12", "quorum-n32-wan")),
    Entry("coconut", "coconut.fold", "repro.coconut.metrics", "PhaseMetrics", "from_stream",
          _on("fabric-zipf-stream")),
    # stream
    Entry("stream", "stream.retire", "repro.stream.accumulator", "ClientStream", "retire",
          _on("fabric-zipf-stream")),
    Entry("stream", "stream.expire", "repro.stream.accumulator", "ClientStream", "expire"),
    Entry("stream", "stream.record", "repro.stream.histogram", "LogHistogram", "record",
          _on("fabric-zipf-stream")),
    # workloads: arrival processes and access/mix samplers.
    Entry("workloads", "workloads.build", "repro.workloads.arrivals", None, "build_schedule",
          ALL),
    Entry("workloads", "workloads.build", "repro.workloads.access", None, "build_sampler",
          _on("fabric-zipf-stream")),
    Entry("workloads", "workloads.arrival", "repro.workloads.arrivals", "ConstantSchedule",
          "next_delay", _CONSTANT),
    Entry("workloads", "workloads.arrival", "repro.workloads.arrivals", "PoissonSchedule",
          "next_delay", _on("sawtooth-n12")),
    Entry("workloads", "workloads.arrival", "repro.workloads.arrivals", "BurstSchedule",
          "next_delay"),
    Entry("workloads", "workloads.arrival", "repro.workloads.arrivals", "RampSchedule",
          "next_delay"),
    Entry("workloads", "workloads.arrival", "repro.workloads.arrivals", "ReplaySchedule",
          "next_delay"),
    Entry("workloads", "workloads.sample", "repro.workloads.access", "UniformSampler",
          "sample"),
    Entry("workloads", "workloads.sample", "repro.workloads.access", "ZipfianSampler",
          "sample", _on("fabric-zipf-stream")),
    Entry("workloads", "workloads.sample", "repro.workloads.access", "HotspotSampler",
          "sample"),
    Entry("workloads", "workloads.sample", "repro.workloads.mixes", "MixSampler", "sample",
          _on("fabric-zipf-stream")),
)


def _layer_of_module(module: str) -> typing.Optional[str]:
    parts = module.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


def _subclasses(cls: type) -> typing.List[type]:
    found = [cls]
    for sub in cls.__subclasses__():
        found.extend(_subclasses(sub))
    return found


class _LayeredGenerator:
    """A generator stand-in whose resumes are timed as one layer."""

    def __init__(self, generator: typing.Generator, send, throw) -> None:
        self.send = send
        self.throw = throw
        self.close = generator.close
        self.__name__ = getattr(generator, "__name__", "process")


def _dispatch(callback: typing.Callable, *args: object) -> object:
    """Calls one kernel-dispatched callback inside its layer's span."""
    return callback(*args)


def _noop(first: object) -> None:
    """The wrapped function on which :func:`wrapper_cost` measures."""


def _probe_process() -> typing.Iterator[None]:
    yield None


def _stub_schedule(sim: object, delay: float, callback: object, *args: object) -> None:
    """Stands in for ``Simulator.schedule`` in :func:`wrapper_cost`."""


def _stub_spawn(sim: object, generator: object, name: str = "") -> None:
    """Stands in for ``Simulator.spawn`` in :func:`wrapper_cost`."""


# The same functions as if defined in a traced layer, so that the
# routing wrappers take their full path when they are measured.
_LAYER_GLOBALS = {"__name__": "repro.coconut"}
_LAYERED_NOOP = types.FunctionType(_noop.__code__, _LAYER_GLOBALS, "_noop")
_LAYERED_PROCESS = types.FunctionType(_probe_process.__code__, _LAYER_GLOBALS, "_probe_process")


@dataclasses.dataclass(frozen=True)
class WrapperCost:
    """Host seconds the tracer adds per event, measured on no-ops."""

    #: Per span, charged to the span's own layer.
    inner: float
    #: Per span, charged to the enclosing span's layer (or the residue).
    outer: float
    #: Per routed callback, charged to the callback's layer.
    dispatch: float
    #: Per ``schedule`` call, for routing its callback (charged to sim).
    route: float
    #: Per ``spawn`` call, for layering its generator (charged to sim).
    layer_process: float


#: :func:`wrapper_cost` times this many blocks of this many calls.
_COST_BLOCKS = 7
_COST_CALLS = 2000


def wrapper_cost() -> WrapperCost:
    """Measure :class:`WrapperCost` now. Each figure is the median over
    blocks of traced calls, less the same calls untraced."""
    calls = _COST_CALLS
    probe = LayerTrace()
    clock = time.perf_counter
    inner = probe._wrap(_noop, "net", "cost:inner")

    def loop(fn: typing.Callable) -> None:
        for _ in range(calls):
            fn(None)

    outer = probe._wrap(loop, "sim", "cost:outer")
    route = probe._layered_schedule(_stub_schedule)
    spawn = probe._layered_spawn(_stub_spawn)
    samples: typing.Dict[str, typing.List[float]] = {
        "inner": [], "total": [], "dispatch": [], "route": [], "layer_process": [],
    }
    for _ in range(_COST_BLOCKS):
        t0 = clock()
        loop(_noop)
        base = clock() - t0
        before = probe.self_time["net"]
        t0 = clock()
        outer(inner)
        samples["total"].append((clock() - t0 - base) / calls)
        samples["inner"].append((probe.self_time["net"] - before) / calls)
        t0 = clock()
        for _ in range(calls):
            _dispatch(_noop, None)
        samples["dispatch"].append((clock() - t0 - base) / calls)
        t0 = clock()
        for _ in range(calls):
            _stub_schedule(None, 0.0, _LAYERED_NOOP, None)
        t1 = clock()
        for _ in range(calls):
            route(None, 0.0, _LAYERED_NOOP, None)
        samples["route"].append((clock() - t1 - (t1 - t0)) / calls)
        t0 = clock()
        for _ in range(calls):
            _stub_spawn(None, _LAYERED_PROCESS())
        t1 = clock()
        for _ in range(calls):
            spawn(None, _LAYERED_PROCESS())
        samples["layer_process"].append((clock() - t1 - (t1 - t0)) / calls)
    median = {key: max(statistics.median(values), 0.0) for key, values in samples.items()}
    return WrapperCost(
        inner=median["inner"],
        outer=max(median["total"] - median["inner"], 0.0),
        dispatch=median["dispatch"],
        route=median["route"],
        layer_process=median["layer_process"],
    )


class LayerTrace:
    """Counts and self times of one traced unit.

    Use as a context manager: entering measures :func:`wrapper_cost` and
    installs every wrapper, leaving restores the originals. Not
    re-entrant; one trace at a time.
    """

    def __init__(self) -> None:
        #: Calls per entry point (:attr:`Entry.ident`).
        self.calls: typing.Dict[str, int] = {entry.ident: 0 for entry in ENTRIES}
        #: Truthy results per entry point, for entries with ``results``.
        self.true_results: typing.Dict[str, int] = {entry.ident: 0 for entry in ENTRIES}
        #: Inclusive seconds per entry point.
        self.inclusive: typing.Dict[str, float] = {entry.ident: 0.0 for entry in ENTRIES}
        #: Layer of every span name in :attr:`calls`.
        self.layer_of: typing.Dict[str, str] = {entry.ident: entry.layer for entry in ENTRIES}
        #: Raw self seconds per layer, the tracer's own cost included.
        self.self_time: typing.Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        #: Spans opened directly inside a span of each layer.
        self.nested: typing.Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Spans opened outside every other span.
        self.top_level = 0
        #: Seconds spent outside every span between start() and stop().
        self.residue = 0.0
        self.wall = 0.0
        self.cost: typing.Optional[WrapperCost] = None
        #: Layer and child seconds of every open span, innermost last.
        self._open_layers: typing.List[str] = []
        self._child_time: typing.List[float] = []
        self._last_exit = 0.0
        self._started_at = 0.0
        self._patches: typing.List[typing.Tuple[object, str, object]] = []

    # -- span bookkeeping ----------------------------------------------

    def _wrap(self, fn: typing.Callable, layer: str, ident: str,
              results: bool = False) -> typing.Callable:
        # Two parallel stacks rather than a list per span: a span then
        # allocates no object that the cyclic garbage collector tracks.
        open_layers = self._open_layers
        child_time = self._child_time
        clock = time.perf_counter
        calls = self.calls
        true_results = self.true_results
        inclusive = self.inclusive
        self_time = self.self_time
        nested = self.nested
        calls.setdefault(ident, 0)
        true_results.setdefault(ident, 0)
        inclusive.setdefault(ident, 0.0)
        self.layer_of[ident] = layer

        def wrapper(*args, **kwargs):
            calls[ident] += 1
            start = clock()
            if not open_layers:
                self.residue += start - self._last_exit
            open_layers.append(layer)
            child_time.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                open_layers.pop()
                duration = end - start
                self_time[layer] += duration - child_time.pop()
                inclusive[ident] += duration
                if open_layers:
                    child_time[-1] += duration
                    nested[open_layers[-1]] += 1
                else:
                    self._last_exit = end
                    self.top_level += 1
            if results and result:
                true_results[ident] += 1
            return result

        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        return wrapper

    def _layered_spawn(self, spawn: typing.Callable) -> typing.Callable:
        """``Simulator.spawn`` that times the generator's resumes by layer."""

        def layered(sim, generator, name=""):
            frame = getattr(generator, "gi_frame", None)
            layer = _layer_of_module(frame.f_globals.get("__name__", "")) if frame else None
            if layer is not None and layer != "sim":
                ident = f"{layer}:process_resume"
                generator = _LayeredGenerator(
                    generator,
                    self._wrap(generator.send, layer, ident),
                    self._wrap(generator.throw, layer, ident),
                )
            return spawn(sim, generator, name)

        return layered

    def _layered_schedule(self, schedule: typing.Callable) -> typing.Callable:
        """``Simulator.schedule`` that times each callback defined in
        another traced layer as that layer."""
        dispatchers = {
            layer: self._wrap(_dispatch, layer, f"{layer}:callback")
            for layer in LAYERS if layer != "sim"
        }
        dispatcher_of_module: typing.Dict[object, typing.Optional[typing.Callable]] = {}

        def layered(sim, delay, callback, *args):
            module = getattr(callback, "__module__", None)
            try:
                dispatcher = dispatcher_of_module[module]
            except KeyError:
                layer = _layer_of_module(module) if isinstance(module, str) else None
                dispatcher = dispatcher_of_module[module] = dispatchers.get(layer)
            if dispatcher is None:
                return schedule(sim, delay, callback, *args)
            return schedule(sim, delay, dispatcher, callback, *args)

        return layered

    # -- installation --------------------------------------------------

    def _patch(self, owner: object, name: str, value: object) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _install_entry(self, entry: Entry, repro_modules: typing.List[object]) -> None:
        module = importlib.import_module(entry.module)
        if entry.owner is None:
            original = getattr(module, entry.attr)
            wrapper = self._wrap(original, entry.layer, entry.ident, entry.results)
            for mod in repro_modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, name, wrapper)
            return
        cls = getattr(module, entry.owner)
        if entry.attr not in cls.__dict__:
            raise AttributeError(f"{entry.ident} is not defined by {entry.owner}")
        targets = _subclasses(cls) if entry.subclasses else [cls]
        for target in targets:
            raw = target.__dict__.get(entry.attr)
            if raw is None:
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                wrapped = type(raw)(
                    self._wrap(raw.__func__, entry.layer, entry.ident, entry.results)
                )
            else:
                # Routing runs inside the sim span; corrected() takes
                # its cost back out of sim.
                if entry.key == "sim.push":
                    raw = self._layered_schedule(raw)
                elif entry.key == "sim.spawn":
                    raw = self._layered_spawn(raw)
                wrapped = self._wrap(raw, entry.layer, entry.ident, entry.results)
            self._patch(target, entry.attr, wrapped)

    def install(self) -> None:
        """Wrap every entry point (imports every layer package first, so
        subclasses and by-name imports are all present)."""
        if self._patches:
            raise RuntimeError("LayerTrace is already installed")
        for layer in LAYERS:
            package = importlib.import_module(f"repro.{layer}")
            for info in pkgutil.walk_packages(package.__path__, f"repro.{layer}."):
                importlib.import_module(info.name)
        repro_modules = [
            module for name, module in sorted(sys.modules.items())
            if module is not None and (name == "repro" or name.startswith("repro."))
        ]
        try:
            for entry in ENTRIES:
                self._install_entry(entry, repro_modules)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, name, original = self._patches.pop()
            setattr(owner, name, original)

    def start(self) -> None:
        """Open the traced interval (the residue is measured from here)."""
        self._started_at = self._last_exit = time.perf_counter()

    def stop(self) -> None:
        """Close the traced interval."""
        end = time.perf_counter()
        if self._open_layers:
            raise RuntimeError(f"{len(self._open_layers)} spans still open at stop()")
        self.residue += end - self._last_exit
        self.wall = end - self._started_at

    def __enter__(self) -> "LayerTrace":
        self.cost = wrapper_cost()
        self.install()
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        try:
            if exc_info[0] is None:
                self.stop()
        finally:
            self.uninstall()

    # -- results -------------------------------------------------------

    def count(self, key: str) -> int:
        """Calls summed over every entry point with metric key ``key``."""
        return sum(self.calls[e.ident] for e in ENTRIES if e.key == key)

    def count_true(self, key: str) -> int:
        """Truthy results summed over the entry points of ``key``."""
        return sum(self.true_results[e.ident] for e in ENTRIES if e.key == key)

    def seconds(self, key: str) -> float:
        """Inclusive seconds summed over the entry points of ``key``."""
        return sum(self.inclusive[e.ident] for e in ENTRIES if e.key == key)

    def corrected(self) -> typing.Tuple[typing.Dict[str, float], float, float]:
        """Self seconds per layer, residue and wall time, each less the
        tracer's own cost (:attr:`cost`) charged to it."""
        cost = self.cost
        spans = dict.fromkeys(LAYERS, 0)
        for ident, calls in self.calls.items():
            spans[self.layer_of[ident]] += calls
        self_time = {}
        for layer in LAYERS:
            self_time[layer] = (
                self.self_time[layer]
                - spans[layer] * cost.inner
                - self.nested[layer] * cost.outer
                - self.calls.get(f"{layer}:callback", 0) * cost.dispatch
            )
        self_time["sim"] -= (self.count("sim.push") * cost.route
                             + self.count("sim.spawn") * cost.layer_process)
        residue = self.residue - self.top_level * cost.outer
        return self_time, residue, sum(self_time.values()) + residue

    def unreached(self, workload: str, required_layers: typing.Iterable[str]) -> typing.List[str]:
        """Entry points ``workload`` must call but did not, and layers it
        must reach in which no span opened."""
        missing = [
            entry.ident for entry in ENTRIES
            if entry.required_on(workload) and self.calls[entry.ident] == 0
        ]
        missing.extend(
            f"layer {layer}" for layer in required_layers if self.self_time[layer] <= 0
        )
        return missing


# ----------------------------------------------------------------------
# Metrics of one traced unit


def per_layer_names() -> typing.List[str]:
    """Every per-layer metric, in report order."""
    names = [
        "sim.pushes_per_tx", "sim.cancelled_per_tx", "sim.spawns_per_tx",
        "sim.timeouts_per_tx",
        "net.msgs_per_tx", "net.broadcasts_per_tx", "net.drop_ratio",
        "consensus.msgs_per_block",
        "chains.deliveries_per_tx", "chains.txs_per_block",
        "crypto.hashes_per_tx", "crypto.merkle_builds_per_block",
        "crypto.signs_verifies_per_tx",
        "storage.applies_per_tx", "storage.mvcc_valid_ratio", "storage.appends_per_block",
        "iel.executes_per_tx",
        "coconut.confirms_per_tx", "coconut.peak_live_records", "coconut.fold_s",
        "stream.retires_per_tx",
    ]
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.self_share"]
    return names + ["trace.residue_share", "trace.overhead_ratio", "trace.corrected_ratio"]


def counts(metrics: typing.Dict[str, float]) -> typing.Dict[str, float]:
    """The metrics of :func:`layer_metrics` that must repeat exactly."""
    return {k: v for k, v in metrics.items()
            if not k.endswith(("self_s", "self_share", "fold_s")) and not k.startswith("trace.")}


def layer_metrics(trace, result, runner, workload) -> typing.Tuple[dict, typing.List[str]]:
    """Per-layer counts, self times and tracing checks of one traced unit."""
    problems: typing.List[str] = []
    rig = runner.last_rig
    tx = sum(phase.repetitions[0].received for phase in result.phases.values())
    blocks = max(rig.system.total_chain_height().values())
    network = rig.system.network
    per_tx = 1.0 / tx if tx else 0.0
    per_block = 1.0 / blocks if blocks else 0.0
    applies = trace.count("storage.apply")
    if rig.clients[0].stream is not None:
        peak_live = runner.last_stream_peak
    else:
        peak_live = max(sum(len(r) for r in c.records.values()) for c in rig.clients)
    metrics = {
        "sim.pushes_per_tx": trace.count("sim.push") * per_tx,
        "sim.cancelled_per_tx": trace.count_true("sim.cancel") * per_tx,
        "sim.spawns_per_tx": trace.count("sim.spawn") * per_tx,
        "sim.timeouts_per_tx": trace.count("sim.timeout") * per_tx,
        "net.msgs_per_tx": network.messages_sent * per_tx,
        "net.broadcasts_per_tx": trace.count("net.broadcast") * per_tx,
        "net.drop_ratio": (network.messages_dropped / network.messages_sent
                           if network.messages_sent else 0.0),
        "consensus.msgs_per_block": trace.count("consensus.msg") * per_block,
        "chains.deliveries_per_tx": trace.count("chains.delivery") * per_tx,
        "chains.txs_per_block": max(
            node.chain.total_transactions() for node in rig.system.nodes.values()
        ) * per_block,
        "crypto.hashes_per_tx": trace.count("crypto.hash") * per_tx,
        "crypto.merkle_builds_per_block": trace.count("crypto.merkle") * per_block,
        "crypto.signs_verifies_per_tx": trace.count("crypto.sign") * per_tx,
        "storage.applies_per_tx": applies * per_tx,
        "storage.mvcc_valid_ratio": trace.count_true("storage.apply") / applies if applies else 1.0,
        "storage.appends_per_block": trace.count("storage.append") * per_block,
        "iel.executes_per_tx": trace.count("iel.execute") * per_tx,
        "coconut.confirms_per_tx": trace.count("coconut.confirm") * per_tx,
        "coconut.peak_live_records": float(peak_live),
        "coconut.fold_s": trace.seconds("coconut.fold"),
        "stream.retires_per_tx": trace.count("stream.retire") * per_tx,
    }
    self_time, residue, wall = trace.corrected()
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = self_time[layer]
        metrics[f"{layer}.self_share"] = self_time[layer] / wall
    metrics["trace.residue_share"] = residue / wall
    metrics["trace.wall_s"] = trace.wall
    metrics["trace.corrected_wall_s"] = wall

    if trace.residue > RESIDUE_LIMIT * trace.wall:
        problems.append(
            f"{trace.residue / trace.wall:.2%} of the traced wall time passed outside "
            f"every span (limit {RESIDUE_LIMIT:.0%})"
        )
    negative = [layer for layer, s in trace.self_time.items() if s < -1e-9]
    if negative:
        problems.append(f"negative self time in {negative}")
    # The kernel numbers its heap entries; the wrappers must have seen
    # every push, or a use site escaped them.
    if trace.count("sim.push") != rig.sim._sequence:
        problems.append(
            f"wrappers saw {trace.count('sim.push')} heap pushes, "
            f"the kernel made {rig.sim._sequence}"
        )
    missing = trace.unreached(workload.name, workload.reaches)
    if missing:
        problems.append(f"no call recorded for {', '.join(missing)}")
    return metrics, problems


def metric_unit(name: str) -> str:
    """The unit of one per-layer metric."""
    if name.endswith("_per_tx"):
        return "count/tx"
    if name.endswith("_per_block"):
        return "count/block"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count"
