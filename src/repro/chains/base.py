"""Shared machinery of the seven system models.

A :class:`SystemModel` owns one deployment: the simulated servers, the
network, the blockchain nodes (plus auxiliary components such as Fabric's
orderers or Corda's notaries), the per-system parameters (Table 5/6) and
the finality bookkeeping that implements the paper's end-to-end
confirmation rule — a client is notified only once a transaction is
persisted on *all* nodes (Figure 2).

Nodes are :class:`BaseNode` endpoints: each has its own chain replica,
world state, a single-threaded CPU (service times serialise on it), a
FIFO commit pipeline that runs decided blocks through that CPU, and an
event-delivery queue through which all client notifications flow, so an
overloaded delivery path loses notifications exactly the way the paper
observes on Fabric (Sections 5.4, 5.8.2).
"""

from __future__ import annotations

import abc
import collections
import dataclasses
import functools
import itertools
import typing

from repro.chains.profiles import PerformanceProfile, profile_for
from repro.consensus.base import Decision
from repro.crypto.merkle import MerkleTree
from repro.iel import create_iel
from repro.iel.base import InterfaceExecutionLayer, ReadWriteSetAdapter
from repro.net import Endpoint, Host, Message, Network
from repro.net.latency import DATACENTER_LATENCY, LatencyModel
from repro.sim.kernel import Simulator
from repro.sim.resources import BusyClock
from repro.storage import Block, Chain, Payload, Receipt, Transaction, TxStatus, WorldState

_proposal_counter = itertools.count(1)


def reset_proposal_counter() -> None:
    """Restart the proposal-id sequence (deterministic ids for tests)."""
    global _proposal_counter
    _proposal_counter = itertools.count(1)

#: The outcome of every committed payload (shared: tuples are immutable).
_COMMITTED = (TxStatus.COMMITTED, "")

#: The paper's testbed packs at most four blockchain nodes per server
#: (Section 5.8.2).
MAX_NODES_PER_SERVER = 4


@dataclasses.dataclass
class DeploymentSpec:
    """How a system is deployed for one benchmark run."""

    node_count: int = 4
    latency: typing.Optional[LatencyModel] = None
    seed: int = 0
    #: System-specific parameters overriding the defaults (Table 5/6
    #: names: MaxMessageCount, istanbul.blockperiod, block_interval, ...).
    params: typing.Dict[str, object] = dataclasses.field(default_factory=dict)

    @property
    def server_count(self) -> int:
        """Servers carrying blockchain nodes.

        The base deployment puts one node per server on four servers
        (Table 4); the scalability study distributes 8/16/32 nodes over
        eight servers round-robin, at most four nodes per server
        (Section 5.8.2).
        """
        return min(8, self.node_count) if self.node_count > 4 else self.node_count


@dataclasses.dataclass(frozen=True)
class BlockProposal:
    """A cut block on its way through consensus (sealed on commit)."""

    proposal_id: str
    transactions: typing.Tuple[Transaction, ...]
    created_at: float
    #: System-specific annotations riding along (e.g. Fabric's rwsets).
    metadata: typing.Dict[str, object] = dataclasses.field(default_factory=dict)

    @classmethod
    def cut(
        cls,
        transactions: typing.Sequence[Transaction],
        created_at: float,
        proposal_id: typing.Optional[str] = None,
    ) -> "BlockProposal":
        """Make a proposal (fresh id unless the caller provides a
        deterministic one, e.g. Kafka-ordered cutting where every
        orderer must produce the identical block)."""
        return cls(
            proposal_id=proposal_id or f"prop{next(_proposal_counter)}",
            transactions=tuple(transactions),
            created_at=created_at,
        )

    @functools.cached_property
    def merkle_root(self) -> str:
        """Merkle root over the proposal's transactions.

        A pure function of the agreed content, so it is built once per
        decided block and shared by every replica that seals it.
        """
        return MerkleTree(self.transactions).root

    @property
    def payload_count(self) -> int:
        """Payloads across all transactions."""
        return sum(len(tx.payloads) for tx in self.transactions)

    @property
    def size_bytes(self) -> int:
        """Wire size of the proposal."""
        return 512 + sum(tx.size_bytes for tx in self.transactions)

    @property
    def is_empty(self) -> bool:
        """Whether the proposal carries no transactions."""
        return not self.transactions


@dataclasses.dataclass(frozen=True)
class ClientReject:
    """An immediate rejection notice (queue full, double spend...)."""

    payload_ids: typing.Tuple[str, ...]
    reason: str


class FinalityTracker:
    """Implements "persisted on all nodes" (paper Figure 2, T3).

    Keys are proposal or transaction ids; once every required node has
    recorded a commit for a key, the registered callback fires with the
    time of the *last* commit.
    """

    def __init__(self, required_nodes: typing.Sequence[str]) -> None:
        self.required: typing.Set[str] = set(required_nodes)
        if not self.required:
            raise ValueError("finality requires at least one node")
        self._commits: typing.Dict[str, typing.Set[str]] = {}
        self._callback: typing.Optional[typing.Callable[[str, float], None]] = None
        self.finalized_count = 0

    def on_final(self, callback: typing.Callable[[str, float], None]) -> None:
        """Register the single finality callback ``(key, last_commit_time)``."""
        self._callback = callback

    def record_commit(self, key: str, node_id: str, now: float) -> bool:
        """Note that ``node_id`` persisted ``key``; returns True on finality."""
        if node_id not in self.required:
            raise ValueError(f"unexpected node {node_id!r} for finality of {key!r}")
        seen = self._commits.setdefault(key, set())
        seen.add(node_id)
        if seen == self.required:
            del self._commits[key]
            self.finalized_count += 1
            if self._callback is not None:
                self._callback(key, now)
            return True
        return False

    def pending_keys(self) -> int:
        """Keys committed somewhere but not yet everywhere."""
        return len(self._commits)


class BaseNode(Endpoint):
    """One blockchain node: chain replica, state, CPU, event delivery."""

    def __init__(self, system: "SystemModel", node_id: str) -> None:
        super().__init__(node_id)
        self.system = system
        self.sim: Simulator = system.sim
        self.profile: PerformanceProfile = system.profile
        self.chain = Chain(owner=node_id)
        self.state = WorldState()
        self.iel: InterfaceExecutionLayer = create_iel(system.iel_name)
        self.cpu = BusyClock()
        #: Items behind the one being committed (see :meth:`enqueue_commit`).
        self._commit_waiting: typing.Deque[typing.Any] = collections.deque()
        self._committing = False
        #: The event service: a FIFO server of its own, off the CPU.
        self._emitter = BusyClock()
        self._event_backlog_payloads = 0
        self.dropped_notifications = 0
        self.rejected_submissions = 0
        self.executed_payloads = 0

    # ------------------------------------------------------------------
    # Cost helpers

    def busy(self, duration: float) -> typing.Generator:
        """Occupy this node's CPU for ``duration`` (generator helper).

        The work queues FIFO behind every earlier reservation; the
        caller resumes when it is done.
        """
        sim = self.sim
        end = self.cpu.reserve(sim.now, duration)
        yield sim.timeout(sim.delay_until(end))
        while sim.now < end:  # a two-hop landing, see Simulator.delay_until
            yield sim.timeout(sim.delay_until(end))

    def on_cpu(self, duration: float, callback: typing.Callable[..., None],
               *args: object) -> None:
        """Queue ``duration`` of CPU work like :meth:`busy`, then run
        ``callback(*args)`` once it is done."""
        sim = self.sim
        sim.call_at(self.cpu.reserve(sim.now, duration), callback, *args)

    def execute_cost_of(self, payload: Payload) -> float:
        """Calibrated execution time of one payload on this system."""
        return self.profile.execute_cost * self.profile.function_multiplier(payload.function)

    def execution_time(self, transactions: typing.Iterable[Transaction]) -> float:
        """Execution + per-tx overhead time for a set of transactions."""
        total = 0.0
        for tx in transactions:
            total += self.profile.per_tx_overhead
            for payload in tx.payloads:
                total += self.execute_cost_of(payload)
        return total

    # ------------------------------------------------------------------
    # State application

    def apply_payloads(
        self, transactions: typing.Iterable[Transaction], atomic_tx: bool = True
    ) -> typing.Dict[str, typing.Tuple[TxStatus, str]]:
        """Order-execute application: run every payload on world state.

        Returns ``payload_id -> (status, detail)``. With ``atomic_tx``, a
        failing payload discards its whole transaction (BitShares
        operations, Sawtooth batches map batches separately).
        """
        state = self.state
        execute = self.iel.execute
        outcome: typing.Dict[str, typing.Tuple[TxStatus, str]] = {}
        executed = 0
        for tx in transactions:
            # Buffer each transaction's writes so an atomic failure
            # leaves the world state untouched. Payloads inside the
            # transaction see each other's writes through the buffer.
            adapter = ReadWriteSetAdapter(state)
            error: typing.Optional[str] = None
            succeeded = 0
            for payload in tx.payloads:
                result = execute(payload, adapter)
                if result.ok:
                    succeeded += 1
                    outcome[payload.payload_id] = _COMMITTED
                else:
                    outcome[payload.payload_id] = (TxStatus.DISCARDED, result.error)
                    if error is None:
                        error = result.error
            if error is not None and atomic_tx:
                # Re-assigning keeps each payload's place in the order.
                discarded = (TxStatus.DISCARDED, error)
                for payload in tx.payloads:
                    outcome[payload.payload_id] = discarded
                continue
            state.apply(adapter.rwset)
            executed += succeeded
        self.executed_payloads += executed
        self._trace_execution(len(outcome))
        checker = self.sim.checker
        if checker.enabled:
            checker.on_apply(self.endpoint_id, outcome)
        return outcome

    def _trace_execution(self, payload_count: int) -> None:
        """Account one IEL application batch on this node."""
        tracer = self.sim.tracer
        if tracer.enabled and tracer.wants("iel") and payload_count:
            tracer.event(
                "iel.apply", category="iel", node=self.endpoint_id,
                payloads=payload_count, iel=self.system.iel_name,
            )
            tracer.metrics.counter("iel.payloads", system=self.system.name,
                                   node=self.endpoint_id).inc(payload_count)

    def try_apply_batch(
        self, transactions: typing.Iterable[Transaction]
    ) -> typing.Tuple[bool, typing.Dict[str, typing.Tuple[TxStatus, str]]]:
        """Batch-atomic application (Sawtooth semantics).

        All payloads of all transactions execute against one buffer; if
        any payload fails, nothing is applied and every payload reports
        DISCARDED. Otherwise the buffer is applied and all report
        COMMITTED.
        """
        adapter = ReadWriteSetAdapter(self.state)
        execute = self.iel.execute
        outcome: typing.Dict[str, typing.Tuple[TxStatus, str]] = {}
        first_error: typing.Optional[str] = None
        for tx in transactions:
            for payload in tx.payloads:
                result = execute(payload, adapter)
                if result.ok:
                    outcome[payload.payload_id] = _COMMITTED
                else:
                    outcome[payload.payload_id] = (TxStatus.DISCARDED, result.error)
                    if first_error is None:
                        first_error = result.error
        if first_error is not None:
            outcome = {
                payload_id: (TxStatus.DISCARDED, first_error) for payload_id in outcome
            }
            return False, outcome
        self.state.apply(adapter.rwset)
        self.executed_payloads += len(outcome)
        self._trace_execution(len(outcome))
        checker = self.sim.checker
        if checker.enabled:
            checker.on_apply(self.endpoint_id, outcome)
        return True, outcome

    def seal_and_append(self, proposal: BlockProposal, proposer: str) -> Block:
        """Turn a decided proposal into a block on this node's chain.

        The header timestamp is the proposal's creation time — part of
        the agreed content — so every replica seals a byte-identical
        block.
        """
        block = Block.seal(
            height=self.chain.height + 1,
            parent_hash=self.chain.head_hash,
            transactions=proposal.transactions,
            proposer=proposer,
            timestamp=proposal.created_at,
            merkle_root=proposal.merkle_root,
        )
        # Sealed here from the decided proposal's shared root, so the
        # header is correct by construction; skip the re-hash on append.
        # Strict checking still re-verifies every replica's block.
        self.chain.append(block, verify_merkle=False)
        checker = self.sim.checker
        if checker.enabled:
            checker.on_block(self.endpoint_id, block)
        tracer = self.sim.tracer
        if tracer.enabled and tracer.wants("storage"):
            tracer.event(
                "block.append", category="storage", node=self.endpoint_id,
                height=block.height, txs=len(proposal.transactions),
                payloads=proposal.payload_count, bytes=proposal.size_bytes,
            )
            tracer.metrics.counter("storage.blocks", system=self.system.name,
                                   node=self.endpoint_id).inc()
            tracer.metrics.histogram(
                "storage.block_payloads", system=self.system.name, base=1.0,
            ).record(proposal.payload_count)
        return block

    # ------------------------------------------------------------------
    # Commit pipeline

    def enqueue_commit(self, item: typing.Any) -> None:
        """Queue a decided item (a consensus decision, or a Fabric block)
        for commit, FIFO behind every earlier one.

        An idle pipeline starts the item after a zero-delay hop; a busy
        one holds it in the waiting queue until the item ahead finishes.
        The CPU is booked when an item starts, so commit work queues on
        the CPU behind whatever was booked before that instant.
        """
        if self._committing:
            self._commit_waiting.append(item)
        else:
            self._committing = True
            self.sim.schedule(0.0, self._start_commit, item)

    def _start_commit(self, item: typing.Any) -> None:
        cost = self.commit_cost(item)
        if cost is None:
            self._commit_done(item)
        else:
            self.on_cpu(cost, self._commit_done, item)

    def _commit_done(self, item: typing.Any) -> None:
        self.finish_commit(item)
        if self._commit_waiting:
            self.sim.schedule(0.0, self._start_commit, self._commit_waiting.popleft())
        else:
            self._committing = False

    def commit_cost(self, decision: Decision) -> typing.Optional[float]:
        """CPU seconds committing an item takes, or ``None`` when it takes
        no CPU.

        The default is order-execute: the per-block overhead plus running
        every transaction of a decided block; an empty block is free.
        """
        proposal = typing.cast(BlockProposal, decision.proposal)
        if proposal.is_empty:
            return None
        return self.profile.block_overhead + self.execution_time(proposal.transactions)

    def finish_commit(self, decision: Decision) -> None:
        """Apply and persist an item once its CPU work is done.

        The default executes a decided block on world state, appends it
        and records this node's commit toward finality.
        """
        proposal = typing.cast(BlockProposal, decision.proposal)
        if proposal.is_empty:
            self.seal_and_append(proposal, decision.proposer)
            return
        outcome = self.apply_payloads(proposal.transactions)
        self.seal_and_append(proposal, decision.proposer)
        system = self.system
        system.stage_finality(proposal.proposal_id, outcome, self.chain.height)
        system.record_commit(proposal.proposal_id, self.endpoint_id)

    # ------------------------------------------------------------------
    # Messaging

    def on_message(self, message: Message) -> None:
        if message.kind == "client/submit":
            self.system.handle_submit(self, message)
        elif message.kind.split("/", 1)[0] in self.system.engine_prefixes:
            self.system.route_engine_message(self, message)
        else:
            self.system.handle_node_message(self, message)

    # ------------------------------------------------------------------
    # Event delivery (the end-to-end notification path)

    def notify_client(self, client_id: str, receipts: typing.Sequence[Receipt]) -> None:
        """Queue finalization notifications for delivery to a client.

        The event service emits them FIFO, ``event_emit_cost`` per
        receipt. When the backlog exceeds the profile's event-queue
        capacity the notifications are dropped — committed on chain,
        never observed by the client (the paper's Fabric failure mode).
        """
        if not receipts:
            return
        capacity = self.profile.event_queue_capacity
        if capacity is not None and self._event_backlog_payloads + len(receipts) > capacity:
            self.dropped_notifications += len(receipts)
            tracer = self.sim.tracer
            if tracer.enabled and tracer.wants("chain"):
                tracer.event(
                    "notify.drop", category="chain", node=self.endpoint_id,
                    client=client_id, count=len(receipts),
                    backlog=self._event_backlog_payloads,
                )
                tracer.metrics.counter(
                    "chain.dropped_notifications",
                    system=self.system.name, node=self.endpoint_id,
                ).inc(len(receipts))
            return
        self._event_backlog_payloads += len(receipts)
        sim = self.sim
        end = self._emitter.reserve(sim.now, self.profile.event_emit_cost * len(receipts))
        sim.call_at(end, self._emit, client_id, list(receipts))

    def reject_client(self, client_id: str, payload_ids: typing.Sequence[str], reason: str) -> None:
        """Send an immediate rejection notice."""
        self.rejected_submissions += len(payload_ids)
        self.send(
            client_id,
            "client/reject",
            ClientReject(tuple(payload_ids), reason),
            size_bytes=64 + 16 * len(payload_ids),
        )

    def _emit(self, client_id: str, receipts: typing.List[Receipt]) -> None:
        self._event_backlog_payloads -= len(receipts)
        self.send(
            client_id,
            "client/receipt",
            receipts,
            size_bytes=64 + 48 * len(receipts),
        )


class SystemModel(abc.ABC):
    """One deployed blockchain system under test."""

    #: Registry name ("fabric", "quorum", ...).
    name: str = ""
    #: First path segments of this system's consensus message kinds.
    engine_prefixes: typing.Tuple[str, ...] = ()
    #: Seconds the system needs to stabilise before serving workloads
    #: (Section 4.4: 180 s BitShares/Quorum, 60 s Sawtooth, 0 otherwise).
    stabilization_time: float = 0.0

    def __init__(self, sim: Simulator, spec: DeploymentSpec, iel_name: str) -> None:
        self.sim = sim
        self.spec = spec
        self.iel_name = iel_name
        self.profile = profile_for(self.name)
        self.params: typing.Dict[str, object] = {**self.default_params(), **spec.params}
        latency = spec.latency or DATACENTER_LATENCY
        self.network = Network(sim, default_latency=latency, name=self.name)
        self.server_hosts = [Host(f"server-{i}") for i in range(spec.server_count)]
        self.node_ids = [f"{self.name}-n{i}" for i in range(spec.node_count)]
        self.nodes: typing.Dict[str, BaseNode] = {}
        for index, node_id in enumerate(self.node_ids):
            node = self.make_node(node_id)
            host = self.server_hosts[index % len(self.server_hosts)]
            self.network.attach(node, host)
            self.nodes[node_id] = node
        self.finality = FinalityTracker(self.node_ids)
        self.finality.on_final(self._on_final)
        #: client_id -> gateway node id (set on subscribe).
        self.subscriptions: typing.Dict[str, str] = {}
        #: proposal/tx id -> pending finalization context.
        self._pending_final: typing.Dict[str, typing.Dict[str, typing.Tuple[TxStatus, str]]] = {}
        self._pending_height: typing.Dict[str, typing.Optional[int]] = {}
        self.started = False
        #: True when a fault plan is installed on this deployment. Systems
        #: whose failure handling would perturb calibrated healthy-run
        #: behaviour (Corda's flow reply timeouts) only arm it when set,
        #: keeping fault-free runs byte-identical.
        self.fault_mode = False
        self.build()

    # ------------------------------------------------------------------
    # Subclass hooks

    @abc.abstractmethod
    def default_params(self) -> typing.Dict[str, object]:
        """The system's default parameter values (Tables 5/6)."""

    def make_node(self, node_id: str) -> BaseNode:
        """Create one node (subclasses return their node subclass)."""
        return BaseNode(self, node_id)

    @abc.abstractmethod
    def build(self) -> None:
        """Wire consensus engines and auxiliary components."""

    @abc.abstractmethod
    def start(self) -> None:
        """Begin operation (engines, block timers)."""

    @abc.abstractmethod
    def handle_submit(self, node: BaseNode, message: Message) -> None:
        """Admit one client submission arriving at ``node``."""

    def route_engine_message(self, node: BaseNode, message: Message) -> None:
        """Deliver a consensus message to the node's engine (override)."""
        raise NotImplementedError(f"{self.name} has no engine router")

    def handle_node_message(self, node: BaseNode, message: Message) -> None:
        """Handle non-engine, non-submit node traffic (override as needed)."""
        raise NotImplementedError(f"{self.name}: unhandled message kind {message.kind!r}")

    # ------------------------------------------------------------------
    # Fault injection (crash/restart lifecycle)

    def engine_of(self, endpoint_id: str) -> typing.Optional[object]:
        """The consensus engine behind an endpoint, if it has one.

        Systems whose consensus lives off the node (Fabric's orderers,
        Corda's notaries) override this to cover those endpoints too.
        """
        node = self.nodes.get(endpoint_id)
        return getattr(node, "engine", None) if node is not None else None

    def leader_id(self) -> typing.Optional[str]:
        """The endpoint currently coordinating consensus, if the system
        has such a role (Raft leader, PBFT primary, IBFT proposer, DPoS
        slot witness, Corda notary). ``None`` for leaderless systems."""
        return None

    def enter_fault_mode(self) -> None:
        """Arm the defensive paths that stay cold in healthy runs.

        Sets :attr:`fault_mode` and switches every consensus engine into
        recovery mode (vote re-broadcast, gap sync — behaviours that
        would perturb calibrated fault-free schedules).
        """
        self.fault_mode = True
        for node_id in self.node_ids:
            engine = self.engine_of(node_id)
            if engine is not None and hasattr(engine, "enable_recovery"):
                engine.enable_recovery()

    def crash_node(self, endpoint_id: str) -> None:
        """Crash one endpoint: it stops sending, receiving and deciding.

        Messages already in flight toward it are dropped. Durable state
        (chain replica, world state, decided logs) survives — the model's
        crashes are process crashes, not disk loss.
        """
        self.network.set_endpoint_down(endpoint_id)
        engine = self.engine_of(endpoint_id)
        if engine is not None:
            engine.on_crash()
        self._post_crash(endpoint_id)

    def restart_node(self, endpoint_id: str) -> None:
        """Restart a crashed endpoint; its engine runs its recovery path."""
        self.network.set_endpoint_up(endpoint_id)
        engine = self.engine_of(endpoint_id)
        if engine is not None:
            engine.on_restart()
        self._post_restart(endpoint_id)

    def _post_crash(self, endpoint_id: str) -> None:
        """System-specific crash side effects (override as needed)."""

    def _post_restart(self, endpoint_id: str) -> None:
        """System-specific restart side effects (override as needed)."""

    # ------------------------------------------------------------------
    # Client attachment

    def attach_client(self, client: Endpoint, host: Host) -> None:
        """Put a client endpoint on the network."""
        self.network.attach(client, host)

    def gateway_for(self, client_index: int) -> str:
        """The node a client connects to (one client per server, paper 4.3)."""
        return self.node_ids[client_index % len(self.node_ids)]

    def subscribe(self, client_id: str, gateway_node_id: str) -> None:
        """Register a client for finalization notifications via a gateway."""
        if gateway_node_id not in self.nodes:
            raise KeyError(f"unknown gateway node {gateway_node_id!r}")
        self.subscriptions[client_id] = gateway_node_id

    # ------------------------------------------------------------------
    # Finality plumbing

    def stage_finality(
        self,
        key: str,
        outcome: typing.Dict[str, typing.Tuple[TxStatus, str]],
        block_height: typing.Optional[int],
    ) -> None:
        """Record the payload outcomes that finality of ``key`` will report."""
        self._pending_final[key] = outcome
        self._pending_height[key] = block_height
        tracer = self.sim.tracer
        if tracer.enabled:
            # First local commit -> persisted on all nodes (Figure 2, T3).
            tracer.begin(
                ("finality", self.name, key), "block.finality", category="chain",
                key=key, payloads=len(outcome), height=block_height,
            )

    def record_commit(self, key: str, node_id: str) -> None:
        """A node persisted ``key``; fires finality when it is the last."""
        self.finality.record_commit(key, node_id, self.sim.now)

    def _on_final(self, key: str, commit_time: float) -> None:
        outcome = self._pending_final.pop(key, None)
        height = self._pending_height.pop(key, None)
        tracer = self.sim.tracer
        if tracer.enabled:
            tracer.end(("finality", self.name, key), at=commit_time)
        if not outcome:
            return
        by_client: typing.Dict[str, typing.List[Receipt]] = {}
        owners = self._owners
        for payload_id, (status, detail) in outcome.items():
            client_id = owners.pop(payload_id, "")
            receipt = Receipt(
                payload_id=payload_id,
                tx_id=key,
                status=status,
                block_height=height,
                commit_time=commit_time,
                detail=detail,
            )
            by_client.setdefault(client_id, []).append(receipt)
        for client_id, receipts in by_client.items():
            gateway_id = self.subscriptions.get(client_id)
            if gateway_id is None:
                continue
            self.nodes[gateway_id].notify_client(client_id, receipts)

    #: payload_id -> submitting client id, maintained by subclasses on
    #: admission (needed to route receipts).
    @property
    def _owners(self) -> typing.Dict[str, str]:
        if not hasattr(self, "_owner_map"):
            self._owner_map: typing.Dict[str, str] = {}
        return self._owner_map

    def remember_owner(self, payloads: typing.Iterable[Payload]) -> None:
        """Record which client each payload belongs to."""
        owners = self._owners
        checker = self.sim.checker
        for payload in payloads:
            owners[payload.payload_id] = payload.client_id
            if checker.enabled:
                checker.on_payload(payload)

    # ------------------------------------------------------------------
    # Diagnostics

    def total_chain_height(self) -> typing.Dict[str, int]:
        """Chain height per node (diagnostic)."""
        return {node_id: node.chain.height for node_id, node in self.nodes.items()}

    def validate_all_chains(self) -> None:
        """Full tamper-evidence validation of every replica, plus mutual
        prefix consistency — the safety check integration tests run."""
        nodes = list(self.nodes.values())
        for node in nodes:
            node.chain.validate()
        for other in nodes[1:]:
            if not nodes[0].chain.same_prefix(other.chain):
                raise AssertionError(
                    f"chains diverged between {nodes[0].endpoint_id} and {other.endpoint_id}"
                )
