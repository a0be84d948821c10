"""The replicated commit path against its pre-optimization form.

Every replica seals a decided block with the proposal's shared Merkle
root and executes it through a lean apply path. These tests pin that
nothing observable moved: random KeyValue and BankingApp blocks (with
failing payloads, 1-5 payloads per transaction, atomic and non-atomic)
give the same outcomes in the same order, the same world state with
versions and the same counters as verbatim copies of the old
``apply_payloads``, ``try_apply_batch``, ``InterfaceExecutionLayer.execute``
and ``WorldState.validate``/``apply``. They also cover the shared root
and the MVCC delete/re-create ABA.
"""

import typing

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chains.base import BlockProposal, DeploymentSpec
from repro.chains.registry import create_system
from repro.crypto.hashing import GENESIS_HASH
from repro.crypto.merkle import MerkleTree
from repro.iel.banking import BankingAppIEL
from repro.iel.base import (
    ExecutionResult,
    IELError,
    StateInterface,
    WorldStateAdapter,
)
from repro.iel.keyvalue import KeyValueIEL
from repro.invariants import InvariantChecker
from repro.sim import Simulator
from repro.storage import ReadWriteSet, Transaction, TxStatus, WorldState
from repro.storage.block import Block
from repro.storage.transaction import Payload

# ----------------------------------------------------------------------
# Verbatim pre-optimization copies


class _LegacyWorldState(WorldState):
    """``version``/``set``/``delete``/``validate``/``apply`` as they were:
    through ``version()`` and ``set()`` per key, no tombstones."""

    def version(self, key):
        entry = self._data.get(key)
        return entry[1] if entry else 0

    def set(self, key, value):
        new_version = self.version(key) + 1
        self._data[key] = (value, new_version)
        return new_version

    def delete(self, key):
        self._data.pop(key, None)

    def validate(self, rwset):
        return all(self.version(key) == version for key, version in rwset.reads.items())

    def apply(self, rwset):
        if not self.validate(rwset):
            self.invalidated_count += 1
            return False
        for key, value in rwset.writes.items():
            self.set(key, value)
        for key in rwset.deletes:
            self.delete(key)
        self.commit_count += 1
        return True


class _LegacyReadWriteSetAdapter(StateInterface):
    """The adapter as it was, initialised through ``super().__init__()``."""

    def __init__(self, state):
        super().__init__()
        self.state = state
        self.rwset = ReadWriteSet()

    def get(self, key):
        self.reads += 1
        self.work += 1.0
        if key in self.rwset.writes:
            return self.rwset.writes[key]
        if key in self.rwset.deletes:
            return None
        value, version = self.state.get_versioned(key)
        self.rwset.record_read(key, version)
        return value

    def put(self, key, value):
        self.writes += 1
        self.work += 1.0
        self.rwset.record_write(key, value)


class _LegacyExecute:
    """``InterfaceExecutionLayer.execute`` as it was: a formatted,
    lower-cased ``getattr`` and a ``functions()`` tuple per call."""

    def execute(self, payload, state):
        handler = getattr(self, f"_fn_{payload.function.lower()}", None)
        if handler is None or payload.function not in self.functions():
            return ExecutionResult(
                ok=False,
                error=f"unknown function {payload.function!r} in IEL {self.name!r}",
                work_units=1.0,
            )
        work_before = state.work
        reads_before, writes_before = state.reads, state.writes
        try:
            value = handler(payload, state)
        except IELError as error:
            return ExecutionResult(
                ok=False,
                error=str(error),
                work_units=max(1.0, state.work - work_before),
                reads=state.reads - reads_before,
                writes=state.writes - writes_before,
            )
        return ExecutionResult(
            ok=True,
            work_units=max(1.0, state.work - work_before),
            reads=state.reads - reads_before,
            writes=state.writes - writes_before,
            value=value,
        )


class _LegacyKeyValue(_LegacyExecute, KeyValueIEL):
    pass


class _LegacyBanking(_LegacyExecute, BankingAppIEL):
    pass


_LEGACY_IELS = {"KeyValue": _LegacyKeyValue, "BankingApp": _LegacyBanking}


def _legacy_apply_payloads(self, transactions, atomic_tx=True):
    outcome = {}
    for tx in transactions:
        adapter = _LegacyReadWriteSetAdapter(self.state)
        results = [(payload, self.iel.execute(payload, adapter)) for payload in tx.payloads]
        failed = [(p, r) for p, r in results if not r.ok]
        if failed and atomic_tx:
            for payload in tx.payloads:
                outcome[payload.payload_id] = (TxStatus.DISCARDED, failed[0][1].error)
            continue
        self.state.apply(adapter.rwset)
        for payload, result in results:
            if result.ok:
                self.executed_payloads += 1
                outcome[payload.payload_id] = (TxStatus.COMMITTED, "")
            else:
                outcome[payload.payload_id] = (TxStatus.DISCARDED, result.error)
    self._trace_execution(len(outcome))
    checker = self.sim.checker
    if checker.enabled:
        checker.on_apply(self.endpoint_id, outcome)
    return outcome


def _legacy_try_apply_batch(self, transactions):
    adapter = _LegacyReadWriteSetAdapter(self.state)
    outcome = {}
    ok = True
    first_error = ""
    for tx in transactions:
        for payload in tx.payloads:
            result = self.iel.execute(payload, adapter)
            outcome[payload.payload_id] = (
                (TxStatus.COMMITTED, "") if result.ok else (TxStatus.DISCARDED, result.error)
            )
            if not result.ok and ok:
                ok = False
                first_error = result.error
    if not ok:
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


# ----------------------------------------------------------------------
# Harness


class _ApplyRecorder:
    """A checker that records every ``on_apply`` in call order."""

    enabled = True

    def __init__(self) -> None:
        self.applies: typing.List[tuple] = []

    def on_apply(self, node_id, outcome):
        self.applies.append((node_id, list(outcome.items())))


def _node(iel_name, legacy):
    """One replica of a fresh (unstarted) Quorum deployment; the legacy
    one runs the verbatim copies' state and IEL."""
    sim = Simulator(seed=1)
    sim.set_checker(_ApplyRecorder())
    system = create_system("quorum", sim, DeploymentSpec(), iel_name)
    node = system.nodes[system.node_ids[0]]
    if legacy:
        node.state = _LegacyWorldState()
        node.iel = _LEGACY_IELS[iel_name]()
    return node


_KEYS = ("a", "b", "c", "d")
_ACCOUNTS = ("x", "y", "z")

_KEYVALUE_CALLS = st.one_of(
    st.tuples(st.just("Set"), st.fixed_dictionaries(
        {"key": st.sampled_from(_KEYS), "value": st.integers(0, 9)})),
    # A Get of a key nothing has written fails.
    st.tuples(st.just("Get"), st.fixed_dictionaries({"key": st.sampled_from(_KEYS)})),
    st.tuples(st.just("Rmw"), st.fixed_dictionaries(
        {"key": st.sampled_from(_KEYS), "value": st.integers(0, 9)})),
    st.tuples(st.just("Set"), st.just({})),  # missing argument
    st.tuples(st.sampled_from(["set", "Delete"]), st.just({"key": "a"})),  # unknown
)

_BANKING_CALLS = st.one_of(
    st.tuples(st.just("CreateAccount"), st.fixed_dictionaries({
        "account": st.sampled_from(_ACCOUNTS),
        "checking": st.integers(0, 20), "saving": st.integers(0, 5)})),
    # Overdrawn, unknown-account and non-positive payments all fail.
    st.tuples(st.just("SendPayment"), st.fixed_dictionaries({
        "source": st.sampled_from(_ACCOUNTS), "destination": st.sampled_from(_ACCOUNTS),
        "amount": st.integers(-1, 30)})),
    st.tuples(st.just("Balance"), st.fixed_dictionaries(
        {"account": st.sampled_from(_ACCOUNTS)})),
)


@st.composite
def _blocks(draw):
    """``(iel, atomic_tx, blocks)``: 1-3 blocks of 1-6 transactions of
    1-5 payloads each, all for one IEL."""
    iel = draw(st.sampled_from(["KeyValue", "BankingApp"]))
    calls = _KEYVALUE_CALLS if iel == "KeyValue" else _BANKING_CALLS
    blocks = []
    for __ in range(draw(st.integers(1, 3))):
        block = []
        for __ in range(draw(st.integers(1, 6))):
            specs = draw(st.lists(calls, min_size=1, max_size=5))
            payloads = [Payload.create("client-0", iel, fn, args) for fn, args in specs]
            block.append(Transaction.wrap(payloads, submitter="client-0"))
        blocks.append(block)
    return iel, draw(st.booleans()), blocks


def _observed(node):
    state = node.state
    return (
        list(state._data.items()),
        state.commit_count,
        state.invalidated_count,
        node.executed_payloads,
        node.sim.checker.applies,
    )


# ----------------------------------------------------------------------
# Equivalence properties


class TestEquivalence:
    @settings(max_examples=120, deadline=None)
    @given(_blocks())
    def test_apply_payloads_matches_legacy(self, drawn):
        iel, atomic_tx, blocks = drawn
        current, legacy = _node(iel, legacy=False), _node(iel, legacy=True)
        for block in blocks:
            got = current.apply_payloads(block, atomic_tx=atomic_tx)
            want = _legacy_apply_payloads(legacy, block, atomic_tx=atomic_tx)
            assert list(got.items()) == list(want.items())
        assert _observed(current) == _observed(legacy)

    @settings(max_examples=120, deadline=None)
    @given(_blocks())
    def test_try_apply_batch_matches_legacy(self, drawn):
        iel, __, blocks = drawn
        current, legacy = _node(iel, legacy=False), _node(iel, legacy=True)
        for block in blocks:
            got_ok, got = current.try_apply_batch(block)
            want_ok, want = _legacy_try_apply_batch(legacy, block)
            assert got_ok == want_ok
            assert list(got.items()) == list(want.items())
        assert _observed(current) == _observed(legacy)

    @settings(max_examples=120, deadline=None)
    @given(_blocks())
    def test_execute_results_match_legacy(self, drawn):
        iel, __, blocks = drawn
        current, legacy = _node(iel, legacy=False), _node(iel, legacy=True)
        current_adapter = WorldStateAdapter(current.state)
        legacy_adapter = WorldStateAdapter(legacy.state)
        for block in blocks:
            for tx in block:
                for payload in tx.payloads:
                    got = current.iel.execute(payload, current_adapter)
                    want = legacy.iel.execute(payload, legacy_adapter)
                    assert got == want
        assert list(current.state._data.items()) == list(legacy.state._data.items())

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(st.sampled_from(_KEYS), st.integers(0, 9)), max_size=8),
        st.lists(
            st.tuples(
                st.dictionaries(st.sampled_from(_KEYS + ("e",)), st.integers(0, 4), max_size=4),
                st.dictionaries(st.sampled_from(_KEYS), st.integers(0, 9), max_size=3),
            ),
            min_size=1, max_size=6,
        ),
    )
    def test_validate_and_apply_match_legacy(self, preload, rwsets):
        # Reads at arbitrary (often stale) versions exercise the MVCC
        # rejection path, which order-execute application never takes.
        current, legacy = WorldState(), _LegacyWorldState()
        for key, value in preload:
            assert current.set(key, value) == legacy.set(key, value)
        for reads, writes in rwsets:
            rwset = ReadWriteSet(reads=dict(reads), writes=dict(writes))
            assert current.validate(rwset) == legacy.validate(rwset)
            assert current.apply(rwset) == legacy.apply(rwset)
        assert list(current._data.items()) == list(legacy._data.items())
        assert (current.commit_count, current.invalidated_count) == (
            legacy.commit_count, legacy.invalidated_count)


# ----------------------------------------------------------------------
# Unit tests


class TestUnknownFunctions:
    def test_unknown_and_wrong_case_error_text(self):
        iel = KeyValueIEL()
        adapter = WorldStateAdapter(WorldState())
        for function in ("Delete", "set", "SET", "_fn_set"):
            result = iel.execute(Payload.create("c", "KeyValue", function, {"key": "k"}), adapter)
            assert result == ExecutionResult(
                False, f"unknown function {function!r} in IEL 'KeyValue'", 1.0)
        assert adapter.work == 0.0 and len(adapter.state) == 0

    def test_listed_function_without_handler_is_unknown(self):
        class Partial(KeyValueIEL):
            def functions(self):
                return ("Set", "Missing")

        result = Partial().execute(Payload.create("c", "KeyValue", "Missing", {}),
                                   WorldStateAdapter(WorldState()))
        assert result.error == "unknown function 'Missing' in IEL 'KeyValue'"

    def test_subclass_init_without_super(self):
        class Counter(KeyValueIEL):
            def __init__(self):
                self.calls = 0

            def _fn_set(self, payload, state):
                self.calls += 1
                return super()._fn_set(payload, state)

        iel = Counter()
        result = iel.execute(Payload.create("c", "KeyValue", "Set", {"key": "k", "value": 1}),
                             WorldStateAdapter(WorldState()))
        assert result.ok and iel.calls == 1

    def test_functions_may_depend_on_init_state(self):
        class Configured(KeyValueIEL):
            def __init__(self, exposed):
                super().__init__()
                self.exposed = exposed

            def functions(self):
                return self.exposed

        adapter = WorldStateAdapter(WorldState())
        get_only = Configured(("Get",))
        set_payload = Payload.create("c", "KeyValue", "Set", {"key": "k", "value": 1})
        assert get_only.execute(set_payload, adapter).error == (
            "unknown function 'Set' in IEL 'KeyValue'")
        assert Configured(("Set", "Get")).execute(set_payload, adapter).ok


def _set_tx(key):
    payload = Payload.create("c", "KeyValue", "Set", {"key": key, "value": 1})
    return Transaction.wrap([payload], submitter="c")


class TestSharedMerkleRoot:
    def test_proposal_root_is_the_tree_root(self):
        txs = [_set_tx(f"k{i}") for i in range(7)]
        proposal = BlockProposal.cut(txs, created_at=1.0)
        assert proposal.merkle_root == MerkleTree(txs).root
        assert BlockProposal.cut([], created_at=1.0).merkle_root == MerkleTree([]).root

    def test_replicas_seal_the_same_block_from_one_root(self):
        sim = Simulator(seed=1)
        system = create_system("quorum", sim, DeploymentSpec(), "KeyValue")
        proposal = BlockProposal.cut([_set_tx("a"), _set_tx("b")], created_at=2.0)
        blocks = [node.seal_and_append(proposal, "p") for node in system.nodes.values()]
        assert len({block.block_hash for block in blocks}) == 1
        assert all(block.header.merkle_root == proposal.merkle_root for block in blocks)
        assert all(block.verify_merkle_root() for block in blocks)

    def test_strict_oracle_flags_a_block_sealed_with_a_wrong_root(self):
        txs = [_set_tx("a"), _set_tx("b")]
        wrong = MerkleTree(txs[:1]).root
        block = Block.seal(0, GENESIS_HASH, txs, "n0", 1.0, merkle_root=wrong)
        checker = InvariantChecker(level="strict", iel="KeyValue")
        checker.on_block("n0", block)
        violations = checker.report.violations_for("hash-chain")
        assert len(violations) == 1 and "merkle root mismatch" in violations[0].detail
        honest = Block.seal(0, GENESIS_HASH, txs, "n0", 1.0)
        fresh = InvariantChecker(level="strict", iel="KeyValue")
        fresh.on_block("n0", honest)
        assert fresh.report.violations_for("hash-chain") == []


class TestDeleteRecreate:
    def test_stale_read_does_not_validate_against_recreated_key(self):
        state = WorldState()
        state.set("k", "v1")
        stale = ReadWriteSet()
        stale.record_read("k", state.version("k"))
        state.delete("k")
        assert not state.validate(stale)
        state.set("k", "v2")
        assert not state.validate(stale)
        assert not state.apply(stale)
        assert state.get("k") == "v2"

    def test_deleted_key_is_absent_but_keeps_its_version(self):
        state = WorldState()
        state.set("k", "v1")
        state.set("k", "v2")
        state.delete("k")
        assert "k" not in state and len(state) == 0
        assert state.get("k") is None and list(state.keys()) == []
        value, version = state.get_versioned("k")
        assert value is None and version == state.version("k") == 3
        # A read of the absent key validates until the key comes back.
        absent = ReadWriteSet()
        absent.record_read("k", version)
        assert state.validate(absent)
        assert state.set("k", "v3") == 4
        assert not state.validate(absent)

    def test_apply_delete_then_recreate_through_rwsets(self):
        state = WorldState()
        state.set("k", "v1")
        reader = ReadWriteSet()
        reader.record_read("k", state.version("k"))
        deleter = ReadWriteSet()
        deleter.record_delete("k")
        assert state.apply(deleter)
        recreator = ReadWriteSet()
        recreator.record_write("k", "v2")
        assert state.apply(recreator)
        assert not state.apply(reader)
        assert state.snapshot_versions() == {"k": 3}

    def test_deleting_an_absent_key_changes_nothing(self):
        state = WorldState()
        state.delete("never")
        assert state.version("never") == 0
        assert state.set("never", 1) == 1
