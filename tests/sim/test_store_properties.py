"""Property tests: the oracle Store against a plain deque model."""

import collections

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator
from tests.sim.legacy_store import Store

# Operation stream: ("put", value) | ("get",) | ("drain", n)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers()),
        st.tuples(st.just("get")),
        st.tuples(st.just("drain"), st.integers(min_value=0, max_value=5)),
    ),
    max_size=80,
)


class TestStoreModel:
    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_unbounded_store_behaves_like_a_deque(self, ops):
        sim = Simulator(seed=1)
        store = Store(sim)
        model = collections.deque()
        for op in ops:
            if op[0] == "put":
                assert store.try_put(op[1])
                model.append(op[1])
            elif op[0] == "get":
                ok, item = store.try_get()
                if model:
                    assert ok and item == model.popleft()
                else:
                    assert not ok
            else:
                taken = store.drain(limit=op[1])
                expected = [model.popleft() for __ in range(min(op[1], len(model)))]
                assert taken == expected
        assert store.peek_all() == list(model)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=1, max_value=5), st.lists(st.integers(), max_size=30))
    def test_bounded_store_never_exceeds_capacity(self, capacity, values):
        sim = Simulator(seed=1)
        store = Store(sim, capacity=capacity)
        accepted = 0
        for value in values:
            if store.try_put(value):
                accepted += 1
            assert len(store) <= capacity
        assert accepted == min(capacity, len(values))
