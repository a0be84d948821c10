"""A fixed reference workload that measures how fast the host runs now.

On a shared machine the speed of one Python thread drifts by tens of
percent over minutes, as other tenants load the same cores and caches.
The benchmark runs :func:`kernel` right before and after every timed
unit and divides the unit's time by the kernel's, so the drift cancels.
Multiplying by :data:`REFERENCE_S` turns that ratio back into seconds:
the unit's time on a host where the kernel takes exactly that long.

The kernel imitates the simulator's instruction mix (a heap-ordered
event loop resuming generators, dictionary state with a working set of
several MB, object allocation and short SHA-256 digests) but imports
nothing from the repository, so no change to the program can move it.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import random
import time
import typing

#: Seconds the kernel takes on the reference host, the scale of every
#: normalised time the benchmark reports.
REFERENCE_S = 0.15

_EVENTS = 6000
_KEYS = 60000


class _Event:
    __slots__ = ("key", "value", "callbacks")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value
        self.callbacks: typing.List[object] = []


def kernel() -> int:
    """Run the reference workload once; returns a checksum."""
    rng = random.Random(7)
    state = {f"key-{i}": [i, str(i)] for i in range(_KEYS)}
    names = list(state)
    digests: typing.List[str] = []

    def process(k: int) -> typing.Iterator[_Event]:
        for j in range(4):
            yield _Event(names[rng.randrange(_KEYS)], k + j)

    heap: typing.List[list] = []
    sequence = 0
    for i in range(_EVENTS):
        sequence += 1
        heapq.heappush(heap, [rng.random() * 10, sequence, process(i)])
    while heap:
        entry = heapq.heappop(heap)
        try:
            event = next(entry[2])
        except StopIteration:
            continue
        record = state[event.key]
        record[0] += event.value
        if event.value % 3 == 0:
            digests.append(hashlib.sha256(f"{event.key}:{record[0]}".encode()).hexdigest()[:8])
        sequence += 1
        entry[0] += rng.random()
        entry[1] = sequence
        heapq.heappush(heap, entry)
    return len(digests) + sum(record[0] for record in state.values())


def measure() -> typing.Tuple[float, float]:
    """Wall and CPU seconds of one kernel run."""
    gc.collect()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    kernel()
    return time.perf_counter() - wall0, time.process_time() - cpu0
