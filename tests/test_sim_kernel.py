"""Unit tests for the discrete-event simulation kernel."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import RandomStreams, Simulator, SimulationError


def _noop():
    pass


class TestClock:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        sim.call_at(2.5, _noop)
        sim.run()
        assert sim.now == 2.5

    def test_run_until_advances_to_exact_time(self):
        sim = Simulator()
        sim.call_at(1.0, _noop)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_does_not_process_later_events(self):
        sim = Simulator()
        fired = []
        sim.call_at(1.0, lambda: fired.append(1))
        sim.call_at(10.0, lambda: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]

    def test_run_until_in_past_rejected(self):
        sim = Simulator()
        sim.call_at(1.0, _noop)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)

    def test_same_time_events_fifo(self):
        sim = Simulator()
        order = []
        for index in range(5):
            sim.call_at(1.0, lambda i=index: order.append(i))
        sim.run()
        assert order == [0, 1, 2, 3, 4]

    def test_call_at(self):
        sim = Simulator()
        fired = []
        sim.call_at(3.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [3.0]

    def test_call_at_past_rejected(self):
        sim = Simulator()
        sim.call_at(1.0, _noop)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.0, _noop)

    def test_callback_exception_propagates(self):
        sim = Simulator()

        def explode():
            raise ValueError("kaboom")

        sim.call_at(2.0, explode)
        sim.call_at(3.0, _noop)
        with pytest.raises(ValueError, match="kaboom"):
            sim.run()
        assert sim.now == 2.0


#: ``call_at`` offsets from ``now`` for the ordering property.  Dyadic
#: values add exactly, so nested schedules collide on shared
#: timestamps; ``_TINY`` is positive but too small to move a clock that
#: reads 0.25 or more.
_TINY = 1e-18
_OFFSETS = (0.0, _TINY, 0.25, 0.5, 1.0)


class HeapModel:
    """The ordering contract: one heap keyed by (due time, enqueue seq)."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = 0

    def call_at(self, when, fn):
        self._sequence += 1
        heapq.heappush(self._heap, (when, self._sequence, fn))

    def run(self, until=None):
        while self._heap and (until is None or self._heap[0][0] <= until):
            self.now, _, fn = heapq.heappop(self._heap)
            fn()
        if until is not None and until > self.now:
            self.now = until


def _execute(kernel, nodes, spans):
    """Run one random program; returns everything the order decides.

    ``nodes[i] = (pick, offset)``: node ``i`` is scheduled at ``now +
    offset`` by the firing of node ``pick % (i + 1) - 1``, or, when
    that is -1, from outside any callback just before ``run(until=now
    + span)`` for span ``pick % (len(spans) + 1)``.  A final ``run()``
    drains what is left.
    """
    children = [[] for _ in nodes]
    roots = [[] for _ in range(len(spans) + 1)]
    for index, (pick, _) in enumerate(nodes):
        parent = pick % (index + 1) - 1
        if parent < 0:
            roots[pick % (len(spans) + 1)].append(index)
        else:
            children[parent].append(index)
    observed = []

    def enqueue(index):
        kernel.call_at(kernel.now + nodes[index][1], lambda: fire(index))

    def fire(index):
        observed.append(("fire", index, kernel.now))
        for child in children[index]:
            enqueue(child)

    for slot, span in enumerate(list(spans) + [None]):
        for index in roots[slot]:
            enqueue(index)
        kernel.run(until=None if span is None else kernel.now + span)
        observed.append(("run", kernel.now))
    return observed


class TestOrderingContract:
    """Every callback fires in (due time, enqueue sequence) order."""

    @settings(max_examples=400, deadline=None)
    @given(nodes=st.lists(st.tuples(st.integers(0, 60),
                                    st.sampled_from(_OFFSETS)),
                          min_size=1, max_size=30),
           spans=st.lists(st.sampled_from((0.0, 0.25, 0.3, 1.0)),
                          max_size=8))
    def test_matches_heap_model(self, nodes, spans):
        expected = _execute(HeapModel(), nodes, spans)
        actual = _execute(Simulator(), nodes, spans)
        assert actual == expected


class TestRandomStreams:
    def test_streams_reproducible(self):
        a = RandomStreams(7).stream("x").random()
        b = RandomStreams(7).stream("x").random()
        assert a == b

    def test_streams_independent_by_name(self):
        streams = RandomStreams(7)
        assert streams["x"].random() != streams["y"].random()

    def test_same_name_returns_same_stream(self):
        streams = RandomStreams(7)
        assert streams.stream("x") is streams.stream("x")

    def test_different_seeds_differ(self):
        assert (RandomStreams(1).stream("x").random()
                != RandomStreams(2).stream("x").random())

    def test_spawn_child_independent(self):
        parent = RandomStreams(7)
        child = parent.spawn("child")
        assert parent.stream("x").random() != child.stream("x").random()
