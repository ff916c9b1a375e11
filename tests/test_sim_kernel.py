"""Unit tests for the discrete-event simulation kernel."""

import heapq

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    RandomStreams,
    Resource,
    Simulator,
    SimulationError,
    Store,
    Timeout,
)


class TestEvents:
    def test_event_lifecycle(self):
        sim = Simulator()
        event = sim.event()
        assert not event.triggered
        assert not event.processed
        event.succeed(42)
        assert event.triggered
        assert event.value == 42
        assert event.ok
        sim.run()
        assert event.processed

    def test_event_fail_carries_exception(self):
        sim = Simulator()
        event = sim.event()
        error = RuntimeError("boom")
        event.fail(error)
        assert event.triggered
        assert not event.ok
        assert event.value is error

    def test_double_trigger_rejected(self):
        sim = Simulator()
        event = sim.event()
        event.succeed()
        with pytest.raises(RuntimeError):
            event.succeed()
        with pytest.raises(RuntimeError):
            event.fail(ValueError("x"))

    def test_fail_requires_exception_instance(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.event().fail("not an exception")

    def test_value_before_trigger_raises(self):
        sim = Simulator()
        with pytest.raises(AttributeError):
            _ = sim.event().value

    def test_callback_after_processing_runs_immediately(self):
        sim = Simulator()
        event = sim.event()
        event.succeed("x")
        sim.run()
        seen = []
        event.add_callback(lambda ev: seen.append(ev.value))
        assert seen == ["x"]

    def test_timeout_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Timeout(sim, -1.0)


class TestClock:
    def test_timeout_advances_clock(self):
        sim = Simulator()
        sim.timeout(2.5)
        sim.run()
        assert sim.now == 2.5

    def test_run_until_advances_to_exact_time(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run(until=5.0)
        assert sim.now == 5.0

    def test_run_until_does_not_process_later_events(self):
        sim = Simulator()
        fired = []
        sim.timeout(1.0).add_callback(lambda ev: fired.append(1))
        sim.timeout(10.0).add_callback(lambda ev: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]

    def test_run_until_in_past_rejected(self):
        sim = Simulator()
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.run(until=0.5)

    def test_same_time_events_fifo(self):
        sim = Simulator()
        order = []
        for index in range(5):
            sim.timeout(1.0).add_callback(
                lambda ev, i=index: order.append(i))
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
        sim.timeout(1.0)
        sim.run()
        with pytest.raises(SimulationError):
            sim.call_at(0.0, lambda: None)

    def test_peek(self):
        sim = Simulator()
        assert sim.peek() == float("inf")
        sim.timeout(4.0)
        assert sim.peek() == 4.0


#: Delays (and ``call_at`` offsets from ``now``) for the ordering
#: property.  Dyadic values add exactly, so nested schedules collide on
#: shared timestamps; ``_TINY`` is positive but too small to move a
#: clock that reads 0.25 or more.
_TINY = 1e-18
_OFFSETS = (0.0, _TINY, 0.25, 0.5, 1.0)
_KINDS = ("timeout", "call_at", "succeed")


class HeapModel:
    """The ordering contract: one heap keyed by (due time, enqueue seq)."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = 0

    def schedule(self, kind, offset, fn):
        delay = 0.0 if kind == "succeed" else offset
        self._sequence += 1
        heapq.heappush(self._heap, (self.now + delay, self._sequence, fn))

    def peek(self):
        return self._heap[0][0] if self._heap else float("inf")

    def step(self):
        self.now, _, fn = heapq.heappop(self._heap)
        fn()

    def run(self, until=None):
        while self._heap and (until is None or self._heap[0][0] <= until):
            self.step()
        if until is not None and until > self.now:
            self.now = until


def _schedule_on_simulator(sim, kind, offset, fn):
    if kind == "timeout":
        sim.timeout(offset).add_callback(lambda event: fn())
    elif kind == "call_at":
        sim.call_at(sim.now + offset, fn)
    else:
        event = sim.event()
        event.add_callback(lambda event: fn())
        event.succeed()


def _execute(kernel, schedule, nodes, drive):
    """Run one random program; returns everything the order decides.

    ``nodes[i] = (pick, kind, offset)``: node ``i`` is scheduled by the
    firing of node ``pick % (i + 1) - 1``, or, when that is -1, from
    outside any callback just before drive op ``pick % (len(drive) +
    1)``.  A final ``run()`` drains what is left.
    """
    children = [[] for _ in nodes]
    roots = [[] for _ in range(len(drive) + 1)]
    for index, (pick, _, _) in enumerate(nodes):
        parent = pick % (index + 1) - 1
        if parent < 0:
            roots[pick % (len(drive) + 1)].append(index)
        else:
            children[parent].append(index)
    observed = []

    def enqueue(index):
        _, kind, offset = nodes[index]
        schedule(kernel, kind, offset, lambda: fire(index))

    def fire(index):
        observed.append(("fire", index, kernel.now))
        for child in children[index]:
            enqueue(child)

    for slot, (op, span) in enumerate(list(drive) + [("run", None)]):
        for index in roots[slot]:
            enqueue(index)
        if op == "step":
            if kernel.peek() != float("inf"):
                kernel.step()
        elif op == "until":
            kernel.run(until=kernel.now + span)
        else:
            kernel.run()
        observed.append((op, kernel.now, kernel.peek()))
    return observed


class TestOrderingContract:
    """Every schedule fires in (due time, enqueue sequence) order."""

    @settings(max_examples=400, deadline=None)
    @given(nodes=st.lists(st.tuples(st.integers(0, 60),
                                    st.sampled_from(_KINDS),
                                    st.sampled_from(_OFFSETS)),
                          min_size=1, max_size=30),
           drive=st.lists(st.one_of(
               st.just(("step", None)),
               st.tuples(st.just("until"),
                         st.sampled_from((0.0, 0.25, 0.3, 1.0)))),
               max_size=8))
    def test_matches_heap_model(self, nodes, drive):
        expected = _execute(HeapModel(), HeapModel.schedule, nodes, drive)
        actual = _execute(Simulator(), _schedule_on_simulator, nodes,
                          drive)
        assert actual == expected


class TestProcesses:
    def test_process_waits_on_timeouts(self):
        sim = Simulator()
        trace = []

        def worker():
            trace.append(sim.now)
            yield sim.timeout(1.0)
            trace.append(sim.now)
            yield sim.timeout(2.0)
            trace.append(sim.now)

        sim.process(worker())
        sim.run()
        assert trace == [0.0, 1.0, 3.0]

    def test_process_return_value(self):
        sim = Simulator()

        def worker():
            yield sim.timeout(1.0)
            return "done"

        proc = sim.process(worker())
        result = sim.run_process(proc)
        assert result == "done"

    def test_process_receives_event_value(self):
        sim = Simulator()
        event = sim.event()

        def worker():
            value = yield event
            return value

        proc = sim.process(worker())
        sim.call_at(1.0, lambda: event.succeed("payload"))
        assert sim.run_process(proc) == "payload"

    def test_process_is_event_awaitable_by_other_process(self):
        sim = Simulator()

        def inner():
            yield sim.timeout(2.0)
            return 7

        def outer():
            value = yield sim.process(inner())
            return value * 2

        assert sim.run_process(sim.process(outer())) == 14

    def test_exception_propagates_in_strict_mode(self):
        sim = Simulator(strict=True)

        def worker():
            yield sim.timeout(1.0)
            raise ValueError("kaboom")

        sim.process(worker())
        with pytest.raises(ValueError, match="kaboom"):
            sim.run()

    def test_exception_becomes_failure_in_lenient_mode(self):
        sim = Simulator(strict=False)

        def failing():
            yield sim.timeout(1.0)
            raise ValueError("kaboom")

        def watcher():
            try:
                yield sim.process(failing())
            except ValueError as exc:
                return f"caught {exc}"

        assert sim.run_process(sim.process(watcher())) == "caught kaboom"

    def test_interrupt(self):
        sim = Simulator()

        def sleeper():
            try:
                yield sim.timeout(100.0)
                return "slept"
            except Interrupt as interrupt:
                return f"interrupted:{interrupt.cause}"

        proc = sim.process(sleeper())
        sim.call_at(1.0, lambda: proc.interrupt("alarm"))
        assert sim.run_process(proc) == "interrupted:alarm"
        assert sim.now == 1.0

    def test_interrupt_finished_process_rejected(self):
        sim = Simulator()

        def quick():
            yield sim.timeout(0.5)

        proc = sim.process(quick())
        sim.run()
        with pytest.raises(SimulationError):
            proc.interrupt()

    def test_yield_non_event_rejected(self):
        sim = Simulator()

        def bad():
            yield 42

        sim.process(bad())
        with pytest.raises(SimulationError):
            sim.run()

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(TypeError):
            sim.process(lambda: None)

    def test_run_process_detects_drained_queue(self):
        sim = Simulator()
        event = sim.event()  # never triggered

        def stuck():
            yield event

        proc = sim.process(stuck())
        with pytest.raises(SimulationError):
            sim.run_process(proc)


class TestConditions:
    def test_anyof_fires_on_first(self):
        sim = Simulator()
        fast = sim.timeout(1.0, value="fast")
        slow = sim.timeout(5.0, value="slow")

        def waiter():
            result = yield AnyOf(sim, [fast, slow])
            return result

        result = sim.run_process(sim.process(waiter()))
        assert result == {fast: "fast"}
        assert sim.now == 1.0

    def test_allof_waits_for_all(self):
        sim = Simulator()
        first = sim.timeout(1.0, value=1)
        second = sim.timeout(5.0, value=2)

        def waiter():
            result = yield AllOf(sim, [first, second])
            return result

        result = sim.run_process(sim.process(waiter()))
        assert result == {first: 1, second: 2}
        assert sim.now == 5.0

    def test_empty_condition_fires_immediately(self):
        sim = Simulator()
        condition = AllOf(sim, [])
        sim.run()
        assert condition.processed
        assert condition.value == {}

    def test_allof_fails_on_child_failure(self):
        sim = Simulator()
        good = sim.timeout(1.0)
        bad = sim.event()
        sim.call_at(0.5, lambda: bad.fail(RuntimeError("child died")))

        def waiter():
            try:
                yield AllOf(sim, [good, bad])
            except RuntimeError as exc:
                return str(exc)

        assert sim.run_process(sim.process(waiter())) == "child died"


class TestStore:
    def test_put_then_get(self):
        sim = Simulator()
        store = Store(sim)

        def producer():
            yield store.put("a")
            yield store.put("b")

        def consumer():
            first = yield store.get()
            second = yield store.get()
            return [first, second]

        sim.process(producer())
        proc = sim.process(consumer())
        assert sim.run_process(proc) == ["a", "b"]

    def test_get_blocks_until_put(self):
        sim = Simulator()
        store = Store(sim)
        times = []

        def consumer():
            item = yield store.get()
            times.append((sim.now, item))

        def producer():
            yield sim.timeout(3.0)
            yield store.put("late")

        sim.process(consumer())
        sim.process(producer())
        sim.run()
        assert times == [(3.0, "late")]

    def test_bounded_capacity_blocks_put(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        progress = []

        def producer():
            yield store.put(1)
            progress.append(("put1", sim.now))
            yield store.put(2)
            progress.append(("put2", sim.now))

        def consumer():
            yield sim.timeout(5.0)
            item = yield store.get()
            progress.append(("got", item, sim.now))

        sim.process(producer())
        sim.process(consumer())
        sim.run()
        assert ("put1", 0.0) in progress
        assert ("put2", 5.0) in progress

    def test_try_get_and_try_put(self):
        sim = Simulator()
        store = Store(sim, capacity=1)
        assert store.try_get() is None
        assert store.try_put("x")
        assert not store.try_put("y")
        sim.run()
        assert store.try_get() == "x"

    def test_invalid_capacity(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            Store(sim, capacity=0)


class TestResource:
    def test_mutual_exclusion(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        holds = []

        def worker(name, hold):
            request = resource.request()
            yield request
            holds.append((name, "in", sim.now))
            yield sim.timeout(hold)
            holds.append((name, "out", sim.now))
            resource.release()

        sim.process(worker("a", 2.0))
        sim.process(worker("b", 1.0))
        sim.run()
        assert holds == [("a", "in", 0.0), ("a", "out", 2.0),
                         ("b", "in", 2.0), ("b", "out", 3.0)]

    def test_capacity_two_admits_two(self):
        sim = Simulator()
        resource = Resource(sim, capacity=2)
        entered = []

        def worker(name):
            yield resource.request()
            entered.append((name, sim.now))
            yield sim.timeout(1.0)
            resource.release()

        for name in "abc":
            sim.process(worker(name))
        sim.run()
        assert entered == [("a", 0.0), ("b", 0.0), ("c", 1.0)]

    def test_release_without_request_rejected(self):
        sim = Simulator()
        resource = Resource(sim)
        with pytest.raises(RuntimeError):
            resource.release()

    def test_cancel_pending_request(self):
        sim = Simulator()
        resource = Resource(sim, capacity=1)
        first = resource.request()
        second = resource.request()
        assert resource.cancel(second)
        assert not resource.cancel(first)  # already granted


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
