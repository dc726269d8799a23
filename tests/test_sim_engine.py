"""Tests for the discrete-event engine and RNG registry."""

import pytest

from repro.sim import Entity, RngRegistry, Simulator
from repro.sim.engine import EventQueue, SimulationError


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        fired = []
        for label in "abcde":
            sim.schedule(1.0, lambda l=label: fired.append(l))
        sim.run()
        assert fired == list("abcde")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        times = []
        sim.schedule(0.5, lambda: times.append(sim.now))
        sim.schedule(1.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [0.5, 1.5]

    def test_run_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        assert sim.now == 2.0
        assert sim.pending == 1

    def test_run_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i), lambda i=i: fired.append(i))
        processed = sim.run(max_events=3)
        assert processed == 3
        assert fired == [0, 1, 2]

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def outer():
            fired.append("outer")
            sim.schedule(1.0, lambda: fired.append("inner"))

        sim.schedule(1.0, outer)
        sim.run()
        assert fired == ["outer", "inner"]
        assert sim.now == 2.0

    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_step_fires_one_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(2.0, lambda: fired.append(2))
        assert sim.step() is True
        assert fired == [1]
        assert sim.step() is True
        assert sim.step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for i in range(4):
            sim.schedule(float(i), lambda: None)
        sim.run()
        assert sim.events_processed == 4


class TestRngRegistry:
    def test_streams_are_deterministic_per_seed(self):
        a = RngRegistry(seed=42).stream("channel")
        b = RngRegistry(seed=42).stream("channel")
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_streams_are_independent_of_other_streams(self):
        reg1 = RngRegistry(seed=42)
        reg1.stream("noise").random()  # extra draws elsewhere
        value1 = reg1.stream("channel").random()

        reg2 = RngRegistry(seed=42)
        value2 = reg2.stream("channel").random()
        assert value1 == value2

    def test_different_names_differ(self):
        reg = RngRegistry(seed=0)
        assert reg.stream("a").random() != reg.stream("b").random()

    def test_different_seeds_differ(self):
        a = RngRegistry(seed=1).stream("s").random()
        b = RngRegistry(seed=2).stream("s").random()
        assert a != b

    def test_reset_restores_initial_sequence(self):
        reg = RngRegistry(seed=7)
        first = [reg.stream("x").random() for _ in range(3)]
        reg.reset("x")
        again = [reg.stream("x").random() for _ in range(3)]
        assert first == again

    def test_reset_all(self):
        reg = RngRegistry(seed=7)
        first_x = reg.stream("x").random()
        first_y = reg.stream("y").random()
        reg.reset_all()
        assert reg.stream("x").random() == first_x
        assert reg.stream("y").random() == first_y


class TestEntity:
    def test_entity_schedules_and_logs(self):
        sim = Simulator()
        entity = Entity(sim, "e1")
        entity.schedule(1.0, lambda: entity.log("hello"))
        sim.run()
        assert entity.logs == [(1.0, "hello")]
        assert entity.now == 1.0


class TestEventQueueLiveCount:
    """len(queue) is an O(1) maintained count, exact under cancellation."""

    def test_len_tracks_push_pop_cancel(self):
        from repro.sim.engine import EventQueue

        queue = EventQueue()
        assert len(queue) == 0
        events = [queue.push(float(i), lambda: None) for i in range(5)]
        assert len(queue) == 5
        events[2].cancel()
        assert len(queue) == 4
        assert queue.pop() is events[0]
        assert len(queue) == 3

    def test_cancel_then_pop_skips_without_double_count(self):
        from repro.sim.engine import EventQueue

        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(2.0, lambda: None)
        first.cancel()
        assert len(queue) == 1
        # pop() silently discards the cancelled head; the count must not
        # be decremented a second time for it.
        assert queue.pop() is second
        assert len(queue) == 0
        assert queue.pop() is None
        assert len(queue) == 0

    def test_double_cancel_counts_once(self):
        from repro.sim.engine import EventQueue

        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        event.cancel()
        event.cancel()
        assert len(queue) == 1

    def test_cancel_after_pop_does_not_touch_queue(self):
        from repro.sim.engine import EventQueue

        queue = EventQueue()
        event = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop() is event
        event.cancel()  # fired events can still be cancelled by callers
        assert len(queue) == 1

    def test_ordering_never_compares_events(self, monkeypatch):
        """Heap entries are (time, seq, event): the two numbers decide, in C.
        An Event that cannot be compared at all still pops in (time, push)
        order, through ties, cancellation and compaction."""
        from repro.sim.engine import Event, EventQueue

        def refuse(self, other):
            raise AssertionError("Event objects must not be compared")

        for name in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__"):
            monkeypatch.setattr(Event, name, refuse, raising=False)
        queue = EventQueue()
        times = [3.0, 1.0, 2.0, 1.0, 3.0, 1.0, 2.0] * 40
        events = [queue.push(time, lambda: None, name=str(i)) for i, time in enumerate(times)]
        kept = events[1::3]
        for index, event in enumerate(events):
            if index % 3 != 1:
                event.cancel()  # enough tombstones to compact on the way
        assert queue.heap_size < len(events)
        assert queue.peek_time() == 1.0
        popped = []
        while (event := queue.pop()) is not None:
            popped.append(event)
        expected = sorted(kept, key=lambda e: (e.time, e.seq))
        assert [e.name for e in popped] == [e.name for e in expected]
        assert [e.seq for e in events] == list(range(len(events)))

    def test_simulator_pending_matches_queue(self):
        sim = Simulator()
        kept = sim.schedule(1.0, lambda: None)
        dropped = sim.schedule(2.0, lambda: None)
        dropped.cancel()
        assert sim.pending == 1
        sim.run()
        assert sim.pending == 0
        assert kept.cancelled is False


class TestEventQueueCompaction:
    def test_cancel_churn_keeps_heap_bounded(self):
        """The seed leaked every cancelled event until its deadline; a
        cancel-and-reschedule workload (timers pushed out on every
        activity, like the UE inactivity timers) grew the heap without
        bound. Compaction keeps tombstones under half the heap."""
        queue = EventQueue()
        live = 50
        events = [queue.push(1000.0 + i, lambda: None) for i in range(live)]
        for round_index in range(200):
            for i in range(live):
                events[i].cancel()
                events[i] = queue.push(2000.0 + round_index, lambda: None)
        assert len(queue) == live
        # Bounded: never more than ~2x the live events (+ the pre-compact
        # threshold), not the 10k cancelled this churn produced.
        assert queue.heap_size <= max(2 * live, EventQueue.COMPACT_MIN_HEAP + live)

    def test_compact_drops_only_cancelled(self):
        queue = EventQueue()
        keep = [queue.push(float(i), lambda: None, name=f"k{i}") for i in range(10)]
        drop = [queue.push(float(i) + 0.5, lambda: None) for i in range(10)]
        for event in drop:
            event.cancel()
        assert queue.compact() == 10
        assert queue.heap_size == 10
        assert len(queue) == 10
        popped = [queue.pop() for _ in range(10)]
        assert popped == keep
        assert queue.pop() is None

    def test_no_compaction_below_min_heap(self):
        queue = EventQueue()
        events = [queue.push(float(i), lambda: None) for i in range(10)]
        for event in events:
            event.cancel()
        # Tiny heaps keep their tombstones (pop discards them lazily).
        assert queue.heap_size == 10
        assert len(queue) == 0
        assert queue.pop() is None
        assert queue.heap_size == 0

    def test_pop_and_peek_account_for_discarded_tombstones(self):
        queue = EventQueue()
        cancelled = queue.push(1.0, lambda: None)
        kept = queue.push(2.0, lambda: None)
        cancelled.cancel()
        assert queue.peek_time() == 2.0  # discards the tombstone
        assert queue.heap_size == 1
        assert queue.pop() is kept
        assert queue.compact() == 0
