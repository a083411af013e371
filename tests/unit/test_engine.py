"""Unit tests for the discrete-event engine and Condition primitive."""

import pytest

from repro.errors import SimulationError
from repro.simulator.engine import Condition, SimulationEngine


class TestScheduling:
    def test_events_run_in_time_order(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(3.0, order.append, "c")
        engine.schedule(1.0, order.append, "a")
        engine.schedule(2.0, order.append, "b")
        assert engine.run() == "empty"
        assert order == ["a", "b", "c"]

    def test_ties_broken_by_insertion_order(self):
        engine = SimulationEngine()
        order = []
        for label in "abcde":
            engine.schedule(1.0, order.append, label)
        engine.run()
        assert order == list("abcde")

    def test_now_advances_to_event_time(self):
        engine = SimulationEngine()
        seen = []
        engine.schedule(2.5, lambda: seen.append(engine.now))
        engine.run()
        assert seen == [2.5]
        assert engine.now == 2.5

    def test_negative_delay_rejected(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        engine = SimulationEngine()
        engine.schedule(5.0, lambda: None)
        engine.run()
        with pytest.raises(SimulationError):
            engine.schedule_at(1.0, lambda: None)

    def test_cancelled_event_does_not_run(self):
        engine = SimulationEngine()
        order = []
        handle = engine.schedule(1.0, order.append, "x")
        engine.schedule(2.0, order.append, "y")
        handle.cancel()
        engine.run()
        assert order == ["y"]
        assert handle.cancelled

    def test_events_scheduled_during_run_execute(self):
        engine = SimulationEngine()
        order = []

        def first():
            order.append("first")
            engine.schedule(1.0, order.append, "second")

        engine.schedule(1.0, first)
        engine.run()
        assert order == ["first", "second"]
        assert engine.now == 2.0

    def test_run_until_time_stops_before_later_events(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, order.append, "a")
        engine.schedule(10.0, order.append, "b")
        reason = engine.run(until_time=5.0)
        assert reason == "until_time"
        assert order == ["a"]
        assert engine.now == 5.0
        assert engine.pending_events == 1

    def test_run_max_events(self):
        engine = SimulationEngine()
        for i in range(10):
            engine.schedule(float(i + 1), lambda: None)
        reason = engine.run(max_events=4)
        assert reason == "max_events"
        assert engine.events_processed == 4

    def test_run_until_time_runs_events_exactly_at_the_horizon(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(5.0, order.append, "at")
        engine.schedule(5.0, order.append, "at-tie")
        engine.schedule(6.0, order.append, "after")
        assert engine.run(until_time=5.0) == "until_time"
        assert order == ["at", "at-tie"]
        assert engine.now == 5.0
        assert engine.pending_events == 1

    def test_max_events_segments_resume_in_the_same_order(self):
        def program(engine, order):
            for i in range(6):
                engine.schedule(float(i % 3), order.append, i)

        whole_engine, whole = SimulationEngine(), []
        program(whole_engine, whole)
        assert whole_engine.run() == "empty"

        engine, order = SimulationEngine(), []
        program(engine, order)
        assert engine.run(max_events=0) == "max_events"
        assert order == []
        reasons = []
        while not reasons or reasons[-1] != "empty":
            reasons.append(engine.run(max_events=2))
        assert reasons == ["max_events"] * 3 + ["empty"]
        assert order == whole
        assert engine.events_processed == 6

    def test_horizon_stop_keeps_a_drain_entry_ahead_of_its_ties(self):
        # "b" and "b2" are sorted into the drain together; the horizon stop
        # un-pops "b", which must stay ahead of "b2" and of a later tie,
        # also for the policy loop that reads the drain before the heap.
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, order.append, "a")
        engine.schedule(5.0, order.append, "b")
        engine.schedule(5.0, order.append, "b2")
        assert engine.run(until_time=3.0) == "until_time"
        assert order == ["a"]
        engine.schedule_at(5.0, order.append, "c")
        engine.set_schedule_policy(lambda time, group: 0)
        assert engine.run() == "empty"
        assert order == ["a", "b", "b2", "c"]

    def test_horizon_stop_keeps_a_heap_entry_ahead_of_later_ties(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(5.0, order.append, "b")
        assert engine.run(until_time=3.0) == "until_time"
        assert engine.now == 3.0
        assert engine.pending_events == 1
        engine.schedule_at(5.0, order.append, "c")
        assert engine.run() == "empty"
        assert order == ["b", "c"]

    def test_stop_predicate(self):
        engine = SimulationEngine()
        hits = []
        for i in range(5):
            engine.schedule(float(i + 1), hits.append, i)
        reason = engine.run(stop_predicate=lambda: len(hits) >= 2)
        assert reason == "stopped"
        assert len(hits) == 2

    def test_step_returns_false_when_empty(self):
        engine = SimulationEngine()
        assert engine.step() is False

    def test_events_processed_counter(self):
        engine = SimulationEngine()
        engine.schedule(1.0, lambda: None)
        engine.schedule(2.0, lambda: None)
        engine.run()
        assert engine.events_processed == 2

    def test_ties_cancellations_and_nesting_drain_in_canonical_order(self):
        # Determinism pin: a scheduling pattern with ties, a cancellation and
        # nested zero-delay scheduling drains in one canonical order.
        engine = SimulationEngine()
        order = []

        def nested(tag):
            order.append(tag)
            if tag == "b":
                engine.schedule(0.0, order.append, "b-nested")

        engine.schedule(2.0, nested, "c")
        engine.schedule(1.0, nested, "b")
        handle = engine.schedule(1.5, nested, "dropped")
        engine.schedule(1.0, nested, "b-tie")
        handle.cancel()
        assert engine.run() == "empty"
        assert order == ["b", "b-tie", "b-nested", "c"]


class TestHeapCompaction:
    """Lazy compaction of cancelled heap entries."""

    def test_cancel_heavy_schedule_triggers_compaction(self):
        engine = SimulationEngine()
        total = 4 * SimulationEngine.COMPACT_MIN_CANCELLED
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(total)]
        survivors = total // 4
        for handle in handles[survivors:]:
            handle.cancel()
        # Far more cancellations than live events: the heap must have been
        # rebuilt at least once, dropping the cancelled entries.
        assert engine.pending_events == survivors
        assert engine._entry_count() < total
        assert engine._cancelled < total - survivors

    def test_cancel_heavy_schedule_still_runs_survivors_in_order(self):
        engine = SimulationEngine()
        total = 3 * SimulationEngine.COMPACT_MIN_CANCELLED
        order = []
        handles = [
            engine.schedule(float(i + 1), order.append, i) for i in range(total)
        ]
        # Cancel everything except every third event, in scattered order.
        for i, handle in enumerate(handles):
            if i % 3 != 0:
                handle.cancel()
        assert engine.run() == "empty"
        assert order == list(range(0, total, 3))
        assert engine.pending_events == 0

    def test_run_until_time_with_cancelled_head_events(self):
        engine = SimulationEngine()
        order = []
        early = [engine.schedule(float(i + 1), order.append, i) for i in range(3)]
        engine.schedule(10.0, order.append, "late")
        for handle in early:
            handle.cancel()
        # The cancelled events head the heap; run must skip them without
        # executing anything and stop at the time bound.
        reason = engine.run(until_time=5.0)
        assert reason == "until_time"
        assert order == []
        assert engine.now == 5.0
        assert engine.pending_events == 1
        assert engine.run() == "empty"
        assert order == ["late"]

    def test_pending_events_consistent_after_peek_pops(self):
        engine = SimulationEngine()
        handles = [engine.schedule(float(i + 1), lambda: None) for i in range(5)]
        handles[0].cancel()
        handles[1].cancel()
        # until_time before the first live event: the run loop drops the two
        # cancelled heads, puts the first live entry back and executes
        # nothing.
        assert engine.run(until_time=0.5) == "until_time"
        assert engine.pending_events == 3
        assert engine._entry_count() == 3
        assert engine._cancelled == 0
        assert engine.run() == "empty"
        assert engine.pending_events == 0
        assert engine.events_processed == 3

    def test_cancelling_an_executed_event_is_a_noop(self):
        engine = SimulationEngine()
        handle = engine.schedule(1.0, lambda: None)
        engine.run()
        live_before = engine.pending_events
        handle.cancel()
        assert not handle.cancelled
        assert engine.pending_events == live_before


class TestCondition:
    def test_waiter_called_on_fire_with_value(self):
        condition = Condition("test")
        seen = []
        condition.add_waiter(seen.append)
        assert not condition.fired
        condition.fire(42)
        assert condition.fired
        assert condition.value == 42
        assert seen == [42]

    def test_waiter_added_after_fire_called_immediately(self):
        condition = Condition()
        condition.fire("done")
        seen = []
        condition.add_waiter(seen.append)
        assert seen == ["done"]

    def test_double_fire_is_idempotent(self):
        condition = Condition()
        seen = []
        condition.add_waiter(seen.append)
        condition.fire(1)
        condition.fire(2)
        assert seen == [1]
        assert condition.value == 1

    def test_multiple_waiters_called_in_registration_order(self):
        condition = Condition()
        seen = []
        condition.add_waiter(lambda _: seen.append("a"))
        condition.add_waiter(lambda _: seen.append("b"))
        condition.fire()
        assert seen == ["a", "b"]

    def test_reset_rearms_condition(self):
        condition = Condition()
        condition.fire(1)
        condition.reset()
        assert not condition.fired
        seen = []
        condition.add_waiter(seen.append)
        condition.fire(2)
        assert seen == [2]


class TestNonFiniteTimes:
    """NaN/inf scheduling would silently corrupt the heap order: NaN compares
    false against everything, so a NaN-timed entry lands at an arbitrary heap
    position and breaks determinism.  All entry points must reject them."""

    @pytest.mark.parametrize("delay", [float("nan"), float("inf")])
    def test_schedule_rejects_non_finite_delay(self, delay):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule(delay, lambda: None)
        assert engine.pending_events == 0

    @pytest.mark.parametrize(
        "time", [float("nan"), float("inf"), float("-inf")]
    )
    def test_schedule_at_rejects_non_finite_time(self, time):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_at(time, lambda: None)
        assert engine.pending_events == 0

    def test_schedule_many_rejects_non_finite_delay(self):
        engine = SimulationEngine()
        with pytest.raises(SimulationError):
            engine.schedule_many(
                [(0.0, lambda: None, ()), (float("nan"), lambda: None, ())]
            )
        # The valid entry scheduled before the bad one is kept.
        assert engine.pending_events == 1

    def test_queue_order_intact_after_rejected_nan(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(2.0, order.append, "b")
        with pytest.raises(SimulationError):
            engine.schedule(float("nan"), order.append, "poison")
        engine.schedule(1.0, order.append, "a")
        engine.run()
        assert order == ["a", "b"]


class TestScheduleMany:
    def test_batch_matches_individual_scheduling_order(self):
        individual = SimulationEngine()
        batched = SimulationEngine()
        seen_a, seen_b = [], []
        entries = [(1.0, seen_a.append, (i,)) for i in range(5)]
        for delay, cb, args in entries:
            individual.schedule(delay, cb, *args)
        batched.schedule_many((d, seen_b.append, a) for d, _cb, a in entries)
        individual.run()
        batched.run()
        assert seen_a == seen_b == [0, 1, 2, 3, 4]

    def test_batch_interleaves_with_single_schedules_by_time_then_seq(self):
        engine = SimulationEngine()
        order = []
        engine.schedule(1.0, order.append, "x")
        engine.schedule_many([(1.0, order.append, ("y",)), (0.5, order.append, ("z",))])
        engine.schedule(1.0, order.append, "w")
        engine.run()
        assert order == ["z", "x", "y", "w"]
        assert engine.events_processed == 4

    def test_batch_updates_pending_count(self):
        engine = SimulationEngine()
        engine.schedule_many([(0.1, lambda: None, ()) for _ in range(7)])
        assert engine.pending_events == 7
