"""Property tests (hypothesis) for the two-tier event queue.

The engine's contract is simple to state -- events execute in ``(time,
seq)`` order, whatever mixture of drain-list consumption, overflow-heap
merges, generation swaps, cancellations and lazy compactions produced the
queue state -- but the implementation is aggressively specialised, so the
properties drive it with randomized *programs*: events whose callbacks
schedule further events (including zero-delay ties that join the group
being drained) and cancel pending ones.  A naive single-list reference
executes the same program; the logs must match exactly.

The FIFO schedule-policy path (``set_schedule_policy`` with a chooser that
always picks index 0) must reproduce the default order bit for bit -- that
equivalence is what lets the schedule explorer trust its baseline run.

Bounded runs are held to the same order: a program run in segments, each
stopped by a random ``until_time`` and/or ``max_events`` bound and resumed
by the next ``run()``, must execute exactly the unbounded reference order.
A stop puts the entry it popped but did not execute back with its original
``seq``, whether it came from the drain list or the overflow heap.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulator.engine import SimulationEngine

#: Delay pool: few distinct values so equal-time groups are common; 0.0
#: makes callback-scheduled events tie with the group currently draining.
_DELAYS = (0.0, 0.25, 0.5, 1.0)

#: ``until_time`` offsets past the current clock: some land exactly on event
#: times (an event at the horizon still runs), some between them.
_HORIZONS = (0.0, 0.1, 0.25, 0.3, 0.5, 0.75, 1.0)

#: One bounded ``run()``: ``(until_time offset or None, max_events or None)``.
_segments = st.lists(
    st.tuples(
        st.none() | st.sampled_from(_HORIZONS),
        st.none() | st.integers(min_value=0, max_value=4),
    ),
    max_size=6,
)


class _CompactingEngine(SimulationEngine):
    """Engine variant that compacts on (nearly) every cancellation."""

    COMPACT_MIN_CANCELLED = 1


@st.composite
def queue_programs(draw):
    """A program over event specs ``0..n-1``.

    Returns ``(n_specs, roots, delays, actions)``: specs in ``roots`` are
    scheduled up front; executing spec ``i`` performs ``actions[i]``, each
    either ``("sched", j, delay)`` (schedule spec ``j`` unless already
    scheduled) or ``("cancel", j)`` (cancel ``j`` if still pending).  Only
    ``j > i`` targets are generated for scheduling, so every program
    terminates; each spec runs at most once.
    """
    n_specs = draw(st.integers(min_value=1, max_value=12))
    roots = draw(
        st.lists(
            st.integers(min_value=0, max_value=n_specs - 1),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    delays = [draw(st.sampled_from(_DELAYS)) for _ in range(n_specs)]
    actions = []
    for i in range(n_specs):
        spec_actions = []
        for _ in range(draw(st.integers(min_value=0, max_value=3))):
            if i + 1 < n_specs and draw(st.booleans()):
                j = draw(st.integers(min_value=i + 1, max_value=n_specs - 1))
                spec_actions.append(("sched", j, draw(st.sampled_from(_DELAYS))))
            else:
                j = draw(st.integers(min_value=0, max_value=n_specs - 1))
                spec_actions.append(("cancel", j))
        actions.append(spec_actions)
    return n_specs, roots, delays, actions


def _run_engine(program, engine=None, chooser=None, segments=(), policy_at=0):
    """Execute the program on a real engine; returns the execution log.

    Each of ``segments`` is one bounded ``run()`` before the final unbounded
    one; ``chooser`` is installed before segment ``policy_at`` (or before the
    final run when ``policy_at == len(segments)``).
    """
    n_specs, roots, delays, actions = program
    engine = engine if engine is not None else SimulationEngine()
    handles = {}
    log = []
    times = []
    horizon_stops = []  # (events executed before the stop, until_time)

    def execute(spec):
        log.append(spec)
        times.append(engine.now)
        for action in actions[spec]:
            if action[0] == "sched":
                _, j, delay = action
                if j not in handles:
                    handles[j] = engine.schedule(delay, execute, j)
            else:
                handle = handles.get(action[1])
                if handle is not None:
                    handle.cancel()
    for spec in roots:
        handles[spec] = engine.schedule(delays[spec], execute, spec)
    for index, (horizon, max_events) in enumerate(segments):
        if chooser is not None and index == policy_at:
            engine.set_schedule_policy(chooser)
        until_time = None if horizon is None else engine.now + horizon
        before = engine.events_processed
        outcome = engine.run(until_time=until_time, max_events=max_events)
        ran = engine.events_processed - before
        assert engine.events_processed == len(log)
        if outcome == "until_time":
            assert engine.now == until_time
            horizon_stops.append((len(log), until_time))
        elif outcome == "max_events":
            assert ran == max_events
        else:
            assert outcome == "empty"
            assert engine.pending_events == 0
        if max_events is not None:
            assert ran <= max_events
    if chooser is not None and policy_at >= len(segments):
        engine.set_schedule_policy(chooser)
    outcome = engine.run()
    assert outcome == "empty"
    assert engine.pending_events == 0
    assert engine.events_processed == len(log)
    # A horizon stop runs every event at or before until_time, none after.
    for executed, until_time in horizon_stops:
        assert all(t <= until_time for t in times[:executed])
        assert all(t > until_time for t in times[executed:])
    return log


def _run_reference(program):
    """Same program on a naive sorted-list queue: the ground truth order."""
    n_specs, roots, delays, actions = program
    now = 0.0
    seq = 0
    pending = {}  # spec -> [time, seq, alive]
    log = []
    for spec in roots:
        seq += 1
        pending[spec] = [delays[spec], seq, True]
    while True:
        live = [(e[0], e[1], s) for s, e in pending.items() if e[2]]
        if not live:
            return log
        _, _, spec = min(live)
        entry = pending[spec]
        now = entry[0]
        entry[2] = False
        log.append(spec)
        for action in actions[spec]:
            if action[0] == "sched":
                _, j, delay = action
                if j not in pending:
                    seq += 1
                    pending[j] = [now + delay, seq, True]
            else:
                target = pending.get(action[1])
                if target is not None:
                    target[2] = False


@given(queue_programs())
@settings(max_examples=200, deadline=None)
def test_execution_order_matches_naive_reference(program):
    assert _run_engine(program) == _run_reference(program)


@given(queue_programs())
@settings(max_examples=100, deadline=None)
def test_aggressive_compaction_does_not_reorder(program):
    assert _run_engine(program, engine=_CompactingEngine()) == _run_reference(program)


@given(queue_programs())
@settings(max_examples=100, deadline=None)
def test_fifo_policy_reproduces_default_order(program):
    # The policy loop (group pop + same-time absorption across both tiers)
    # with the always-first chooser is the explorer's baseline: it must be
    # indistinguishable from the policy-free hot path.
    assert _run_engine(program, chooser=lambda time, group: 0) == _run_reference(
        program
    )


@given(queue_programs())
@settings(max_examples=100, deadline=None)
def test_equal_time_groups_preserve_schedule_order(program):
    # Within one timestamp the execution order is exactly the scheduling
    # order (FIFO), even when a group spans the drain list and the overflow
    # heap or is joined mid-drain by zero-delay events.
    n_specs, roots, delays, actions = program
    engine = SimulationEngine()
    handles = {}
    log = []
    schedule_order = {}

    def execute(spec):
        log.append((engine.now, schedule_order[spec], spec))
        for action in actions[spec]:
            if action[0] == "sched":
                _, j, delay = action
                if j not in handles:
                    schedule_order[j] = len(schedule_order)
                    handles[j] = engine.schedule(delay, execute, j)
            else:
                handle = handles.get(action[1])
                if handle is not None:
                    handle.cancel()
    for spec in roots:
        schedule_order[spec] = len(schedule_order)
        handles[spec] = engine.schedule(delays[spec], execute, spec)
    engine.run()
    for earlier, later in zip(log, log[1:]):
        assert earlier[0] <= later[0]
        if earlier[0] == later[0]:
            assert earlier[1] < later[1]


@given(queue_programs(), _segments)
@settings(max_examples=150, deadline=None)
def test_bounded_segments_match_naive_reference(program, segments):
    # The run loop's count and horizon checks, and the put-back of the
    # entry a horizon stop popped, must leave the order untouched.
    assert _run_engine(program, segments=segments) == _run_reference(program)


@given(queue_programs(), _segments, st.integers(min_value=0, max_value=6))
@settings(max_examples=150, deadline=None)
def test_fifo_policy_around_bounded_segments_matches_reference(
    program, segments, policy_at
):
    # The FIFO policy joins at a random segment: bounded stops of the
    # policy loop requeue groups, and a policy resuming after stops of the
    # default loop relies on every drain entry preceding every heap entry
    # in seq.
    log = _run_engine(
        program,
        chooser=lambda time, group: 0,
        segments=segments,
        policy_at=policy_at,
    )
    assert log == _run_reference(program)
