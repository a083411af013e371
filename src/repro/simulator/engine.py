"""Deterministic discrete-event simulation engine.

The engine is a classic time-ordered event queue.  All behaviour of the
substrate (message transfers, compute delays, protocol control traffic,
failures) is expressed as callbacks scheduled at absolute simulation times.
Ties are broken by a monotonically increasing sequence number so that two
runs with identical inputs execute events in exactly the same order, which is
what makes the replay/recovery comparisons in the test-suite meaningful.

Hot-path design notes
---------------------
Scheduling and draining events is the single hottest path of the simulator
(one entry per message, per compute delay, per control message), so the
implementation deliberately avoids Python-level overhead:

* queue entries are plain **lists** ``[time, seq, callback, args, state]``
  rather than objects: ordering uses C-level list lexicographic comparison
  (time first, then the unique ``seq``), so no Python ``__lt__`` is ever
  invoked and no ``__init__`` runs per event;
* the queue is two-tier: a **drain** list (sorted ascending, consumed by
  index -- popping the next event is O(1)) plus a small overflow **heap**
  receiving events scheduled while the engine runs.  The earliest entry of
  the two tiers executes next, which reproduces exactly the single-heap
  (time, seq) order; when the drain is exhausted the heap is sorted and
  becomes the next drain.  This turns the dominant cost -- one O(log n)
  sift-down per executed event -- into an amortised O(log k) where k is the
  number of events scheduled since the last generation;
* ``run`` fuses the peek and pop of the next entry inline (no method call
  per event) and hoists state into locals, re-synchronising around
  callbacks (a callback may schedule, cancel, or trigger a lazy
  compaction);
* :meth:`SimulationEngine.schedule_many` batches the bookkeeping for callers
  that inject many events at once (rank start-up, grouped replays,
  benchmark floods).

Scheduled times must be finite: ``NaN`` compares false against everything,
so a single ``NaN`` time would silently corrupt the queue ordering (and with
it determinism); ``inf`` would park an event that can never run.  Both are
rejected with :class:`~repro.errors.SimulationError` at scheduling time.

The ``state`` slot of an entry is ``_PENDING`` (may run), ``_EXECUTED``
(popped and run) or ``_CANCELLED`` (skipped when reached; lazily compacted).

Schedule policies
-----------------
The ``(time, seq)`` order makes every run reproducible, but the ``seq``
tie-break is an *arbitrary* choice among events the model itself leaves
unconstrained: events scheduled at exactly the same simulation time have no
causal order, and a correct (send-deterministic) protocol must produce the
same outcome whichever way the tie is broken.  :meth:`SimulationEngine.
set_schedule_policy` installs a *chooser* that picks which member of each
equal-time group executes next (see :mod:`repro.schedexplore`), turning the
engine into an interleaving explorer.  The policy path is a separate loop --
the production hot path below is untouched when no policy is installed --
and the default chooser order (always index 0) reproduces the ``(time,
seq)`` order bit for bit.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import Any, Callable, Final, Iterable, List, Optional, Tuple

from repro.errors import SimulationError

_INF: Final = math.inf

#: queue-entry indexes / states (plain ints: list slots, not attributes).
_TIME: Final = 0
_SEQ: Final = 1
_CALLBACK: Final = 2
_ARGS: Final = 3
_STATE: Final = 4
_PENDING: Final = 0
_EXECUTED: Final = 1
_CANCELLED: Final = 2


class EventHandle:
    """Handle returned by :meth:`SimulationEngine.schedule`; allows cancellation."""

    __slots__ = ("_event", "_engine")

    def __init__(self, event: List[Any], engine: "SimulationEngine") -> None:
        self._event = event
        self._engine = engine

    def cancel(self) -> None:
        event = self._event
        if event[_STATE] == _PENDING:
            event[_STATE] = _CANCELLED
            self._engine._note_cancelled()

    @property
    def time(self) -> float:
        value: float = self._event[_TIME]
        return value

    @property
    def cancelled(self) -> bool:
        state: int = self._event[_STATE]
        return state == _CANCELLED


class SimulationEngine:
    """Time-ordered event queue with deterministic tie-breaking."""

    #: lazy compaction threshold: rebuild once at least this many cancelled
    #: entries linger *and* they outnumber the live ones.
    COMPACT_MIN_CANCELLED = 64

    def __init__(self) -> None:
        #: sorted generation being consumed front-to-back.
        self._drain: List[List[Any]] = []
        self._drain_idx: int = 0
        #: min-heap of entries scheduled since the drain was built.
        self._heap: List[List[Any]] = []
        self._seq = 0
        self._now: float = 0.0
        self._events_processed: int = 0
        self._running = False
        #: scheduled events that are neither cancelled nor executed yet.
        self._live: int = 0
        #: cancelled events still sitting in the queue tiers.
        self._cancelled: int = 0
        #: equal-time tie-break chooser (None = deterministic ``seq`` order);
        #: receives ``(time, group)`` and returns the index of the entry to
        #: execute next.  Installed by :meth:`set_schedule_policy`.
        self._policy: Optional[Callable[[float, List[List[Any]]], int]] = None
        #: observer invoked (policy path only) once every event at a given
        #: time has executed, right before the clock moves on -- the hook
        #: point state fingerprinting uses (:mod:`repro.schedexplore`).
        self._on_time_drained: Optional[Callable[[float], None]] = None

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return self._live

    def _entry_count(self) -> int:
        """Entries physically present in the queue tiers (live + cancelled)."""
        return (len(self._drain) - self._drain_idx) + len(self._heap)

    def _note_cancelled(self) -> None:
        self._live -= 1
        self._cancelled += 1
        if self._cancelled >= self.COMPACT_MIN_CANCELLED and self._cancelled > self._live:
            self._compact()

    def _compact(self) -> None:
        """Drop cancelled entries from both tiers (amortised O(n)).

        Only reached from :meth:`EventHandle.cancel`, i.e. either outside
        :meth:`run` or inside an executing callback -- both points where
        ``_drain_idx`` is synchronised, so slicing the consumed prefix off
        the drain is safe (the run loops re-read the tier attributes after
        every callback).
        """
        self._drain = [e for e in self._drain[self._drain_idx:] if not e[_STATE]]
        self._drain_idx = 0
        self._heap = [e for e in self._heap if not e[_STATE]]
        heapify(self._heap)
        self._cancelled = 0

    # ------------------------------------------------------------ scheduling
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative; ``NaN``/``inf`` would
        corrupt the queue order (or never run) and are rejected.
        """
        if not 0.0 <= delay < _INF:
            raise SimulationError(
                f"cannot schedule an event with a negative or non-finite delay (delay={delay})"
            )
        self._seq += 1
        event = [self._now + delay, self._seq, callback, args, _PENDING]
        heappush(self._heap, event)
        self._live += 1
        return EventHandle(event, self)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> EventHandle:
        """Schedule ``callback(*args)`` at absolute simulation ``time``.

        ``time`` must be finite (no ``NaN``/``inf``) and not in the past.
        """
        # A single comparison chain rejects past times, NaN and +/-inf: NaN
        # compares false against everything, inf fails the right-hand bound.
        if not self._now <= time < _INF:
            if time != time or time in (_INF, -_INF):
                raise SimulationError(
                    f"cannot schedule an event at a non-finite time (t={time})"
                )
            raise SimulationError(
                f"cannot schedule an event at t={time} before current time t={self._now}"
            )
        self._seq += 1
        event = [time, self._seq, callback, args, _PENDING]
        heappush(self._heap, event)
        self._live += 1
        return EventHandle(event, self)

    def schedule_many(
        self, events: Iterable[Tuple[float, Callable[..., None], Tuple[Any, ...]]]
    ) -> None:
        """Schedule a batch of ``(delay, callback, args)`` entries at once.

        Equivalent to calling :meth:`schedule` per entry (same validation,
        same deterministic insertion order) but with the per-event
        bookkeeping hoisted out of the loop and no :class:`EventHandle`
        allocations -- batch-scheduled events cannot be cancelled
        individually.
        """
        now = self._now
        heap = self._heap
        push = heappush
        seq = self._seq
        scheduled = 0
        try:
            for delay, callback, args in events:
                if not 0.0 <= delay < _INF:
                    raise SimulationError(
                        "cannot schedule an event with a negative or non-finite delay "
                        f"(delay={delay})"
                    )
                seq += 1
                push(heap, [now + delay, seq, callback, args, _PENDING])
                scheduled += 1
        finally:
            self._seq = seq
            self._live += scheduled

    def advance_to(self, time: float) -> None:
        """Jump the clock forward to ``time`` without executing anything.

        This is the epoch-skip primitive of the hybrid execution mode
        (:mod:`repro.simulator.hybrid`): an analytically fast-forwarded
        failure-free epoch ends with one clock jump instead of thousands of
        per-message events.  The jump refuses to skip over any pending live
        event -- those must be drained (or be scheduled later than ``time``)
        first, otherwise they would execute in the past.
        """
        if not self._now <= time < _INF:
            raise SimulationError(
                f"cannot advance the clock to t={time} (now t={self._now})"
            )
        head = self._peek_time()
        if head is not None and head < time:
            raise SimulationError(
                f"cannot advance the clock to t={time} past a pending event "
                f"at t={head}"
            )
        self._now = time

    # ------------------------------------------------------- schedule policy
    def set_schedule_policy(
        self,
        chooser: Optional[Callable[[float, List[List[Any]]], int]],
        on_time_drained: Optional[Callable[[float], None]] = None,
    ) -> None:
        """Install (or clear, with ``None``) an equal-time tie-break policy.

        ``chooser(time, group)`` is called whenever more than one live event
        is admissible at the same simulation time; ``group`` is the list of
        raw queue entries (``[time, seq, callback, args, state]``) in
        canonical ``seq`` order and the chooser returns the index of the
        entry to execute next.  Events scheduled *during* the group at the
        same time join the group (they are admissible at that time too), so
        a policy explores exactly the orders the model leaves unconstrained;
        events at different times never reorder.

        ``on_time_drained(time)`` is invoked after the last event at each
        executed timestamp, before the clock moves on -- a quiescent point
        at which observers may *read* simulation state.  The hook must not
        schedule or cancel events.

        Policies only apply to :meth:`run`; :meth:`step` keeps the
        deterministic ``(time, seq)`` order.  Installing a policy mid-run is
        rejected: a half-explored group would corrupt the dispatch order.
        """
        if self._running:
            raise SimulationError("cannot change the schedule policy while running")
        self._policy = chooser
        self._on_time_drained = on_time_drained

    def _pop_time_group(self, time: float) -> List[List[Any]]:
        """Pop every live entry scheduled exactly at ``time``, in seq order.

        Every drain entry precedes every heap entry in ``seq`` (the drain is
        an older generation), and each tier yields ascending ``seq`` for a
        fixed time, so the concatenation is the canonical FIFO order.
        """
        group: List[List[Any]] = []
        drain = self._drain
        idx = self._drain_idx
        while idx < len(drain):
            entry = drain[idx]
            if entry[_TIME] != time:
                break
            idx += 1
            if entry[_STATE]:
                self._cancelled -= 1
            else:
                group.append(entry)
        self._drain_idx = idx
        heap = self._heap
        while heap and heap[0][_TIME] == time:
            entry = heappop(heap)
            if entry[_STATE]:
                self._cancelled -= 1
            else:
                group.append(entry)
        return group

    def _absorb_into_group(self, time: float, group: List[List[Any]]) -> None:
        """Move newly scheduled live entries at ``time`` into ``group``."""
        heap = self._heap
        while heap and heap[0][_TIME] == time:
            entry = heappop(heap)
            if entry[_STATE]:
                self._cancelled -= 1
            else:
                group.append(entry)

    def _prune_group(self, group: List[List[Any]]) -> List[List[Any]]:
        """Drop group members cancelled by a callback since they were popped.

        Popped entries live outside the queue tiers, so a compaction
        triggered meanwhile may already have reset the cancelled counter --
        hence the clamp at zero.
        """
        live: List[List[Any]] = []
        for entry in group:
            if entry[_STATE]:
                if self._cancelled > 0:
                    self._cancelled -= 1
            else:
                live.append(entry)
        return live

    def _requeue_group(self, group: List[List[Any]]) -> None:
        """Return unexecuted group members to the heap (bounded stop paths).

        Entries keep their original ``seq``, so re-popping them later
        reproduces the canonical order exactly.
        """
        for entry in group:
            if not entry[_STATE]:
                heappush(self._heap, entry)

    def _run_policy(
        self,
        until_time: Optional[float],
        max_events: Optional[int],
        stop_predicate: Optional[Callable[[], bool]],
    ) -> str:
        """The :meth:`run` loop under an installed schedule policy.

        Identical contract to the default loop (stop predicate before every
        event, same bound semantics); the only degree of freedom is which
        member of each equal-time group executes next.  With the FIFO
        chooser (always index 0) the event order is bit-identical to the
        policy-free loop.
        """
        chooser = self._policy
        if chooser is None:  # pragma: no cover - guarded by run()
            raise SimulationError("policy loop entered without a policy")
        on_drained = self._on_time_drained
        processed = 0
        executed_any = False
        while True:
            if stop_predicate is not None and stop_predicate():
                return "stopped"
            if max_events is not None and processed >= max_events:
                return "max_events"
            next_time = self._peek_time()
            if next_time is None:
                if executed_any and on_drained is not None:
                    on_drained(self._now)
                return "empty"
            if until_time is not None and next_time > until_time:
                if executed_any and on_drained is not None:
                    on_drained(self._now)
                self._now = until_time
                return "until_time"
            if executed_any and next_time > self._now and on_drained is not None:
                on_drained(self._now)
            group = self._pop_time_group(next_time)
            while group:
                if stop_predicate is not None and stop_predicate():
                    self._requeue_group(group)
                    return "stopped"
                if max_events is not None and processed >= max_events:
                    self._requeue_group(group)
                    return "max_events"
                group = self._prune_group(group)
                if not group:
                    break
                choice = 0 if len(group) == 1 else chooser(next_time, group)
                if not 0 <= choice < len(group):
                    raise SimulationError(
                        f"schedule policy chose index {choice} out of a "
                        f"group of {len(group)} events"
                    )
                entry = group.pop(choice)
                entry[_STATE] = _EXECUTED
                self._live -= 1
                self._now = entry[_TIME]
                self._events_processed += 1
                executed_any = True
                processed += 1
                entry[_CALLBACK](*entry[_ARGS])
                # Events the callback scheduled at this same time are
                # admissible now and join the group (with higher seq, so
                # FIFO order is preserved for the default chooser).
                self._absorb_into_group(next_time, group)

    # ------------------------------------------------------------ queue core
    def _next_event(self) -> Optional[List[Any]]:
        """Pop the earliest live entry across both tiers (None when empty).

        Consumes (and discounts) any cancelled entries encountered on the
        way.  The caller is responsible for marking the entry executed and
        updating ``_live`` / ``_now`` / ``_events_processed``.
        """
        drain = self._drain
        idx = self._drain_idx
        heap = self._heap
        while True:
            if idx < len(drain):
                entry = drain[idx]
                if heap and heap[0] < entry:
                    entry = heappop(heap)
                else:
                    idx += 1
            elif heap:
                if len(heap) > 1:
                    heap.sort()
                    self._drain = drain = heap
                    self._heap = heap = []
                    entry = drain[0]
                    idx = 1
                else:
                    entry = heap.pop()
            else:
                self._drain_idx = idx
                return None
            if entry[_STATE]:
                self._cancelled -= 1
                continue
            self._drain_idx = idx
            return entry

    def _peek_time(self) -> Optional[float]:
        """Earliest live event time without consuming it (None when empty)."""
        drain = self._drain
        idx = self._drain_idx
        while idx < len(drain) and drain[idx][_STATE]:
            idx += 1
            self._cancelled -= 1
        self._drain_idx = idx
        heap = self._heap
        while heap and heap[0][_STATE]:
            heappop(heap)
            self._cancelled -= 1
        head = drain[idx] if idx < len(drain) else None
        if heap and (head is None or heap[0] < head):
            head = heap[0]
        if head is None:
            return None
        head_time: float = head[_TIME]
        return head_time

    # --------------------------------------------------------------- running
    def step(self) -> bool:
        """Execute the next pending event.  Returns False when the queue is empty."""
        event = self._next_event()
        if event is None:
            return False
        event[_STATE] = _EXECUTED
        self._live -= 1
        self._now = event[_TIME]
        self._events_processed += 1
        event[_CALLBACK](*event[_ARGS])
        return True

    def run(
        self,
        until_time: Optional[float] = None,
        max_events: Optional[int] = None,
        stop_predicate: Optional[Callable[[], bool]] = None,
    ) -> str:
        """Run events until exhaustion or a bound is reached.

        Returns one of ``"empty"``, ``"until_time"``, ``"max_events"`` or
        ``"stopped"`` describing why the loop ended.  ``stop_predicate`` is
        consulted before *every* event (never batched away): the exact event
        count at which a run stops is part of the determinism contract.
        Events at exactly ``until_time`` still run; when the next live event
        lies beyond it the clock moves to ``until_time`` and the event stays
        queued, so a later ``run()`` resumes in the same order.
        """
        self._running = True
        try:
            if self._policy is not None:
                return self._run_policy(until_time, max_events, stop_predicate)
            # The queue tiers live in locals; ``_drain_idx`` is committed
            # before each callback and every local re-read after it, because
            # callbacks may schedule, cancel and compact.
            drain = self._drain
            idx = self._drain_idx
            heap = self._heap
            processed = 0
            while True:
                if stop_predicate is not None and stop_predicate():
                    return "stopped"
                if max_events is not None and processed >= max_events:
                    return "max_events"
                # Pop the earliest live entry across both tiers, dropping
                # cancelled entries on the way (fused peek/pop).
                while True:
                    if idx < len(drain):
                        entry = drain[idx]
                        if heap and heap[0] < entry:
                            entry = heappop(heap)
                        else:
                            idx += 1
                    elif heap:
                        if len(heap) > 1:
                            heap.sort()
                            self._drain = drain = heap
                            self._heap = heap = []
                            entry = drain[0]
                            idx = 1
                        else:
                            entry = heap.pop()
                    else:
                        self._drain_idx = idx
                        return "empty"
                    if entry[4]:  # _CANCELLED (_EXECUTED never re-queued)
                        self._cancelled -= 1
                        continue
                    break
                if until_time is not None and entry[0] > until_time:
                    # Past the horizon: un-pop the entry with its original
                    # seq.  A drain entry goes back to its slot so every
                    # drain entry still precedes every heap entry in seq
                    # (the invariant ``_pop_time_group`` relies on).
                    if idx and drain[idx - 1] is entry:
                        idx -= 1
                    else:
                        heappush(heap, entry)
                    self._drain_idx = idx
                    self._now = until_time
                    return "until_time"
                self._drain_idx = idx
                entry[4] = _EXECUTED
                self._live -= 1
                self._now = entry[0]
                self._events_processed += 1
                processed += 1
                entry[2](*entry[3])
                drain = self._drain
                idx = self._drain_idx
                heap = self._heap
        finally:
            self._running = False


class Condition:
    """A one-shot or multi-shot synchronisation point.

    Protocol code fires conditions to release ranks that are blocked on
    :class:`repro.simulator.ops.WaitConditionOp` (e.g. HydEE's
    ``NotifySendMsg`` gate, Algorithm 2 line 8 / Algorithm 3 line 18) and to
    wake internal continuations (deferred sends).
    """

    __slots__ = ("name", "_fired", "_value", "_waiters")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._fired = False
        self._value: Any = None
        self._waiters: List[Callable[[Any], None]] = []

    @property
    def fired(self) -> bool:
        return self._fired

    @property
    def value(self) -> Any:
        return self._value

    def add_waiter(self, callback: Callable[[Any], None]) -> None:
        """Register ``callback(value)``; invoked immediately if already fired."""
        if self._fired:
            callback(self._value)
        else:
            self._waiters.append(callback)

    def fire(self, value: Any = None) -> None:
        """Fire the condition, waking every waiter exactly once."""
        if self._fired:
            return
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for callback in waiters:
            callback(value)

    def reset(self) -> None:
        """Re-arm the condition (waiters registered before reset are gone)."""
        self._fired = False
        self._value = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        state = "fired" if self._fired else f"pending({len(self._waiters)} waiters)"
        return f"Condition({self.name!r}, {state})"
