"""Schedule policies: seeded tie-break choosers for the engine.

The engine's dispatch order is fully determined except for one degree of
freedom: when several events are admissible at the *same* simulation time,
their relative order is an artefact of insertion sequence, not of the model
(the network never constrains it).  A policy decides that order.  Four are
provided:

* :class:`FifoPolicy` -- always the canonical ``(time, seq)`` order; bit-
  identical to running without a policy (the explorer's baseline).
* :class:`RandomPolicy` -- uniform seeded shuffle of every tie.
* :class:`AdversarialPolicy` -- seeded, but biased toward dispatching
  recovery-session and guard-window machinery (rollbacks, restarts, control
  deliveries, failure strikes, drain probes) ahead of application progress,
  and toward anti-FIFO order otherwise.  Order-sensitivity bugs cluster
  around recovery interleavings; this policy spends its reorderings there.
* :class:`ReplayPolicy` -- re-applies a recorded decision sequence, the
  replay half of a schedule witness (:mod:`repro.schedexplore.witness`).

Every policy records the non-FIFO choices it makes as ``{tie index: chosen
engine seq}``; that mapping *is* the replayable schedule witness, and
dropping entries from it (falling back to FIFO at those ties) is how
witnesses shrink.  All randomness comes from :func:`repro.faults.
distributions.derive_rng` -- private SHA-256-keyed streams, never the global
RNG.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError
from repro.faults.distributions import derive_rng

# Queue-entry field indexes (entries are plain lists).
from repro.simulator.engine import _CALLBACK, _SEQ

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.engine import SimulationEngine


class SchedulePolicy:
    """Base policy: canonical FIFO order, plus decision recording.

    Subclasses override :meth:`_select`; :meth:`choose` wraps it with the
    bookkeeping every policy shares -- counting tie dispatches and recording
    each non-FIFO choice by the chosen entry's engine ``seq`` (stable across
    runs, unlike the index, which depends on what else is in the group).
    """

    name = "fifo"

    def __init__(self) -> None:
        #: chooser invocations with more than one candidate.
        self.tie_dispatches = 0
        #: tie index -> engine seq chosen there (only non-FIFO choices).
        self.decisions: Dict[int, int] = {}

    def choose(self, time: float, group: List[List[Any]]) -> int:
        call = self.tie_dispatches
        self.tie_dispatches += 1
        index = self._select(call, time, group)
        if index != 0:
            self.decisions[call] = group[index][_SEQ]
        return index

    def _select(self, call: int, time: float, group: List[List[Any]]) -> int:
        return 0

    def install(
        self,
        engine: "SimulationEngine",
        on_time_drained: Optional[Callable[[float], None]] = None,
    ) -> None:
        engine.set_schedule_policy(self.choose, on_time_drained)


class FifoPolicy(SchedulePolicy):
    """The canonical order; reproduces the policy-free engine exactly."""


class RandomPolicy(SchedulePolicy):
    """Uniform seeded shuffle of every equal-time group."""

    name = "random"

    def __init__(self, seed: int = 0) -> None:
        super().__init__()
        self.seed = seed
        self._rng = derive_rng("schedexplore", self.name, seed)

    def _select(self, call: int, time: float, group: List[List[Any]]) -> int:
        return self._rng.randrange(len(group))


#: callback qualname fragments marking recovery / guard-window machinery.
_ADVERSARY_MARKERS = (
    "recover",
    "rollback",
    "restart",
    "replay",
    "fail",
    "strike",
    "_dispatch_control",
    "_drain_then_fire",
    "fire",
    "gate",
)


class AdversarialPolicy(SchedulePolicy):
    """Seeded chooser biased toward recovery and guard-window events.

    With probability ``bias`` a tie containing recovery-flavoured callbacks
    (classified by qualname) dispatches one of *them* first; a tie without
    any dispatches in anti-FIFO order (newest seq first), the exact reversal
    of what every test normally exercises.  The remaining probability mass is
    a uniform draw, so the policy still explores arbitrary orders.
    """

    name = "adversarial"

    def __init__(self, seed: int = 0, bias: float = 0.8) -> None:
        super().__init__()
        self.seed = seed
        self.bias = bias
        self._rng = derive_rng("schedexplore", self.name, seed)
        self._marked: Dict[int, bool] = {}

    def _is_marked(self, callback: Any) -> bool:
        function = getattr(callback, "__func__", callback)
        cached = self._marked.get(id(function))
        if cached is None:
            qualname = str(getattr(function, "__qualname__", "")).lower()
            cached = any(marker in qualname for marker in _ADVERSARY_MARKERS)
            self._marked[id(function)] = cached
        return cached

    def _select(self, call: int, time: float, group: List[List[Any]]) -> int:
        draw = self._rng.random()
        if draw < self.bias:
            marked = [
                index
                for index, entry in enumerate(group)
                if self._is_marked(entry[_CALLBACK])
            ]
            if marked:
                return marked[self._rng.randrange(len(marked))]
            return len(group) - 1
        return self._rng.randrange(len(group))


class ReplayPolicy(SchedulePolicy):
    """Re-applies a recorded ``{tie index: seq}`` decision mapping.

    At each tie the recorded seq is dispatched if it is present in the
    group; otherwise -- the tie was never recorded, or earlier divergence
    from the recording shifted the schedule so the seq is elsewhere -- the
    policy falls back to FIFO.  That graceful degradation is what makes
    witness shrinking possible: dropping a decision is exactly "replay the
    rest, FIFO there".
    """

    name = "replay"

    def __init__(self, decisions: Mapping[int, int]) -> None:
        super().__init__()
        self.recorded = {int(key): int(value) for key, value in decisions.items()}

    def _select(self, call: int, time: float, group: List[List[Any]]) -> int:
        seq = self.recorded.get(call)
        if seq is not None:
            for index, entry in enumerate(group):
                if entry[_SEQ] == seq:
                    return index
        return 0


#: policy name -> seeded factory.
POLICIES: Dict[str, Callable[[int], SchedulePolicy]] = {
    "fifo": lambda seed: FifoPolicy(),
    "random": RandomPolicy,
    "adversarial": AdversarialPolicy,
}


def make_policy(name: str, seed: int = 0) -> SchedulePolicy:
    """Instantiate a named exploration policy with a seed."""
    try:
        factory = POLICIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown schedule policy {name!r}; available: "
            f"{', '.join(sorted(POLICIES))}"
        ) from None
    return factory(seed)
