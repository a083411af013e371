"""Canonical state fingerprinting for schedule-space exploration.

A fingerprint is a SHA-256 digest over a *canonical* encoding of simulation
state: container contents are fed to the hash in a sorted, type-tagged form
so that two states hash equal exactly when they are structurally equal --
independent of dict insertion order, tuple-vs-list representation or set
iteration order, all of which legitimately vary between interleavings.

Two identities assigned by the engine are deliberately stripped wherever a
:class:`~repro.simulator.messages.Message` appears (protocol logs, channel
state): the global ``msg_id`` counter value and the transport timestamps.
Both depend on the order in which same-time events executed, which is
precisely the degree of freedom the explorer perturbs; everything else about
a message -- endpoints, tag, size, payload, piggybacked protocol data -- is
content and must be interleaving-invariant.

Objects the encoder does not know are rejected when their ``repr`` looks
address-dependent (contains ``0x``): a fingerprint that silently hashed
``<object at 0x7f...>`` would differ between *identical* runs and report
phantom divergences.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional

import numpy as np

from repro.simulator.messages import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.simulation import Simulation


def _feed(h: "hashlib._Hash", obj: Any) -> None:
    """Feed the canonical encoding of ``obj`` into hash ``h``."""
    if obj is None:
        h.update(b"N")
    elif obj is True:
        h.update(b"T")
    elif obj is False:
        h.update(b"F")
    elif isinstance(obj, int):
        h.update(b"i%d" % obj)
    elif isinstance(obj, float):
        # float() first: np.float64 subclasses float, and its repr is
        # "np.float64(1.5)" under numpy >= 2, which would hash a structurally
        # equal value differently.
        h.update(b"f")
        h.update(repr(float(obj)).encode("ascii"))
    elif isinstance(obj, str):
        data = obj.encode("utf-8")
        h.update(b"s%d:" % len(data))
        h.update(data)
    elif isinstance(obj, bytes):
        h.update(b"b%d:" % len(obj))
        h.update(obj)
    elif isinstance(obj, Message):
        # Engine-assigned identity (msg_id, send/deliver times) excluded.
        h.update(b"M(")
        _feed(h, (obj.source, obj.dest, obj.tag, obj.size_bytes))
        _feed(h, obj.kind.value)
        _feed(h, repr(obj.payload))
        _feed(h, obj.piggyback)
        _feed(h, (obj.piggyback_bytes, obj.inter_cluster, obj.replayed))
        h.update(b")")
    elif isinstance(obj, enum.Enum):
        h.update(b"e")
        _feed(h, obj.value)
    elif isinstance(obj, (tuple, list)):
        h.update(b"(")
        for item in obj:
            _feed(h, item)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"{")
        for _, key, value in sorted(
            (_encoding(key), key, value) for key, value in obj.items()
        ):
            _feed(h, key)
            h.update(b"=")
            _feed(h, value)
        h.update(b"}")
    elif isinstance(obj, (set, frozenset)):
        h.update(b"<")
        for encoded in sorted(_encoding(item) for item in obj):
            h.update(encoded)
        h.update(b">")
    elif isinstance(obj, np.integer):
        _feed(h, int(obj))
    elif isinstance(obj, np.floating):
        _feed(h, float(obj))
    elif isinstance(obj, np.ndarray):
        # No type tag: an array is its (nested) sequence of values, exactly
        # like the tuple-vs-list case above.
        _feed(h, obj.tolist())
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(b"D")
        _feed(h, type(obj).__name__)
        h.update(b"(")
        for field in dataclasses.fields(obj):
            _feed(h, field.name)
            h.update(b"=")
            _feed(h, getattr(obj, field.name))
        h.update(b")")
    else:
        text = repr(obj)
        if "0x" in text:
            raise TypeError(
                f"cannot canonically fingerprint {type(obj).__name__}: its repr "
                f"is address-dependent ({text[:60]!r}); add an explicit encoding"
            )
        h.update(b"r")
        _feed(h, text)


def _encoding(obj: Any) -> bytes:
    """Standalone canonical encoding of ``obj`` (used to sort dict/set items)."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.digest()


def fingerprint_value(obj: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``obj``."""
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()


# ---------------------------------------------------------------- simulation
def state_digest(sim: "Simulation", include_times: bool = True) -> Dict[str, Any]:
    """The fingerprinted view of a simulation's current state.

    ``include_times`` adds the simulation clock to the digest.  Under a flat
    (uncontended) network, reordering same-time events never moves any event
    time, so the clock is part of the invariant; under link contention the
    serialisation order on a shared link *does* shift timings, and callers
    compare state-only digests while reporting the timing spread separately.
    """
    application = sim.application
    ranks: Dict[int, Dict[str, Any]] = {}
    for rank, proc in sorted(sim.ranks.items()):
        ranks[rank] = {
            "iterations": proc.completed_iterations,
            "state": proc.state.value,
            "incarnation": proc.incarnation,
            "result": proc.result,
            "app": None
            if proc.app_state is None
            else application.snapshot_state(proc.app_state),
        }
    # Deliberately absent: cumulative traffic volumes (channel volumes,
    # app_messages/app_bytes, logged-message totals, per-rank
    # sends_initiated).  Those meter *attempted* work: when a rollback
    # notification ties with an iteration boundary, the tie-break decides how
    # many doomed sends the victim squeezed in before rewinding, so the
    # totals are schedule-dependent even though every recovered state and
    # every effective send sequence is not.  The invariant core below is the
    # paper's claim; wasted work is reported as a spread, not an invariant.
    digest: Dict[str, Any] = {
        "ranks": ranks,
        "protocol": sim.protocol.schedule_fingerprint(),
        "storage": {
            "writes": sim.storage.writes,
            "bytes_written": sim.storage.bytes_written,
        },
        # Control chatter (messages_sent/bytes_sent) is deliberately absent
        # too: rollback notifications and log requests scale with the doomed
        # work a tie-break allowed, like the traffic volumes above.
        "counters": {
            "failures_injected": sim.stats.failures_injected,
            "ranks_rolled_back": sim.stats.ranks_rolled_back,
        },
    }
    if include_times:
        digest["time"] = sim.engine.now
    return digest


def fingerprint_state(sim: "Simulation", include_times: bool = True) -> str:
    """SHA-256 fingerprint of :func:`state_digest`."""
    return fingerprint_value(state_digest(sim, include_times=include_times))


def stable_digest(sim: "Simulation", include_times: bool = True) -> Dict[str, Any]:
    """The *committed-state* view, safe to compare at any quiescent point.

    Boundary samples can land mid-recovery, where live rank progress is
    legitimately schedule-dependent (a doomed iteration got further in one
    interleaving than another before its rollback arrived, and reconvergence
    is only guaranteed by completion).  What must match at *every* boundary
    regardless is the committed recovery line: what stable storage holds,
    which checkpoint each rank would restart from, and how many failures
    have struck.
    """
    digest: Dict[str, Any] = {
        "recovery_line": sim.protocol.recovery_line_fingerprint(),
        "storage": {
            "writes": sim.storage.writes,
            "bytes_written": sim.storage.bytes_written,
        },
        "failures_injected": sim.stats.failures_injected,
    }
    if include_times:
        digest["time"] = sim.engine.now
    return digest


class FingerprintRecorder:
    """Records state fingerprints at checkpoint boundaries during a run.

    Installed as the engine's ``on_time_drained`` observer (see
    :meth:`~repro.simulator.engine.SimulationEngine.
    set_schedule_policy`): whenever the clock is about to advance past a
    timestamp at which stable storage gained checkpoints, the quiescent state
    is fingerprinted.  The resulting sequence -- one entry per
    checkpoint-writing timestamp, in time order -- is what the explorer
    compares across interleavings; the hook only reads state, it never
    schedules.
    """

    def __init__(self, sim: "Simulation", include_times: bool = True) -> None:
        self.sim = sim
        self.include_times = include_times
        #: one record per boundary: {"time", "writes", "fingerprint"}.
        self.boundaries: List[Dict[str, Any]] = []
        self._last_writes = sim.storage.writes

    def on_time_drained(self, time: float) -> None:
        writes = self.sim.storage.writes
        if writes != self._last_writes:
            self._last_writes = writes
            self.boundaries.append(
                {
                    "time": time,
                    "writes": writes,
                    # Boundary samples hash the committed view only: a
                    # boundary can land mid-recovery, where live rank
                    # progress legitimately depends on the schedule (see
                    # stable_digest).  The clock stays out of the boundary
                    # hash even on flat networks -- whether a doomed
                    # checkpoint squeaked in before its rollback shifts
                    # *when* the Nth write lands, not what the recovery
                    # line says -- so timing is only compared where it must
                    # reconverge: the final state and the makespan.
                    "fingerprint": fingerprint_value(
                        stable_digest(self.sim, include_times=False)
                    ),
                }
            )

    def fingerprints(self) -> List[str]:
        return [entry["fingerprint"] for entry in self.boundaries]

    def final(self) -> str:
        """Fingerprint the completed run's state."""
        return fingerprint_state(self.sim, include_times=self.include_times)


def normalized_trace_digest(sim: "Simulation") -> Optional[str]:
    """Digest of the run's *logical* recovery trace, or None without events.

    Per-rank effective send sequences (rollback-adjusted, Definition 3 of the
    paper: destination, tag, size and payload -- no ids, no times) plus the
    per-rank rollback counts.  Two interleavings of a send-deterministic
    workload must digest identically even when their raw event timelines
    interleave differently.
    """
    trace = sim.trace
    if not trace.record_events:
        return None
    payload = {
        "sends": {
            rank: [
                (sig.dest, sig.tag, sig.size_bytes, sig.payload_repr)
                for sig in trace.effective_send_sequence(rank)
            ]
            for rank in sorted(trace.send_sequences)
        },
        "restarts": {
            rank: len(marks) for rank, marks in sorted(trace.restart_marks.items())
        },
    }
    return fingerprint_value(payload)
