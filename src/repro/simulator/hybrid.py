"""Hybrid analytical/DES execution of failure-free epochs.

Between failures a HydEE-style run is a steady-state loop: every rank executes
the same iteration body, checkpoints on the same schedule and exchanges the
same messages.  Simulating those epochs event by event is what dominates
Monte Carlo campaigns, yet none of the per-event detail matters for the
metrics the campaigns aggregate -- only the protocol byte/checkpoint counters
and the per-rank clocks at the epoch boundary do.

:class:`HybridDirector` exploits this.  It runs a short warm-up of ordinary
DES, calibrates a per-rank iteration-rate model from the observed boundary
times, and then alternates between

* **fast-forward epochs**: every rank's iteration generator is driven
  synchronously (no event queue) through a batch of iterations; messages are
  matched through the normal MPI-matching machinery so protocol hooks,
  per-rank statistics and application state stay *exactly* what full DES
  would produce; rank clocks are advanced analytically with the rate model
  and the engine's clock jumps once per epoch
  (:meth:`~repro.simulator.engine.SimulationEngine.advance_to`);
* **DES guard windows** around every failure injection:
  :data:`GUARD_ITERATIONS` iterations before the strike, the whole
  failure/rollback/replay choreography, and the re-execution until the run
  is quiescent again run under the unmodified event-driven simulator, so
  recovery behaviour is byte-identical to exact mode.

Ranks synchronise with the director through an :class:`IterationGate`: the
rank driver parks its coroutine at the gate's iteration limit, and the
director either raises the limit (next DES segment) or replaces the parked
coroutine wholesale after a fast-forwarded epoch
(:meth:`~repro.simulator.process.RankProcess.fast_forward_to`).

When the run cannot be fast-forwarded safely -- workload not declared
:attr:`~repro.workloads.base.Application.ff_compatible`, bounded runs,
protocols with opaque boundary hooks, or a warm-up whose iteration durations
are too irregular to trust -- the director degrades gracefully to plain exact
execution and reports why (``sim.hybrid.*`` metrics plus a
``hybrid_fallback_reason`` entry in ``stats.extra``).

Accepted approximations (documented in the README): per-rank sub-iteration
clock stagger is collapsed to the rate model's projection at epoch
boundaries, and message/delivery timestamps inside a fast-forwarded epoch are
projections rather than transport-accurate times.  Both are bounded by the
calibration spread check and do not affect protocol byte accounting.
"""

from __future__ import annotations

import math
from collections import deque
from statistics import median
from typing import (
    TYPE_CHECKING,
    Any,
    Callable,
    Deque,
    Dict,
    Generator,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import InvalidOperationError, SimulationError
from repro.ftprotocols.base import ClusteredProtocolBase
from repro.simulator import calibration as _calibration
from repro.simulator import collectives as _collectives
from repro.simulator.communicator import _default_size
from repro.simulator.engine import Condition
from repro.simulator.messages import ANY_SOURCE, ANY_TAG, Message, MessageKind
from repro.simulator.process import RankState
from repro.simulator.protocol_api import ProtocolHooks, SendAction
from repro.simulator.requests import RecvRequest, Request, SendRequest

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.simulator.process import RankProcess
    from repro.simulator.simulation import Simulation, SimulationResult

#: Return type of the fast-forward communicator's blocking calls: they are
#: generators yielding :data:`_FF_WAIT` until their request completes.
_FFGen = Generator[Any, Any, Any]

#: Iterations of exact DES kept on each side of a failure injection.
GUARD_ITERATIONS = 2
#: Calibration guard of the flat rate model: fall back to exact execution
#: when the warm-up's pooled iteration durations spread (max-min)/median
#: beyond this.
MAX_DT_SPREAD = 0.25


class _FFWait:
    """Sentinel yielded by fast-forward communicator calls that must block."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return "<fast-forward wait>"


_FF_WAIT = _FFWait()


class _FFUnsupported(Exception):
    """An application call that cannot be executed without the event queue."""


class IterationGate:
    """Synchronisation point between rank drivers and the hybrid director.

    ``Simulation.iteration_gate`` is ``None`` in exact mode (the rank driver
    pays one ``None`` check per iteration).  In hybrid mode the driver parks
    its coroutine whenever its iteration counter reaches :attr:`limit` and
    waits on :attr:`condition`; the director observes quiescence through
    :attr:`parked` and releases ranks either by raising the limit and firing
    the condition, or by discarding the parked coroutines entirely after a
    fast-forwarded epoch.
    """

    __slots__ = ("limit", "condition", "parked")

    def __init__(self, limit: int) -> None:
        self.limit = limit
        self.condition = Condition("iteration-gate")
        #: rank -> (incarnation, park_time, iteration, app_state); the
        #: incarnation lets the director ignore entries of coroutines that
        #: were rolled back after parking.
        self.parked: Dict[int, Tuple[int, float, int, Any]] = {}

    def park(self, proc: "RankProcess", iteration: int, state: Any) -> None:
        self.parked[proc.rank] = (
            proc.incarnation, proc.sim.engine.now, iteration, state
        )

    def unpark(self, rank: int) -> None:
        self.parked.pop(rank, None)


class FastForwardCommunicator:
    """Queue-free mirror of :class:`repro.simulator.communicator.Communicator`.

    During a fast-forwarded epoch the application coroutines are driven
    directly by the director, not by the event engine.  Blocking calls are
    still generators (so ``yield from comm.recv(...)`` works unchanged) but
    instead of yielding operation descriptors they yield the :data:`_FF_WAIT`
    sentinel until their request completes; sends deliver synchronously
    through the director.  Calls whose semantics *require* event timing
    (``ANY_SOURCE`` matching, ``waitany``, explicit checkpoint requests)
    raise :class:`_FFUnsupported`, which the director converts into a hard
    error -- such applications must be declared ``ff_compatible = False``.
    """

    def __init__(self, sim: "Simulation", rank_process: "RankProcess",
                 director: "HybridDirector") -> None:
        self._sim = sim
        self._proc = rank_process
        self._director = director
        self._collective_seq = 0

    # ------------------------------------------------------------------ info
    @property
    def rank(self) -> int:
        return self._proc.rank

    @property
    def size(self) -> int:
        return self._sim.nprocs

    @property
    def now(self) -> float:
        """The rank's projected clock (the engine clock is frozen here)."""
        return self._director._ff_clock[self._proc.rank]

    # ------------------------------------------------------- blocking p2p
    def send(self, dest: int, payload: Any = None, tag: int = 0,
             size_bytes: Optional[int] = None) -> _FFGen:
        self.isend(dest, payload, tag=tag, size_bytes=size_bytes)
        return None
        yield  # pragma: no cover - marks this function as a generator

    def recv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> _FFGen:
        request = self.irecv(source=source, tag=tag)
        while not request.complete:
            yield _FF_WAIT
        self._proc._deliver_to_app(request.value)
        return request.value

    def sendrecv(
        self,
        dest: int,
        payload: Any,
        source: int,
        tag: int = 0,
        recv_tag: Optional[int] = None,
        size_bytes: Optional[int] = None,
    ) -> _FFGen:
        recv_tag = tag if recv_tag is None else recv_tag
        rreq = self.irecv(source=source, tag=recv_tag)
        sreq = self.isend(dest, payload, tag=tag, size_bytes=size_bytes)
        while not rreq.complete:
            yield _FF_WAIT
        # Same delivery order as the exact waitall([sreq, rreq]) path: the
        # send value (None) first -- a no-op -- then the received message.
        self._proc._deliver_to_app(sreq.value)
        self._proc._deliver_to_app(rreq.value)
        return rreq.value

    # --------------------------------------------------- non-blocking p2p
    def isend(self, dest: int, payload: Any = None, tag: int = 0,
              size_bytes: Optional[int] = None) -> SendRequest:
        self._check_peer(dest)
        size = _default_size(payload) if size_bytes is None else int(size_bytes)
        return self._director.ff_send(self._proc, dest, payload, tag, size)

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> RecvRequest:
        if source == ANY_SOURCE:
            raise _FFUnsupported("an ANY_SOURCE receive")
        self._check_peer(source)
        return self._proc.post_receive(source, tag)

    @staticmethod
    def test(request: Request) -> bool:
        return request.test()

    def wait(self, request: Request) -> _FFGen:
        while not request.complete:
            yield _FF_WAIT
        self._proc._deliver_to_app(request.value)
        return request.value

    def waitall(self, requests: Sequence[Request]) -> _FFGen:
        if not requests:
            return []
        requests = list(requests)
        for request in requests:
            while not request.complete:
                yield _FF_WAIT
        values = [r.value for r in requests]
        # Deliver in request order after all complete, like the exact path.
        for value in values:
            self._proc._deliver_to_app(value)
        return values

    def waitany(self, requests: Sequence[Request]) -> _FFGen:
        # Which request completes first is a timing question the fast path
        # cannot answer deterministically.
        raise _FFUnsupported("a waitany call")
        yield  # pragma: no cover

    # ------------------------------------------------------------- local ops
    def compute(self, seconds: float, flops: Optional[float] = None) -> _FFGen:
        if seconds < 0:
            raise InvalidOperationError("compute time must be non-negative")
        if seconds > 0:
            # The time itself is covered by the calibrated iteration rate;
            # only the statistics counter must stay in sync with exact mode.
            self._proc.rstats.compute_time += seconds
        return None
        yield  # pragma: no cover

    def wait_condition(self, condition: Condition) -> _FFGen:
        raise _FFUnsupported("a wait_condition call")
        yield  # pragma: no cover

    def checkpoint(self, label: str = "") -> _FFGen:
        raise _FFUnsupported("an application-requested checkpoint")
        yield  # pragma: no cover

    def local_event(self, name: str = "local", data: Any = None) -> _FFGen:
        return None
        yield  # pragma: no cover

    # ------------------------------------------------------------ collectives
    def _next_collective_tag(self) -> int:
        self._collective_seq += 1
        return _collectives.COLLECTIVE_TAG_BASE + self._collective_seq

    def barrier(self) -> _FFGen:
        return (yield from _collectives.barrier(self))

    def bcast(self, value: Any, root: int = 0,
              size_bytes: Optional[int] = None) -> _FFGen:
        return (yield from _collectives.bcast(self, value, root, size_bytes))

    def reduce(self, value: Any, op: Any = None, root: int = 0,
               size_bytes: Optional[int] = None) -> _FFGen:
        return (yield from _collectives.reduce(self, value, op, root, size_bytes))

    def allreduce(self, value: Any, op: Any = None,
                  size_bytes: Optional[int] = None) -> _FFGen:
        return (yield from _collectives.allreduce(self, value, op, size_bytes))

    def gather(self, value: Any, root: int = 0,
               size_bytes: Optional[int] = None) -> _FFGen:
        return (yield from _collectives.gather(self, value, root, size_bytes))

    def allgather(self, value: Any, size_bytes: Optional[int] = None) -> _FFGen:
        return (yield from _collectives.allgather(self, value, size_bytes))

    def scatter(self, values: Optional[Sequence[Any]], root: int = 0,
                size_bytes: Optional[int] = None) -> _FFGen:
        return (yield from _collectives.scatter(self, values, root, size_bytes))

    def alltoall(self, values: Sequence[Any],
                 size_bytes: Optional[int] = None) -> _FFGen:
        return (yield from _collectives.alltoall(self, values, size_bytes))

    # ------------------------------------------------------------------ misc
    def _check_peer(self, peer: int) -> None:
        if not (0 <= peer < self._sim.nprocs):
            raise InvalidOperationError(
                f"rank {self.rank}: peer {peer} outside communicator of size "
                f"{self._sim.nprocs}"
            )
        if peer == self.rank:
            raise InvalidOperationError(
                f"rank {self.rank}: self-sends are not supported by the simulator"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return f"FastForwardCommunicator(rank={self.rank}, size={self.size})"


class RateModel:
    """Per-rank iteration-rate model calibrated from the DES warm-up.

    Two flavours share one interface:

    * **flat** (``phases is None``, ``interval`` 0): ``dt[rank]`` is the
      median duration of an iteration and ``ckpt_extra`` is zero.  Used for
      runs without periodic checkpoints and for per-iteration
      checkpointing, whose cost is already inside every sampled delta.
    * **phase-indexed** (``phases[rank]`` = list of ``interval`` durations):
      under a periodic checkpoint schedule the steady-state iteration
      durations are *periodic in* ``i % interval`` -- link-contention beats
      plus the checkpoint-cost ripple repeat exactly once the transient has
      decayed -- so the model stores one duration per phase, verified
      against the previous period during calibration.  Projection walks the
      phase sequence via prefix sums and is exact (to float noise) in steady
      state, which is what lets workloads with strongly bimodal iteration
      durations (ring, cg, lu, ...) fast-forward at all.
    """

    __slots__ = ("dt", "ckpt_extra", "interval", "dt_mean", "dt_spread",
                 "min_dt", "max_dt", "phases", "_period", "_cum")

    def __init__(self, dt: Dict[int, float], ckpt_extra: Dict[int, float],
                 interval: int, dt_spread: float,
                 phases: Optional[Dict[int, List[float]]] = None) -> None:
        self.dt = dt
        self.ckpt_extra = ckpt_extra
        #: checkpoint interval of the phase model (0 for the flat model).
        self.interval = interval
        self.dt_mean = sum(dt.values()) / len(dt)
        self.dt_spread = dt_spread
        #: rank -> per-phase durations (phase of the delta ending at count
        #: ``i`` is ``i % interval``); ``None`` selects the flat model.
        self.phases = phases
        self._cum: Optional[Dict[int, List[float]]]
        self._period: Optional[Dict[int, float]]
        if phases is not None:
            k = interval
            self._cum = {}
            self._period = {}
            for rank, seq in phases.items():
                cum = [0.0] * k
                acc = 0.0
                for j in range(1, k):
                    acc += seq[j]
                    cum[j] = acc
                self._cum[rank] = cum
                self._period[rank] = acc + seq[0]
            self.min_dt = min(min(seq) for seq in phases.values())
            self.max_dt = max(max(seq) for seq in phases.values())
        else:
            self._cum = None
            self._period = None
            self.min_dt = min(dt.values())
            self.max_dt = max(dt.values())

    # -------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe form for the calibration cache (float-exact: ``json``
        round-trips Python floats through ``repr``)."""
        return {
            "dt": {str(r): v for r, v in self.dt.items()},
            "ckpt_extra": {str(r): v for r, v in self.ckpt_extra.items()},
            "interval": self.interval,
            "dt_spread": self.dt_spread,
            "phases": (
                None if self.phases is None
                else {str(r): list(seq) for r, seq in self.phases.items()}
            ),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RateModel":
        phases = data.get("phases")
        return cls(
            dt={int(r): float(v) for r, v in data["dt"].items()},
            ckpt_extra={int(r): float(v) for r, v in data["ckpt_extra"].items()},
            interval=int(data["interval"]),
            dt_spread=float(data["dt_spread"]),
            phases=(
                None if phases is None
                else {int(r): [float(v) for v in seq] for r, seq in phases.items()}
            ),
        )

    # ----------------------------------------------------------- projection
    def _phase_sum(self, rank: int, m: int) -> float:
        """Sum of the phase durations of deltas ``1..m`` (``S(m)``)."""
        k = self.interval
        cum, period = self._cum, self._period
        assert cum is not None and period is not None
        return (m // k) * period[rank] + cum[rank][m % k]

    def project(self, rank: int, t0: float, b: int, m: int) -> float:
        """Projected clock of ``rank`` at iteration count ``m``, anchored at
        ``t0`` = its observed clock at count ``b``.

        Phase model: a checkpoint taken at boundary count ``c`` is observed
        inside the *next* delta (the one ending at ``c + 1``), but a rank
        resuming (or finishing) exactly at a boundary has already paid for
        that checkpoint -- so the boundary surcharge is added when ``m``
        lands on a boundary and removed when the anchor ``b`` does, keeping
        the projection consistent with a boundary count in the half-open
        range ``(b, m]``.
        """
        if self.phases is not None:
            if m == b:
                return t0
            t = t0 + (self._phase_sum(rank, m) - self._phase_sum(rank, b))
            k = self.interval
            extra = self.ckpt_extra[rank]
            if extra:
                if m % k == 0 and m > 0:
                    t += extra
                if b % k == 0 and b > 0:
                    t -= extra
            return t
        return t0 + (m - b) * self.dt[rank]

    def iterations_at(self, rank: int, t0: float, b: int, t: float) -> int:
        """Largest count ``m >= b`` with ``project(rank, t0, b, m) <= t``.

        Central estimate (no conservative slack): used to size the DES guard
        window around a timed strike, where the caller adds its own margin.
        """
        if t <= t0:
            return b
        rate = self.dt[rank]
        if rate <= 0.0:
            return b
        # The amortised seed is within one checkpoint period of the exact
        # answer (within rounding for the flat model); the two walks below
        # correct the remainder.
        m = b + int((t - t0) / rate) + 1
        while m > b and self.project(rank, t0, b, m) > t:
            m -= 1
        while self.project(rank, t0, b, m + 1) <= t:
            m += 1
        return m

    def max_iterations_by(self, rank: int, t0: float, b: int, deadline: float) -> int:
        """Largest count ``m >= b`` with ``project(rank, t0, b, m) <= deadline``.

        Phase model: the projection accounts for every checkpoint boundary
        exactly, so the exact walk is already safe.  Flat model: a constant
        rate, so the count is one division.
        """
        if self.phases is not None:
            return self.iterations_at(rank, t0, b, deadline)
        rate = self.dt[rank]
        usable = deadline - t0
        if usable <= 0.0 or rate <= 0.0:
            return b
        return b + int(usable // rate)


class HybridDirector:
    """Orchestrates one hybrid run (``SimulationConfig.execution="hybrid"``)."""

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        protocol = sim.protocol
        self._clustered = isinstance(protocol, ClusteredProtocolBase)
        self._interval: int = int(
            (protocol.checkpoint_interval or 0) if self._clustered else 0
        )
        #: protocol message hooks must run per message even in fast-forward.
        self._send_hook = bool(protocol.ff_send_hook)
        self._ffcomms = {
            rank: FastForwardCommunicator(sim, proc, self)
            for rank, proc in sim.ranks.items()
        }
        #: per-rank projected clocks, valid during a fast-forward epoch.
        self._ff_clock: Dict[int, float] = {}
        self._ff_blocked: Set[int] = set()
        self._ff_runnable: Deque[int] = deque()
        self._iter_times: Dict[int, Dict[int, float]] = {}
        self.stats: Dict[str, float] = {
            "enabled": 0,
            "fallback": 0,
            "calibration_cached": 0,
            "warmup_iterations": 0,
            "guard_iterations": 0,
            "epochs": 0,
            "ff_iterations": 0,
            "batched_iterations": 0,
            "des_iterations": 0,
            "dt_mean_s": 0.0,
            "dt_spread": 0.0,
            "ckpt_extra_mean_s": 0.0,
        }

    # ------------------------------------------------------------------- run
    def run(self) -> "SimulationResult":
        sim = self.sim
        total = int(sim.application.num_iterations)
        if self._interval > 1:
            # The phase model needs two full checkpoint periods to verify
            # that the per-phase durations have settled, and slow-decaying
            # transients (pipeline fill, checkpoint-ripple workloads like
            # cg) need up to four.  The warm-up must run as ONE ungated
            # stretch -- parking ranks mid-warm-up and releasing them
            # imprints a period-aligned stall on the measured deltas that
            # the periodicity check cannot distinguish from real timing --
            # so the length is chosen up front: the largest affordable rung
            # given the iteration budget and any iteration-triggered strike.
            k = self._interval
            i_f = (
                sim.failure_injector.next_iteration_trigger()
                if sim.failure_injector else None
            )
            warmup = 2 * k + 2
            for rung in (4 * k + 2, 3 * k + 2):
                if total >= rung + 2 and (i_f is None or i_f > rung):
                    warmup = rung
                    break
        else:
            # Flat model: boundaries 1..3 give every rank two plain deltas.
            warmup = 3
        guard_i = GUARD_ITERATIONS
        sim.hybrid_stats = self.stats
        self.stats["warmup_iterations"] = warmup
        self.stats["guard_iterations"] = guard_i

        reason = self._static_fallback_reason(total, warmup)
        if reason is not None:
            # Static fallback: the whole run is plain exact execution.
            self._note_fallback(reason)
            return sim._run_exact()

        cached = self._cached_calibration()
        gate = IterationGate(0 if cached is not None else warmup)
        sim.iteration_gate = gate
        if cached is None:
            self._install_listener()
        sim.protocol.on_simulation_start()
        sim._start_ranks()
        engine_reason = self._run_warmup_segment()
        self._remove_listener()
        if engine_reason == "empty" and not self._quiescent():
            return sim._finish("empty")
        if sim._done_count == sim.nprocs:
            sim.iteration_gate = None
            return sim._finish("stopped")
        if not self._quiescent():
            # The warm-up segment stopped because the next engine event is
            # the first timed strike and not every rank has parked yet.  No
            # failure has fired, so releasing the gate here hands the run to
            # exact mode with at most park-wait timing skew -- whereas
            # letting the strike land on a gated warm-up would perturb the
            # recovery dynamics themselves.
            return self._abandon(
                gate, "the first timed strike lands inside the warm-up"
            )

        if cached is not None:
            model = self._apply_cached_calibration(cached, gate)
        else:
            model, calib_reason = self._calibrate(warmup)
            if model is None:
                return self._abandon(gate, calib_reason)
            # Export for the calibration cache (repro.simulator.calibration):
            # the campaign pre-warm harvests this from a failure-free run.
            sim.hybrid_calibration = {
                "model": model.to_dict(),
                "warmup": warmup,
                "park_times": {
                    rank: entry[1] for rank, entry in gate.parked.items()
                },
            }
        self.stats["enabled"] = 1
        self.stats["dt_mean_s"] = model.dt_mean
        self.stats["dt_spread"] = model.dt_spread
        if model.interval:
            self.stats["ckpt_extra_mean_s"] = (
                sum(model.ckpt_extra.values()) / len(model.ckpt_extra)
            )

        injector = sim.failure_injector
        while sim._done_count != sim.nprocs:
            parked = gate.parked
            parked_its = {entry[2] for entry in parked.values()}
            t_f = injector.next_timed_failure_time() if injector else None
            i_f = injector.next_iteration_trigger() if injector else None
            b_max = max(parked_its)

            # DES target for the next guard window: far enough to cover the
            # next strike (plus guard) but no further than necessary.
            g = total
            if i_f is not None:
                g = min(g, i_f + guard_i)
            if t_f is not None:
                # Project where each rank will be when the strike lands and
                # gate a spread-proportional margin past it, so ranks are
                # still live DES at t_f even if the model runs a little slow.
                est = b_max
                for rank, entry in parked.items():
                    est = max(
                        est, model.iterations_at(rank, entry[1], entry[2], t_f)
                    )
                margin = 1 + int(math.ceil(model.dt_spread * (est - b_max)))
                g = min(g, est + guard_i + margin)
            g = max(g, b_max + 1)

            advanced = False
            if len(parked_its) == 1:
                b = b_max
                # Stop the analytic span one iteration short of the end: the
                # final iteration -- and with it the final checkpoint and the
                # protocol teardown -- runs under exact DES, so the run's
                # finish timing is measured, not modelled (the boundary
                # surcharge at the last checkpoint is an estimate; barrier
                # wait and write cost cannot be separated from warm-up data).
                e = total - 1
                if i_f is not None:
                    e = min(e, max(b, i_f - guard_i))
                if t_f is not None:
                    deadline = t_f - guard_i * model.max_dt
                    for rank, entry in parked.items():
                        e = min(e, model.max_iterations_by(rank, entry[1], b, deadline))
                    e = max(e, b)
                if e > b:
                    self._fast_forward_epoch(b, e, model, gate)
                    advanced = True
                    gate.limit = max(g, e + 1)
            if not advanced:
                self._raise_gate(gate, g)
            engine_reason = self._run_segment()
            if engine_reason == "empty" and not self._quiescent():
                return sim._finish("empty")
            if sim.iteration_gate is None:
                break

        self.stats["des_iterations"] = max(
            0, sim.nprocs * total - self.stats["ff_iterations"]
        )
        return sim._finish("stopped")

    # ------------------------------------------------------------- fallbacks
    def _static_fallback_reason(self, total: int, warmup: int) -> Optional[str]:
        sim = self.sim
        app = sim.application
        protocol = sim.protocol
        if not getattr(app, "ff_compatible", False):
            return f"application {app.name!r} is not fast-forwardable"
        if not getattr(app, "send_deterministic", False):
            return f"application {app.name!r} is not send-deterministic"
        if sim.config.max_time is not None or sim.config.max_events is not None:
            return "bounded run (max_time/max_events)"
        if total < warmup + 2:
            return (
                f"too few iterations ({total}) for a {warmup}-iteration warm-up"
            )
        cls = type(protocol)
        if (cls.on_iteration_boundary is not ProtocolHooks.on_iteration_boundary
                and not self._clustered):
            return (
                f"protocol {protocol.name!r} has an iteration-boundary hook "
                "the fast path cannot reproduce"
            )
        if not self._send_hook and (
            cls.on_app_send is not ProtocolHooks.on_app_send
            or cls.on_message_arrival is not ProtocolHooks.on_message_arrival
        ):
            return (
                f"protocol {protocol.name!r} overrides message hooks without "
                "declaring ff_send_hook"
            )
        injector = sim.failure_injector
        if injector is not None:
            i_f = injector.next_iteration_trigger()
            if i_f is not None and i_f <= warmup:
                return (
                    f"an iteration-triggered strike (iteration {i_f}) lands "
                    "inside the warm-up"
                )
        return None

    def _note_fallback(self, reason: str) -> None:
        self.stats["fallback"] = 1
        self.stats["enabled"] = 0
        self.sim.stats.extra["hybrid_fallback_reason"] = reason

    def _abandon(self, gate: IterationGate, reason: str) -> "SimulationResult":
        """Calibration failed after the warm-up: release the gate and finish
        the already-started run in exact mode."""
        sim = self.sim
        self._note_fallback(reason)
        sim.iteration_gate = None
        gate.condition.fire(None)
        engine_reason = sim.engine.run(stop_predicate=sim._should_stop)
        return sim._finish(engine_reason)

    # ----------------------------------------------------------- calibration
    def _install_listener(self) -> None:
        sim = self.sim
        times = self._iter_times = {rank: {} for rank in sim.ranks}
        engine = sim.engine

        def listener(rank: int, iteration: int) -> None:
            times[rank][iteration] = engine.now

        sim._iteration_listener = listener

    def _remove_listener(self) -> None:
        self.sim._iteration_listener = None

    # ----------------------------------------------------- calibration cache
    def _cached_calibration(self) -> Optional[Dict[str, Any]]:
        """A validated calibration-cache entry for this run, or ``None``.

        The entry is keyed by ``config.calibration_key`` (set by the
        scenario builder from :meth:`ScenarioSpec.calibration_key`) and must
        structurally match this simulation -- same model type and checkpoint
        interval, same rank set.  A hit replaces the DES warm-up entirely; it
        is still re-verified at run time by the two-probe check before every
        batched advance, so a wrong-but-matching entry can cost throughput,
        never accuracy.
        """
        key = getattr(self.sim.config, "calibration_key", None)
        if not key:
            return None
        cache = _calibration.active_cache()
        entry = cache.get(key) if cache is not None else None
        if not entry:
            return None
        try:
            model = RateModel.from_dict(entry["model"])
            warmup = int(entry["warmup"])
            park_times = {
                int(rank): float(t)
                for rank, t in entry["park_times"].items()
            }
        except (KeyError, TypeError, ValueError, AttributeError):
            return None
        # A run with periodic checkpoints needs the phase model, every other
        # run the flat model with interval 0.  A flat entry carrying an
        # interval (written by a build that allowed an explicit warm-up)
        # would be projected without its checkpoint surcharge.
        periodic = self._interval > 1
        if (model.phases is not None) != periodic:
            return None
        if model.interval != (self._interval if periodic else 0):
            return None
        ranks = set(self.sim.ranks)
        if set(model.dt) != ranks or set(park_times) != ranks:
            return None
        if warmup < 1:
            return None
        return {"model": model, "warmup": warmup, "park_times": park_times}

    def _apply_cached_calibration(
        self, cached: Dict[str, Any], gate: IterationGate
    ) -> RateModel:
        """Anchor the parked-at-zero ranks so the cached model's projection
        reproduces the calibrating run's observed clocks.

        The phase model describes *steady-state* timing; iterations inside
        the calibrating run's warm-up carry a transient the projection does
        not see.  Rewriting each rank's park-time anchor by
        ``offset = T_park(W) - project(0, 0 -> W)`` makes the projection
        land exactly on the calibrated park time at count ``W``, folding the
        whole transient into the anchor instead of into per-iteration error.
        """
        model: RateModel = cached["model"]
        warmup = cached["warmup"]
        park_times = cached["park_times"]
        for rank, entry in list(gate.parked.items()):
            anchor = park_times[rank] - model.project(rank, 0.0, 0, warmup)
            gate.parked[rank] = (entry[0], anchor, entry[2], entry[3])
        self.stats["warmup_iterations"] = 0
        self.stats["calibration_cached"] = 1
        return model

    #: relative tolerance for "two consecutive warm-up periods agree": the
    #: settled DES is deterministic, so steady-state residuals are float
    #: noise (~1e-14) while a live transient shows up at 1e-3 and above.
    _PHASE_TOL = 1e-9

    def _calibrate(self, warmup: int) -> Tuple[Optional[RateModel], str]:
        """Fit the per-rank rate model from warm-up boundary times.

        Periodic protocols (checkpoint interval > 1; the warm-up then spans
        at least two periods) get the phase-indexed model; everything else
        (no periodic checkpoints, per-iteration checkpoints) gets the flat
        median model.
        """
        if self._interval > 1:
            return self._calibrate_phases(warmup)
        return self._calibrate_flat(warmup)

    def _calibrate_phases(
        self, warmup: int
    ) -> Tuple[Optional[RateModel], str]:
        """Fit the phase-indexed model (see :class:`RateModel`).

        The delta ending at completion count ``i`` has phase ``i % k``; the
        model takes each phase's *last* observed duration and accepts it only
        when it matches the observation one period earlier to float
        precision, i.e. the warm-up transient has fully decayed.
        """
        k = self._interval
        phases: Dict[int, List[float]] = {}
        dt: Dict[int, float] = {}
        extra: Dict[int, float] = {}
        residual = 0.0
        for rank, times in self._iter_times.items():
            by_phase: List[List[float]] = [[] for _ in range(k)]
            for i in range(2, warmup + 1):
                t1 = times.get(i)
                t0 = times.get(i - 1)
                if t1 is None or t0 is None:
                    continue
                delta = t1 - t0
                if delta < 0.0:
                    # A failure rolled this rank back mid-warm-up and the
                    # re-execution overwrote earlier samples.
                    return None, "warm-up disturbed by a failure"
                by_phase[i % k].append(delta)
            seq: List[float] = []
            for j in range(k):
                samples = by_phase[j]
                if len(samples) < 2:
                    return None, f"rank {rank} produced no usable warm-up samples"
                last, prev = samples[-1], samples[-2]
                ref = max(abs(last), abs(prev), 1e-300)
                residual = max(residual, abs(last - prev) / ref)
                seq.append(last)
            phases[rank] = seq
            dt[rank] = sum(seq) / k
            # The checkpoint taken at a boundary count ``i - 1`` lands in
            # the delta ending at ``i``, i.e. phase 1; its surcharge over
            # the median plain phase is reported as ``ckpt_extra``.
            others = sorted(seq[j] for j in range(k) if j != 1)
            extra[rank] = max(0.0, seq[1] - others[len(others) // 2])
        if residual > self._PHASE_TOL:
            return None, (
                f"iteration durations not yet periodic after {warmup} "
                f"warm-up iterations (period residual {residual:.2e})"
            )
        if min(dt.values()) <= 0.0:
            return None, "degenerate warm-up iteration durations"
        return RateModel(dt, extra, k, residual, phases), ""

    def _calibrate_flat(self, warmup: int) -> Tuple[Optional[RateModel], str]:
        """Fit the flat (single median duration) rate model.

        Only runs without periodic checkpoints or with a checkpoint at every
        boundary (interval 1) get here.  With interval 1 every delta carries
        a checkpoint, so its cost is left inside ``dt``; ``ckpt_extra`` is
        zero and the model's interval is 0 either way.
        """
        dt: Dict[int, float] = {}
        pooled: List[float] = []
        for rank, times in self._iter_times.items():
            deltas: List[float] = []
            for i in range(2, warmup + 1):
                t1 = times.get(i)
                t0 = times.get(i - 1)
                if t1 is None or t0 is None:
                    continue
                delta = t1 - t0
                if delta < 0.0:
                    # A failure rolled this rank back mid-warm-up and the
                    # re-execution overwrote earlier samples.
                    return None, "warm-up disturbed by a failure"
                deltas.append(delta)
            if not deltas:
                return None, f"rank {rank} produced no usable warm-up samples"
            dt[rank] = median(deltas)
            pooled.extend(deltas)
        med = median(pooled)
        if med <= 0.0:
            return None, "degenerate warm-up iteration durations"
        spread = (max(pooled) - min(pooled)) / med
        if spread > MAX_DT_SPREAD:
            return None, (
                f"iteration durations too irregular (spread {spread:.3f} > "
                f"{MAX_DT_SPREAD:g})"
            )
        return RateModel(dt, dict.fromkeys(dt, 0.0), 0, spread), ""

    # ------------------------------------------------------------- segments
    def _quiescent(self) -> bool:
        """True when the DES segment has converged: every live rank is parked
        at the gate and nothing but future timed failure strikes is queued.

        Checked before every engine event, so the expensive O(nprocs) scan is
        guarded by O(1) short-circuits that only pass once the queue has
        drained down to the injector's residual entries.
        """
        sim = self.sim
        injector = sim.failure_injector
        if injector is not None and injector.armed_fires:
            return False
        if sim._done_count == sim.nprocs:
            return True
        residual = injector.pending_timed_fires if injector is not None else 0
        if sim.engine.pending_events != residual:
            return False
        if sim.protocol.recovery_in_progress():
            return False
        gate = sim.iteration_gate
        if gate is None:
            return False
        parked = gate.parked
        for rank, proc in sim.ranks.items():
            if proc.state is RankState.DONE:
                continue
            entry = parked.get(rank)
            if (entry is None or entry[0] != proc.incarnation
                    or proc.state is not RankState.BLOCKED):
                return False
        return True

    def _run_segment(self) -> str:
        return self.sim.engine.run(stop_predicate=self._quiescent)

    def _run_warmup_segment(self) -> str:
        """The calibration segment: like :meth:`_run_segment`, but stop
        *before* the first timed strike would pop.

        A strike landing while the warm-up gate holds ranks parked would
        recover against a world exact mode never produces; stopping when the
        queue has drained down to the strike lets the caller abandon to
        exact mode with no failure fired yet.  (Iteration-triggered strikes
        at or below the warm-up boundary are a static fallback instead.)
        """
        sim = self.sim
        injector = sim.failure_injector
        t_first = injector.next_timed_failure_time() if injector else None
        if t_first is None:
            return self._run_segment()
        engine = sim.engine

        def stop() -> bool:
            head = engine._peek_time()
            if head is not None and head >= t_first:
                return True
            return self._quiescent()

        return engine.run(stop_predicate=stop)

    def _raise_gate(self, gate: IterationGate, limit: int) -> None:
        """Release parked ranks into a DES segment bounded by ``limit``."""
        gate.limit = limit
        released = gate.condition
        gate.condition = Condition("iteration-gate")
        released.fire(None)

    def _drain_scheduled(self, bound: Optional[float]) -> None:
        """Execute engine events scheduled before ``bound`` (all of them when
        ``bound`` is None) while the clock is frozen mid-fast-forward.

        Fast-forwarded checkpoints fire protocol control messages through
        the ordinary engine scheduler; those events carry epoch-start
        timestamps and must run before the epoch's clock jump.  ``bound``
        keeps genuinely future events (the next timed strike) queued.
        """
        engine = self.sim.engine
        while True:
            head = engine._peek_time()
            if head is None or (bound is not None and head >= bound):
                return
            if not engine.step():
                return

    # ----------------------------------------------------------- fast path
    def _fast_forward_epoch(self, b: int, e: int, model: RateModel,
                            gate: IterationGate) -> None:
        """Advance every parked rank from iteration count ``b`` to ``e``
        without the event queue, then hand them back to the engine."""
        sim = self.sim
        anchors = {rank: entry[1] for rank, entry in gate.parked.items()}
        gate.parked.clear()
        gate.condition = Condition("iteration-gate")

        self._advance_span(b, e, model, anchors)

        now = sim.engine.now
        resumes: Dict[int, float] = {}
        for rank in sorted(anchors):
            resume = model.project(rank, anchors[rank], b, e)
            if resume < now:
                resume = now
            resumes[rank] = resume
        target = min(resumes.values())
        # Play any control traffic still scheduled against the frozen
        # epoch-start clock (e.g. acks of the epoch's last checkpoint)
        # before jumping the clock past it.  Later events -- the next timed
        # failure strike -- stay queued.
        self._drain_scheduled(target)
        for rank in sorted(anchors):
            proc = sim.ranks[rank]
            proc.fast_forward_to(e, proc.app_state, resumes[rank])
        sim.engine.advance_to(target)
        self.stats["epochs"] += 1
        self.stats["ff_iterations"] += (e - b) * len(anchors)

    def _advance_span(self, b: int, e: int, model: RateModel,
                      anchors: Dict[int, float]) -> None:
        """Advance all ranks from count ``b`` to ``e``, batching whole
        checkpoint intervals analytically when it is safe to do so.

        The batched fast path never runs the application generators or the
        per-message protocol hooks: it extrapolates a *verified* state delta
        (consecutive per-message probe iterations must produce identical
        deltas, per iteration or per iteration pair -- see
        :meth:`_probe_deltas`) across each checkpoint interval, takes the
        coordinated checkpoints for real, and falls back to the per-message
        drive for whatever it cannot cover -- the probe window itself, the
        tail beyond the last checkpoint boundary (whose sender logs a later
        failure may need for replay, so its messages must exist for real),
        and any span whose probes disagree.
        """
        plan = self._plan_batch(b, e)
        cur = b
        if plan is not None:
            probe_end, batch_end, probe_span = plan
            if probe_end - probe_span > cur:
                self._drive_iterations(b, probe_end - probe_span, model,
                                       anchors)
            deltas = self._probe_deltas(b, probe_end, probe_span, model,
                                        anchors)
            cur = probe_end
            if deltas is not None:
                cur, stride, d_proto, d_sim = deltas
                end = batch_end
                if stride == 2 and (end - cur) % 2:
                    # Pair extrapolation advances two iterations at a time;
                    # leave an odd final iteration to the per-message tail.
                    end -= 1
                cur = self._batch_intervals(
                    cur, end, model, anchors, b, (d_proto, d_sim), stride
                )
        if e > cur:
            self._drive_iterations(b, e, model, anchors, start=cur)

    def _plan_batch(self, b: int, e: int) -> Optional[Tuple[int, int, int]]:
        """``(probe_end, batch_end, probe_span)`` for a batched advance,
        or ``None``.

        Batching needs: a bulk-capable workload, a protocol that can
        extrapolate its epoch state (``ff_epoch_snapshot``), the slim trace
        path (per-event records require real messages), and -- whenever any
        failure strike is still pending -- checkpoint intervals of at least
        3 iterations, so the batch can end on a recovery line *and* a
        boundary-free probe window exists.

        ``probe_span`` is the number of per-message probe iterations driven
        before extrapolating.  Wide enough intervals (and unclustered runs)
        get a four-iteration window, which additionally supports pair
        (stride-2) verification for protocol state whose per-iteration delta
        alternates with period two; tight intervals keep the classic
        two-iteration window.

        Longer periods cannot be batched at all: verifying stride ``s``
        needs ``2*s`` boundary-free probe deltas, so ``s`` is capped at
        ``(k - 2) // 2`` -- state whose delta period exceeds that (the
        max-based causal phase clock on a ring topology propagates
        cluster-edge phase bumps with a period set by the cluster diameter)
        fails the probe every epoch and correctly stays on the per-message
        fast-forward path.
        """
        sim = self.sim
        if sim.config.record_trace_events:
            return None
        if not getattr(sim.application, "ff_bulk_compatible", False):
            return None
        k = self._interval
        injector = sim.failure_injector
        strikes = injector is not None and (
            injector.next_timed_failure_time() is not None
            or injector.next_iteration_trigger() is not None
        )
        if k in (1, 2):
            return None
        if strikes:
            if not k:
                return None
            batch_end = (e // k) * k
        else:
            batch_end = e
        probe_span = 4 if (not k or (k % 2 == 0 and k >= 8)) else 2
        probe_end = b + probe_span
        if k and probe_span == 4:
            # All four probed deltas must end strictly inside an interval
            # (residue not 0: no checkpoint boundary inside the window;
            # not 1: no delta carrying a checkpoint's cost), and probe_end
            # must be even so every boundary-aligned chunk after it has
            # even length for pair extrapolation (k is even here).
            while (probe_end % 2
                   or any((probe_end - j) % k in (0, 1) for j in range(4))):
                probe_end += 1
        elif k:
            while probe_end % k == 0 or (probe_end - 1) % k == 0:
                probe_end += 1
        if batch_end <= probe_end:
            return None
        if sim.protocol.ff_epoch_snapshot() is None:
            return None
        return probe_end, batch_end, probe_span

    def _probe_deltas(self, b: int, probe_end: int, probe_span: int,
                      model: RateModel, anchors: Dict[int, float]
                      ) -> Optional[Tuple[int, int, Any, Any]]:
        """Drive probe iterations per message and extract a verified
        ``(cur, stride, proto_delta, counter_delta)``, or ``None``.

        The probe is adaptive: two consecutive single-iteration deltas that
        already agree settle a stride-1 delta after only two driven
        iterations (``cur`` is then two short of ``probe_end`` and batching
        starts early).  Only when they disagree -- and the window is the
        four-iteration kind -- are the remaining probe iterations driven:
        four agreeing singles still yield stride 1, and deltas that
        alternate with period two are caught by comparing the two
        consecutive *pair* deltas instead, yielding a stride-2 delta
        extrapolated two iterations at a time by :meth:`_batch_intervals`.

        On failure every rank is left at count ``probe_end``: a failed probe
        costs nothing beyond the per-message work the fallback needed
        anyway.
        """
        sim = self.sim
        protocol = sim.protocol
        start = probe_end - probe_span
        counters = [self._ff_counters_snapshot()]
        protos = [protocol.ff_epoch_snapshot()]

        def drive_to(upto: int) -> None:
            self._drive_iterations(b, upto, model, anchors, start=upto - 1)
            counters.append(self._ff_counters_snapshot())
            protos.append(protocol.ff_epoch_snapshot())

        def clean() -> bool:
            # In-transit application messages (a workload running ahead
            # across iteration boundaries) would be invisible to the
            # extrapolation.
            if any(p is None for p in protos):
                return False
            return not any(sim.ranks[rank].unexpected for rank in anchors)

        drive_to(start + 1)
        drive_to(start + 2)
        if clean():
            d0 = protocol.ff_epoch_delta(protos[0], protos[1])
            d1 = protocol.ff_epoch_delta(protos[1], protos[2])
            if d0 is not None and d0 == d1:
                c0 = self._counter_delta(counters[0], counters[1])
                c1 = self._counter_delta(counters[1], counters[2])
                if self._deltas_match(c0, c1):
                    return start + 2, 1, d1, c1
        if probe_span < 4:
            return None
        drive_to(start + 3)
        drive_to(start + 4)
        if not clean():
            return None
        singles = [
            protocol.ff_epoch_delta(protos[i], protos[i + 1])
            for i in range(probe_span)
        ]
        if all(d is not None and d == singles[-1] for d in singles):
            c_singles = [
                self._counter_delta(counters[i], counters[i + 1])
                for i in range(probe_span)
            ]
            if all(self._deltas_match(c, c_singles[-1]) for c in c_singles):
                return probe_end, 1, singles[-1], c_singles[-1]
        pair_a = protocol.ff_epoch_delta(protos[0], protos[2])
        pair_b = protocol.ff_epoch_delta(protos[2], protos[4])
        if pair_a is None or pair_b is None or pair_a != pair_b:
            return None
        cpair_a = self._counter_delta(counters[0], counters[2])
        cpair_b = self._counter_delta(counters[2], counters[4])
        if not self._deltas_match(cpair_a, cpair_b):
            return None
        return probe_end, 2, pair_b, cpair_b

    def _ff_counters_snapshot(self) -> Tuple[Any, ...]:
        sim = self.sim
        per_rank: Dict[int, Tuple[Any, ...]] = {}
        for rank, proc in sim.ranks.items():
            rstats = proc.rstats
            per_rank[rank] = (
                rstats.sends, rstats.receives, rstats.bytes_sent,
                rstats.bytes_received, rstats.compute_time,
                proc.sends_initiated, proc.deliveries,
            )
        trace = sim.trace
        return (
            per_rank,
            (sim.stats.app_messages, sim.stats.app_bytes),
            {ch: tuple(v) for ch, v in trace.channel_volumes.items()},
            dict(trace.delivered_counts),
        )

    @staticmethod
    def _counter_delta(
        before: Tuple[Any, ...], after: Tuple[Any, ...]
    ) -> Tuple[Any, Any, Any, Any]:
        per_rank = {
            rank: tuple(a - b for a, b in zip(vals, before[0][rank]))
            for rank, vals in after[0].items()
        }
        glob = tuple(a - b for a, b in zip(after[1], before[1]))
        chan: Dict[Any, Tuple[int, int]] = {}
        for ch in sorted(set(after[2]) | set(before[2])):
            count_a, bytes_a = after[2].get(ch, (0, 0))
            count_b, bytes_b = before[2].get(ch, (0, 0))
            chan[ch] = (count_a - count_b, bytes_a - bytes_b)
        delivered = {
            rank: after[3].get(rank, 0) - before[3].get(rank, 0)
            for rank in sorted(set(after[3]) | set(before[3]))
        }
        return per_rank, glob, chan, delivered

    @staticmethod
    def _deltas_match(c1: Any, c2: Any) -> bool:
        """Probe-delta equality: exact for counters, one-ulp-tolerant for the
        accumulated compute-time float."""
        if c1[1:] != c2[1:] or set(c1[0]) != set(c2[0]):
            return False
        for rank, vals1 in c1[0].items():
            vals2 = c2[0][rank]
            if vals1[:4] != vals2[:4] or vals1[5:] != vals2[5:]:
                return False
            if not math.isclose(vals1[4], vals2[4],
                                rel_tol=1e-9, abs_tol=1e-18):
                return False
        return True

    def _apply_counter_delta(self, delta: Any, n: int) -> None:
        sim = self.sim
        per_rank, glob, chan, delivered = delta
        for rank, (d_sends, d_recv, d_bs, d_br, d_ct, d_si, d_del) in per_rank.items():
            proc = sim.ranks[rank]
            rstats = proc.rstats
            rstats.sends += n * d_sends
            rstats.receives += n * d_recv
            rstats.bytes_sent += n * d_bs
            rstats.bytes_received += n * d_br
            rstats.compute_time += n * d_ct
            proc.sends_initiated += n * d_si
            proc.deliveries += n * d_del
        sim.stats.app_messages += n * glob[0]
        sim.stats.app_bytes += n * glob[1]
        volumes = sim.trace.channel_volumes
        for ch, (d_count, d_bytes) in chan.items():
            entry = volumes.setdefault(ch, [0, 0])
            entry[0] += n * d_count
            entry[1] += n * d_bytes
        counts = sim.trace.delivered_counts
        for rank, d_count in delivered.items():
            if d_count:
                counts[rank] = counts.get(rank, 0) + n * d_count

    def _batch_intervals(self, cur: int, batch_end: int, model: RateModel,
                         anchors: Dict[int, float], b0: int,
                         deltas: Tuple[Any, Any], stride: int = 1) -> int:
        """Extrapolate verified deltas interval by interval up to
        ``batch_end``, taking each coordinated checkpoint for real.

        ``stride`` is the iteration granularity the verified delta covers
        (1 for the classic per-iteration probe, 2 for a pair delta); every
        chunk is extrapolated in whole strides, and a chunk that is not a
        stride multiple ends the batch early -- the per-message tail picks
        up from there.
        """
        sim = self.sim
        protocol = sim.protocol
        app = sim.application
        k = self._interval
        d_proto, d_sim = deltas
        injector = sim.failure_injector
        t_strike = injector.next_timed_failure_time() if injector else None
        states = {rank: sim.ranks[rank].app_state for rank in anchors}
        clusters = (
            sorted({protocol.cluster_of(r) for r in anchors}) if k else []
        )
        while cur < batch_end:
            nxt = min(batch_end, ((cur // k) + 1) * k) if k else batch_end
            n = nxt - cur
            units, rem = divmod(n, stride)
            if rem:
                return cur
            if not app.fast_forward_states(states, cur, n):
                raise SimulationError(
                    f"workload {app.name!r} refused a batched state advance "
                    f"({cur}..{nxt}) after declaring ff_bulk_compatible"
                )
            protocol.ff_epoch_apply(d_proto, units)
            self._apply_counter_delta(d_sim, units)
            self.stats["batched_iterations"] += n * len(anchors)
            for rank in anchors:
                sim.ranks[rank].completed_iterations = nxt
            if k and nxt % k == 0:
                control = sim.control
                control.begin_buffering()
                try:
                    def time_of(member: int, _nxt: int = nxt) -> float:
                        return model.project(member, anchors[member], b0, _nxt)
                    for cluster in clusters:
                        protocol.fast_forward_cluster_checkpoint(
                            cluster, nxt, states, time_of
                        )
                finally:
                    control.flush(t_strike)
                self._drain_scheduled(t_strike)
            cur = nxt
        return cur

    def _drive_iterations(self, b: int, e: int, model: RateModel,
                          anchors: Dict[int, float],
                          start: Optional[int] = None) -> None:
        """Run iterations ``b..e-1`` of every rank synchronously.

        Each rank free-runs through its iterations (a finished iteration
        immediately starts the next one), blocking only when a receive has no
        matching message yet; a sender's delivery wakes the blocked receiver.
        Rank order is deterministic (ascending rank, FIFO wake order), so two
        runs of the same epoch are identical.
        """
        sim = self.sim
        protocol = sim.protocol
        interval = self._interval if self._clustered else 0
        injector = sim.failure_injector
        t_strike = injector.next_timed_failure_time() if injector else None
        clock = self._ff_clock
        clock.clear()
        blocked = self._ff_blocked
        blocked.clear()
        runnable = self._ff_runnable
        runnable.clear()
        gens: Dict[int, Any] = {}
        counts: Dict[int, int] = {}
        pending: Set[int] = set()
        #: (cluster_id, iteration) -> ranks waiting at the coordinated
        #: checkpoint barrier.  The exact-mode checkpoint is a cluster
        #: barrier; without it a free-running rank could send intra-cluster
        #: messages past a peer's checkpoint boundary, which the protocol's
        #: channel-quiescence invariant rightly rejects.
        barriers: Dict[Tuple[int, int], Set[int]] = {}
        #: iteration -> clusters already checkpointed at that boundary; the
        #: control traffic a boundary fires (log-GC acks) is drained only
        #: once the *last* cluster passed it, matching exact mode where all
        #: clusters snapshot before any ack lands.
        boundary_done: Dict[int, int] = {}
        n_clusters = len({protocol.cluster_of(r) for r in anchors}) if interval else 0
        #: first iteration count to drive; ``anchors``/``b`` stay the clock
        #: projection base even when a batched prefix advanced past them.
        first = b if start is None else start
        for rank in sorted(anchors):
            counts[rank] = first
            clock[rank] = (
                anchors[rank] if first == b
                else model.project(rank, anchors[rank], b, first)
            )
            gens[rank] = self._start_iteration(rank, first)
            runnable.append(rank)
            pending.add(rank)

        def _resume(rank: int, it: int) -> bool:
            """Move a rank past completion count ``it``; True to keep stepping."""
            if it >= e:
                pending.discard(rank)
                return False
            clock[rank] = model.project(rank, anchors[rank], b, it)
            gens[rank] = self._start_iteration(rank, it)
            return True

        while pending:
            if not runnable:
                waiting = ", ".join(
                    f"rank {r} in iteration {counts[r]}" for r in sorted(pending)
                )
                raise SimulationError(
                    f"fast-forward deadlock: {waiting} wait on messages no "
                    "peer will send before the epoch boundary"
                )
            rank = runnable.popleft()
            if rank not in pending:
                continue
            gen = gens[rank]
            while True:
                try:
                    token = next(gen)
                except StopIteration:
                    it = counts[rank] + 1
                    counts[rank] = it
                    proc = sim.ranks[rank]
                    proc.completed_iterations = it
                    if interval and it % interval == 0:
                        cluster = protocol.cluster_of(rank)
                        key = (cluster, it)
                        group = barriers.setdefault(key, set())
                        group.add(rank)
                        if len(group) < len(protocol.members(cluster)):
                            # Parked at the coordinated-checkpoint barrier
                            # (neither runnable nor message-blocked).
                            break
                        del barriers[key]
                        for member in sorted(group):
                            protocol.fast_forward_checkpoint(
                                member, it, sim.ranks[member].app_state,
                                model.project(member, anchors[member], b, it),
                            )
                        # Execute the boundary's control traffic (log-GC
                        # acks) before anyone reaches the *next* boundary:
                        # exact mode prunes sender logs between checkpoints,
                        # and checkpoint sizes include the live log, so
                        # deferring the acks to the epoch edge would inflate
                        # every later checkpoint of the epoch.
                        boundary_done[it] = boundary_done.get(it, 0) + 1
                        if boundary_done[it] == n_clusters:
                            del boundary_done[it]
                            self._drain_scheduled(t_strike)
                        for member in sorted(group):
                            if member != rank and _resume(member, it):
                                runnable.append(member)
                        if _resume(rank, it):
                            gen = gens[rank]
                            continue
                        break
                    if _resume(rank, it):
                        gen = gens[rank]
                        continue
                    break
                except _FFUnsupported as exc:
                    raise SimulationError(
                        f"rank {rank}: {exc} cannot be fast-forwarded; declare "
                        f"the workload ff_compatible = False"
                    ) from exc
                if token is _FF_WAIT:
                    blocked.add(rank)
                    break
                raise SimulationError(
                    f"rank {rank} yielded {token!r} during fast-forward; only "
                    "fast-forward-safe communicator calls are allowed"
                )

    def _start_iteration(self, rank: int, it: int) -> Iterator[Any]:
        proc = self.sim.ranks[rank]
        comm = self._ffcomms[rank]
        comm._collective_seq = 0
        proc.current_iteration = it
        return self.sim.application.iteration(comm, rank, proc.app_state, it)

    def _wake(self, rank: int) -> None:
        if rank in self._ff_blocked:
            self._ff_blocked.discard(rank)
            self._ff_runnable.append(rank)

    def ff_send(self, proc: "RankProcess", dest: int, payload: Any, tag: int,
                size_bytes: int) -> SendRequest:
        """Synchronous message transmission during a fast-forwarded epoch.

        Mirrors :meth:`Simulation._attempt_send` byte for byte on the
        accounting side (protocol hooks when the protocol declares them
        stateful, trace records, per-rank and global counters) but delivers
        straight into the destination's matching machinery instead of the
        transport, and completes the send request immediately.
        """
        sim = self.sim
        message = Message(
            source=proc.rank,
            dest=dest,
            tag=tag,
            size_bytes=size_bytes,
            payload=payload,
            kind=MessageKind.APP,
        )
        now = self._ff_clock[proc.rank]
        suppressed = False
        if self._send_hook:
            decision = sim.protocol.on_app_send(proc.rank, message)
            if decision.action is not SendAction.SEND:
                raise SimulationError(
                    f"protocol {sim.protocol.name!r} tried to "
                    f"{decision.action.value} a send during fast-forward; "
                    "failure-free epochs must be SEND-only"
                )
            if not sim.protocol.on_message_arrival(dest, message):
                suppressed = True
        proc.sends_initiated += 1
        sim.trace.record_send(message, now)
        rstats = proc.rstats
        rstats.sends += 1
        rstats.bytes_sent += message.size_bytes
        sim.stats.app_messages += 1
        sim.stats.app_bytes += message.size_bytes
        if suppressed:
            sim.stats.extra["suppressed_duplicates"] = (
                sim.stats.extra.get("suppressed_duplicates", 0) + 1
            )
        else:
            sim.ranks[dest].deliver_message(message)
            self._wake(dest)
        request = SendRequest(proc.rank, message)
        request._complete(None, now)
        return request
