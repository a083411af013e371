"""Per-layer spans for the traced benchmark run.

A :class:`Tracer` replaces the public entry points of each simulator layer
(:data:`SPANS`) with timing wrappers for as long as it is active, and puts
every original attribute back when it exits.  Nothing inside ``src/`` is
changed or instrumented permanently, and an untraced run never constructs
a tracer.

Each wrapper records one span: its duration, and its *self* time -- the
duration minus the time covered by the spans it encloses.  Self times of
all spans add up to the time spent inside root spans, so the traced wall
time splits exactly into per-layer self times plus the time no span
covered (``tracing.unattributed_s``).

Some work has no public entry point and lands in the self time of the
span that encloses it.  Rank-generator stepping is the large case: the
engine dispatches rank steps, so their time is part of ``engine.self_s``.

A call into an op while a span of the same op is innermost (``super()``
chains, ``jsonify`` recursion) joins that span instead of opening another,
so every op is counted once per outermost call.

Counts are taken at the same boundaries: call counts, bytes from the
arguments or return values, and -- through a count-only hook on
:meth:`Simulation.run` that opens no span -- the per-run protocol and
hybrid counters of each finished simulation.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
from typing import Any, Callable, Dict, Iterator, List, Tuple

from ledger.clock import now

#: (layer, module, attribute path) of every span.  A class method is also
#: wrapped in each loaded subclass that overrides it.
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("engine", "repro.simulator.engine", "SimulationEngine.run"),
    ("transport", "repro.simulator.channel", "Transport.transmit"),
    ("matching", "repro.simulator.process", "RankProcess.deliver_message"),
    ("matching", "repro.simulator.process", "RankProcess.post_receive"),
    ("protocol", "repro.simulator.protocol_api", "ProtocolHooks.on_app_send"),
    ("protocol", "repro.simulator.protocol_api", "ProtocolHooks.on_message_arrival"),
    ("protocol", "repro.simulator.protocol_api", "ProtocolHooks.on_iteration_boundary"),
    ("protocol", "repro.simulator.protocol_api", "ProtocolHooks.ff_epoch_snapshot"),
    ("protocol", "repro.simulator.protocol_api", "ProtocolHooks.ff_epoch_delta"),
    ("protocol", "repro.simulator.protocol_api", "ProtocolHooks.ff_epoch_apply"),
    ("checkpoint", "repro.simulator.stable_storage", "StableStorage.save"),
    ("checkpoint", "repro.simulator.stable_storage", "CheckpointRecord.restore_app_state"),
    ("recovery", "repro.simulator.simulation", "Simulation.kill_ranks"),
    ("recovery", "repro.simulator.simulation", "Simulation.restart_rank"),
    ("recovery", "repro.simulator.simulation", "Simulation.replay_message"),
    ("recovery", "repro.ftprotocols.base", "ClusteredProtocolBase.rollback_clusters"),
    ("recovery", "repro.core.recovery_process", "RecoveryOrchestrator.handle"),
    ("simtrace", "repro.simulator.trace", "TraceRecorder.record_send"),
    ("simtrace", "repro.simulator.trace", "TraceRecorder.record_delivery"),
    ("hybrid", "repro.simulator.hybrid", "HybridDirector.run"),
    ("hybrid", "repro.simulator.calibration", "CalibrationCache.get"),
    ("hybrid", "repro.simulator.calibration", "CalibrationCache.put"),
    ("scenarios", "repro.scenarios.build", "build"),
    ("campaign", "repro.campaign.runner", "run_spec"),
    ("campaign", "repro.scenarios.spec", "ScenarioSpec.spec_hash"),
    ("campaign", "repro.campaign.jobs", "jsonify"),
    ("campaign", "repro.campaign.store", "ResultsStore.save"),
    ("campaign", "repro.campaign.store", "ResultsStore.get"),
    ("campaign", "repro.campaign.store", "ResultsStore.put"),
    ("campaign", "repro.results.query", "ResultSet.from_store"),
    ("schedexplore", "repro.schedexplore.policies", "SchedulePolicy.choose"),
    ("schedexplore", "repro.schedexplore.fingerprint", "state_digest"),
    ("schedexplore", "repro.schedexplore.fingerprint", "stable_digest"),
    ("schedexplore", "repro.schedexplore.fingerprint", "fingerprint_value"),
    ("schedexplore", "repro.schedexplore.explorer", "run_interleaving"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in SPANS))
LAYER_OF: Dict[str, str] = {op: layer for layer, _, op in SPANS}

#: the count-only hook: no span, counters of each finished simulation.
RUN_HOOK = ("repro.simulator.simulation", "Simulation.run")

#: modules loaded before installing, so every protocol subclass is wrapped.
_PRELOAD = ("repro.ftprotocols.registry",)

#: module-name prefixes scanned for by-name imports of wrapped functions.
_SCANNED_PREFIXES = ("repro", "ledger")


Counts = Dict[str, float]
Args = Tuple[Any, ...]


def _engine_before(args: Args) -> int:
    return int(args[0].events_processed)


def _engine_after(counts: Counts, before: Any, args: Args, result: Any) -> None:
    counts["engine.events"] += args[0].events_processed - before


def _transmit_after(counts: Counts, before: Any, args: Args, result: Any) -> None:
    counts["transport.bytes"] += args[1].total_bytes


def _save_after(counts: Counts, before: Any, args: Args, result: Any) -> None:
    counts["checkpoint.bytes"] += result.size_bytes


def _calibration_get_after(counts: Counts, before: Any, args: Args, result: Any) -> None:
    counts["hybrid.calibration_misses" if result is None else "hybrid.calibration_hits"] += 1


def _store_get_after(counts: Counts, before: Any, args: Args, result: Any) -> None:
    if result is not None:
        counts["campaign.cache_hits"] += 1


def _store_save_after(counts: Counts, before: Any, args: Args, result: Any) -> None:
    path = args[0].path
    if path is not None:
        counts["campaign.store_bytes"] += os.path.getsize(path)


def _run_after(counts: Counts, before: Any, args: Args, result: Any) -> None:
    metrics = result.metrics
    counts["protocol.logged_messages"] += metrics.get("protocol.logged_messages", 0)
    counts["protocol.piggyback_bytes"] += metrics.get("protocol.piggyback_bytes", 0)
    counts["recovery.deferred_fires"] += metrics.get("sim.injector.deferred_fires", 0)
    if metrics.get("sim.hybrid.enabled") is None:
        return
    sim = args[0]
    counts["hybrid.rank_iterations"] += sim.nprocs * int(sim.application.num_iterations)
    for key in ("ff_iterations", "batched_iterations", "warmup_iterations"):
        counts[f"hybrid.{key}"] += metrics.get(f"sim.hybrid.{key}", 0)
    counts["hybrid.fallbacks"] += metrics.get("sim.hybrid.fallback", 0)


#: op -> counter hook run after the call, outside the span's time.
_AFTER: Dict[str, Callable[[Counts, Any, Args, Any], None]] = {
    "SimulationEngine.run": _engine_after,
    "Transport.transmit": _transmit_after,
    "StableStorage.save": _save_after,
    "CalibrationCache.get": _calibration_get_after,
    "ResultsStore.get": _store_get_after,
    "ResultsStore.save": _store_save_after,
    "Simulation.run": _run_after,
}
#: op -> hook run before the call; its value is passed to the after hook.
_BEFORE: Dict[str, Callable[[Args], Any]] = {
    "SimulationEngine.run": _engine_before,
}

COUNT_KEYS = (
    "engine.events",
    "transport.bytes",
    "checkpoint.bytes",
    "hybrid.calibration_hits",
    "hybrid.calibration_misses",
    "campaign.cache_hits",
    "campaign.store_bytes",
    "protocol.logged_messages",
    "protocol.piggyback_bytes",
    "recovery.deferred_fires",
    "hybrid.rank_iterations",
    "hybrid.ff_iterations",
    "hybrid.batched_iterations",
    "hybrid.warmup_iterations",
    "hybrid.fallbacks",
)


def _holders(function: Any, name: str) -> List[Any]:
    """The ``repro`` and ``ledger`` modules that hold ``function`` as ``name``."""
    return [
        module for module in list(sys.modules.values())
        if getattr(module, "__name__", "").startswith(_SCANNED_PREFIXES)
        and vars(module).get(name) is function
    ]


def _subclasses(cls: type) -> List[type]:
    found: List[type] = []
    pending = list(cls.__subclasses__())
    while pending:
        sub = pending.pop()
        if sub not in found:
            found.append(sub)
            pending.extend(sub.__subclasses__())
    return sorted(found, key=lambda c: (c.__module__, c.__qualname__))


def _targets() -> Iterator[Tuple[Any, str, Any, str, bool]]:
    """``(owner, attribute, current value, op, opens a span)`` of every target.

    A module function is a target in every module that holds it; a method
    is a target in its class and in every loaded subclass overriding it.
    """
    for module_name in _PRELOAD:
        importlib.import_module(module_name)
    hooks = [(module, path, True) for _, module, path in SPANS] + [(*RUN_HOOK, False)]
    for module_name, path, span in hooks:
        module = importlib.import_module(module_name)
        if "." not in path:
            function = getattr(module, path)
            for holder in _holders(function, path):
                yield holder, path, function, path, span
            continue
        class_name, attr = path.split(".")
        base = getattr(module, class_name)
        for cls in [base] + _subclasses(base):
            if attr in cls.__dict__:
                yield cls, attr, cls.__dict__[attr], path, span


def _label(owner: Any, attr: str) -> str:
    if isinstance(owner, type):
        return f"{owner.__module__}.{owner.__qualname__}.{attr}"
    return f"{owner.__name__}.{attr}"


def installed_originals() -> Dict[str, Any]:
    """The current value of every target, keyed by its dotted path.

    Used to check that a traced run restores everything and that an
    untraced run installs nothing.
    """
    return {_label(owner, attr): value for owner, attr, value, _, _ in _targets()}


class Tracer:
    """Context manager: spans installed on enter, originals restored on exit.

    After :meth:`collect`, ``calls[op]`` and ``self_s[op]`` hold each op's
    span count and self seconds (an op is an attribute path of
    :data:`SPANS`, e.g. ``"Transport.transmit"``); ``counts`` holds the
    counters of :data:`COUNT_KEYS`.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_s: Dict[str, float] = {}
        self.counts: Counts = {key: 0 for key in COUNT_KEYS}
        #: targets whose owner refused the wrapper (e.g. a compiled class).
        self.unwrapped: List[str] = []
        #: open spans, innermost last: [child seconds, op].
        self._stack: List[List[Any]] = []
        #: op -> [spans, self seconds].
        self._stats: Dict[str, List[Any]] = {op: [0, 0.0] for _, _, op in SPANS}
        self._restore: List[Tuple[Any, str, Any]] = []

    def __enter__(self) -> Tracer:
        if self._restore:
            raise RuntimeError("tracer already installed")
        wrappers: Dict[Any, Any] = {}
        try:
            for owner, attr, original, op, span in _targets():
                if original not in wrappers:
                    wrappers[original] = self._wrap(original, op, span)
                try:
                    setattr(owner, attr, wrappers[original])
                except (AttributeError, TypeError):
                    self.unwrapped.append(_label(owner, attr))
                    continue
                self._restore.append((owner, attr, original))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def collect(self) -> None:
        """Copy the span statistics into :attr:`calls` and :attr:`self_s`."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        self.calls = {op: int(stat[0]) for op, stat in self._stats.items()}
        self.self_s = {op: float(stat[1]) for op, stat in self._stats.items()}

    def layer_self_s(self) -> Dict[str, float]:
        totals = {layer: 0.0 for layer in LAYERS}
        for op, seconds in self.self_s.items():
            totals[LAYER_OF[op]] += seconds
        return totals

    # ------------------------------------------------------------ wrappers
    def _wrap(self, original: Any, op: str, span: bool) -> Any:
        if isinstance(original, classmethod):
            return classmethod(self._wrap(original.__func__, op, span))
        fn: Callable[..., Any] = original
        counts = self.counts
        before = _BEFORE.get(op)
        after = _AFTER.get(op)
        if not span:
            if after is None:
                raise ValueError(f"count-only hook {op} has no counter")

            @functools.wraps(fn)
            def counted(*args: Any, **kwargs: Any) -> Any:
                result = fn(*args, **kwargs)
                after(counts, None, args, result)
                return result

            return counted

        stack = self._stack
        stat = self._stats[op]

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            # ``op`` is the one string object of its SPANS entry, so an
            # identity test finds a super() or recursive call of the same op.
            if stack and stack[-1][1] is op:
                return fn(*args, **kwargs)
            state = before(args) if before is not None else None
            frame = [0.0, op]
            stack.append(frame)
            start = now()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                stack.pop()
                stat[0] += 1
                stat[1] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
            if after is not None:
                after(counts, state, args, result)
            return result

        return traced
