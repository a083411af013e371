"""The timed loop, output checks and metrics of one workload.

An untraced measurement repeats :meth:`Workload.run_pass` until the next
pass would overrun the time budget (at least two passes).  Untraced passes
run under a :class:`ledger.refspeed.Sampler`, which times a host-speed
reference chunk every 0.1 s; the bounded time metrics are scaled by the
nearby chunks to the nominal host speed, and the raw host times are
reported beside them.  A traced measurement alternates an untraced and a
traced pass (at least one pair) and reports per-layer metrics from the
traced passes; the untraced passes give the tracing overhead and the
digest the traced ones must match.

Every pass is checked: its output digest must equal the first pass's, a
traced pass must give the untraced digest, per-layer counts must repeat
exactly across traced passes, and a schedule-explore divergence fails the
run.  A failed check is a *problem*: the run reports ``correct: false``
and exits non-zero.
"""

from __future__ import annotations

import hashlib
import json
import resource
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ledger import refspeed
from ledger.clock import now
from ledger.spans import LAYERS, Tracer
from ledger.workloads import PassResult, Workload

#: end-to-end metrics: name -> unit.  Times are scaled to the nominal host
#: speed of :mod:`ledger.refspeed`.
END_TO_END = {
    "setup_s": "s",
    "norm_sims_per_s": "1/s",
    "norm_sim_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

#: raw host times and the host's median slowdown, printed but not bounded.
RAW = {
    "sims_per_s": "1/s",
    "sim_wall_p50_ms": "ms",
    "host_slowdown": "ratio",
    "setup_raw_s": "s",
}

#: per-layer metrics of the traced run: name -> unit.
PER_LAYER = {
    "engine.events": "count",
    "engine.self_s": "s",
    "engine.events_per_s": "1/s",
    "transport.messages": "count",
    "transport.bytes": "B",
    "transport.self_s": "s",
    "matching.deliveries": "count",
    "matching.recvs_posted": "count",
    "matching.self_s": "s",
    "protocol.send_hooks": "count",
    "protocol.arrival_hooks": "count",
    "protocol.boundary_hooks": "count",
    "protocol.logged_messages": "count",
    "protocol.piggyback_bytes": "B",
    "protocol.self_s": "s",
    "protocol.ff_epoch_calls": "count",
    "protocol.ff_epoch_s": "s",
    "checkpoint.saves": "count",
    "checkpoint.restores": "count",
    "checkpoint.bytes": "B",
    "checkpoint.self_s": "s",
    "recovery.failures": "count",
    "recovery.ranks_rolled_back": "count",
    "recovery.replayed_messages": "count",
    "recovery.deferred_fires": "count",
    "recovery.deadlocks": "count",
    "recovery.self_s": "s",
    "simtrace.records": "count",
    "simtrace.self_s": "s",
    "hybrid.ff_iterations": "count",
    "hybrid.batched_iterations": "count",
    "hybrid.warmup_iterations": "count",
    "hybrid.ff_ratio": "ratio",
    "hybrid.fallbacks": "count",
    "hybrid.calibration_hits": "count",
    "hybrid.calibration_misses": "count",
    "hybrid.self_s": "s",
    "scenarios.builds": "count",
    "scenarios.build_s": "s",
    "campaign.records": "count",
    "campaign.cache_hits": "count",
    "campaign.spec_hash_s": "s",
    "campaign.jsonify_s": "s",
    "campaign.store_saves": "count",
    "campaign.store_save_s": "s",
    "campaign.store_bytes": "B",
    "campaign.cached_pass_s": "s",
    "campaign.overhead_per_record_ms": "ms",
    "campaign.self_s": "s",
    "schedexplore.interleavings": "count",
    "schedexplore.tie_choices": "count",
    "schedexplore.choose_s": "s",
    "schedexplore.fingerprints": "count",
    "schedexplore.fingerprint_s": "s",
    "schedexplore.divergences": "count",
    "schedexplore.self_s": "s",
    "tracing.overhead_ratio": "ratio",
    "tracing.unattributed_s": "s",
}

#: the self-time metric of each layer; with tracing.unattributed_s they
#: add up to the traced wall time of a pass.
SELF_TIME = {layer: f"{layer}.self_s" for layer in LAYERS}
SELF_TIME["scenarios"] = "scenarios.build_s"

#: a simulation latency percentile is reported only with this many samples.
P90_MIN_SAMPLES = 100


def digest(content: List[Any]) -> str:
    """SHA-256 over the canonical JSON of a pass's simulated content."""
    text = json.dumps(content, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def peak_rss_mb() -> float:
    """Peak resident memory of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Measurement:
    """Everything one workload measurement observed."""

    workload: str
    input_size: str
    traced: bool
    passes: int = 0
    sims: int = 0
    body_s: float = 0.0
    latencies_s: List[float] = field(default_factory=list)
    output_digest: Optional[str] = None
    #: (name, status) of the first pass's simulations that did not complete.
    failing: List[Tuple[str, str]] = field(default_factory=list)
    #: simulations per pass whose status is known.
    outcomes_per_pass: int = 0
    findings: List[str] = field(default_factory=list)
    #: failed checks; any entry makes the run incorrect.
    problems: List[str] = field(default_factory=list)
    untraced_pass_s: List[float] = field(default_factory=list)
    #: simulations per second of each untraced pass.
    pass_rates: List[float] = field(default_factory=list)
    #: host slowdown of each untraced pass (median reference chunk / nominal).
    slowdowns: List[float] = field(default_factory=list)
    #: simulations per second of each untraced pass at the nominal host speed.
    norm_pass_rates: List[float] = field(default_factory=list)
    #: latencies scaled to the nominal host speed.
    norm_latencies_s: List[float] = field(default_factory=list)
    traced_pass_s: List[float] = field(default_factory=list)
    #: per-layer metrics per traced pass (traced runs only).
    layers: Dict[str, float] = field(default_factory=dict)
    unwrapped: List[str] = field(default_factory=list)

    # ------------------------------------------------------------- metrics
    @property
    def failed_ratio(self) -> float:
        return len(self.failing) / self.outcomes_per_pass if self.outcomes_per_pass else 0.0

    def end_to_end(self, setup_s: float) -> Dict[str, float]:
        return {
            "setup_s": setup_s,
            # Every pass runs the same simulations, so the median pass
            # throughput is the run's throughput without the host's slow spells.
            "norm_sims_per_s": statistics.median(self.norm_pass_rates),
            "norm_sim_p50_ms": statistics.median(self.norm_latencies_s) * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }

    def raw(self) -> Dict[str, float]:
        return {
            "sims_per_s": statistics.median(self.pass_rates),
            "sim_wall_p50_ms": statistics.median(self.latencies_s) * 1e3,
            "host_slowdown": statistics.median(self.slowdowns),
        }

    def sim_wall_p90_ms(self) -> Optional[float]:
        if len(self.latencies_s) < P90_MIN_SAMPLES:
            return None
        return statistics.quantiles(self.latencies_s, n=10)[8] * 1e3


def _check_pass(m: Measurement, result: PassResult, label: str) -> None:
    m.passes += 1
    m.sims += result.sims
    pass_digest = digest(result.content)
    if m.output_digest is None:
        m.output_digest = pass_digest
        m.outcomes_per_pass = len(result.outcomes)
        m.failing = sorted(
            (name, status) for name, status in result.outcomes if status != "completed"
        )
        m.findings = list(dict.fromkeys(result.findings))
    elif pass_digest != m.output_digest:
        m.problems.append(
            f"{label} {m.passes} digest {pass_digest[:16]} differs from the first "
            f"pass's {m.output_digest[:16]}: the simulated output is not repeatable"
        )
    m.problems.extend(f"divergence: {divergence}" for divergence in result.divergences)
    m.problems.extend(result.problems)


def _layer_metrics(tracer: Tracer, result: PassResult, wall_s: float) -> Dict[str, float]:
    calls, self_s, counts = tracer.calls, tracer.self_s, tracer.counts

    def sum_calls(*ops: str) -> float:
        return float(sum(calls[op] for op in ops))

    def sum_self(*ops: str) -> float:
        return sum(self_s[op] for op in ops)

    layer_self = tracer.layer_self_s()
    ff_ops = (
        "ProtocolHooks.ff_epoch_snapshot",
        "ProtocolHooks.ff_epoch_delta",
        "ProtocolHooks.ff_epoch_apply",
    )
    fingerprint_ops = ("state_digest", "stable_digest", "fingerprint_value")
    records = sum_calls("run_spec")
    out = {
        "engine.events": counts["engine.events"],
        "engine.self_s": layer_self["engine"],
        "engine.events_per_s": (
            counts["engine.events"] / layer_self["engine"] if layer_self["engine"] else 0.0
        ),
        "transport.messages": sum_calls("Transport.transmit"),
        "transport.bytes": counts["transport.bytes"],
        "transport.self_s": layer_self["transport"],
        "matching.deliveries": sum_calls("RankProcess.deliver_message"),
        "matching.recvs_posted": sum_calls("RankProcess.post_receive"),
        "matching.self_s": layer_self["matching"],
        "protocol.send_hooks": sum_calls("ProtocolHooks.on_app_send"),
        "protocol.arrival_hooks": sum_calls("ProtocolHooks.on_message_arrival"),
        "protocol.boundary_hooks": sum_calls("ProtocolHooks.on_iteration_boundary"),
        "protocol.logged_messages": counts["protocol.logged_messages"],
        "protocol.piggyback_bytes": counts["protocol.piggyback_bytes"],
        "protocol.self_s": layer_self["protocol"],
        "protocol.ff_epoch_calls": sum_calls(*ff_ops),
        "protocol.ff_epoch_s": sum_self(*ff_ops),
        "checkpoint.saves": sum_calls("StableStorage.save"),
        "checkpoint.restores": sum_calls("CheckpointRecord.restore_app_state"),
        "checkpoint.bytes": counts["checkpoint.bytes"],
        "checkpoint.self_s": layer_self["checkpoint"],
        "recovery.failures": sum_calls("Simulation.kill_ranks"),
        "recovery.ranks_rolled_back": sum_calls("Simulation.restart_rank"),
        "recovery.replayed_messages": sum_calls("Simulation.replay_message"),
        "recovery.deferred_fires": counts["recovery.deferred_fires"],
        "recovery.deadlocks": float(
            sum(1 for _name, status in result.outcomes if status == "deadlock")
        ),
        "recovery.self_s": layer_self["recovery"],
        "simtrace.records": sum_calls("TraceRecorder.record_send", "TraceRecorder.record_delivery"),
        "simtrace.self_s": layer_self["simtrace"],
        "hybrid.ff_iterations": counts["hybrid.ff_iterations"],
        "hybrid.batched_iterations": counts["hybrid.batched_iterations"],
        "hybrid.warmup_iterations": counts["hybrid.warmup_iterations"],
        "hybrid.ff_ratio": (
            counts["hybrid.ff_iterations"] / counts["hybrid.rank_iterations"]
            if counts["hybrid.rank_iterations"] else 0.0
        ),
        "hybrid.fallbacks": counts["hybrid.fallbacks"],
        "hybrid.calibration_hits": counts["hybrid.calibration_hits"],
        "hybrid.calibration_misses": counts["hybrid.calibration_misses"],
        "hybrid.self_s": layer_self["hybrid"],
        "scenarios.builds": sum_calls("build"),
        "scenarios.build_s": layer_self["scenarios"],
        "campaign.records": records,
        "campaign.cache_hits": counts["campaign.cache_hits"],
        "campaign.spec_hash_s": sum_self("ScenarioSpec.spec_hash"),
        "campaign.jsonify_s": sum_self("jsonify"),
        "campaign.store_saves": sum_calls("ResultsStore.save"),
        "campaign.store_save_s": sum_self("ResultsStore.save"),
        "campaign.store_bytes": counts["campaign.store_bytes"],
        "campaign.cached_pass_s": result.cached_pass_s,
        "campaign.overhead_per_record_ms": (
            layer_self["campaign"] / records * 1e3 if records else 0.0
        ),
        "campaign.self_s": layer_self["campaign"],
        "schedexplore.interleavings": sum_calls("run_interleaving"),
        "schedexplore.tie_choices": sum_calls("SchedulePolicy.choose"),
        "schedexplore.choose_s": sum_self("SchedulePolicy.choose"),
        "schedexplore.fingerprints": sum_calls(*fingerprint_ops),
        "schedexplore.fingerprint_s": sum_self(*fingerprint_ops),
        "schedexplore.divergences": float(len(result.divergences)),
        "schedexplore.self_s": layer_self["schedexplore"],
        "tracing.unattributed_s": wall_s - sum(layer_self.values()),
    }
    return out


def _is_count(name: str) -> bool:
    return PER_LAYER[name] in ("count", "B")


def measure(workload: Workload, seconds: float, traced: bool) -> Measurement:
    """Run ``workload`` for about ``seconds`` and check every pass."""
    m = Measurement(workload=workload.name, input_size=workload.input_size(), traced=traced)
    per_pass: List[Dict[str, float]] = []
    started = now()
    try:
        while True:
            with refspeed.Sampler() as sampler:
                start = now()
                result = workload.run_pass()
                end = now()
            cycle = now() - start
            # The reference chunks are not part of the program's time.
            wall = sampler.program_s(start, end)
            m.untraced_pass_s.append(wall)
            m.pass_rates.append(result.sims / wall)
            m.slowdowns.append(sampler.slowdown)
            m.norm_pass_rates.append(result.sims / sampler.nominal_s(start, end))
            m.body_s += wall
            for a, b, sims in result.timed:
                m.latencies_s.append(sampler.program_s(a, b) / sims)
                m.norm_latencies_s.append(sampler.nominal_s(a, b) / sims)
            _check_pass(m, result, "pass")
            if traced:
                with Tracer() as tracer:
                    start = now()
                    result = workload.run_pass()
                    wall = now() - start
                    tracer.collect()
                m.unwrapped = list(tracer.unwrapped)
                m.traced_pass_s.append(wall)
                cycle += wall
                _check_pass(m, result, "traced pass")
                per_pass.append(_layer_metrics(tracer, result, wall))
            if m.passes >= 2 and now() - started + cycle > seconds:
                break
    finally:
        workload.close()
    if traced:
        _summarise_traced(m, per_pass)
    return m


def _summarise_traced(m: Measurement, per_pass: List[Dict[str, float]]) -> None:
    """Counts of the first traced pass (all must agree), mean times per pass."""
    first = per_pass[0]
    for later in per_pass[1:]:
        changed = [name for name in first if _is_count(name) and later[name] != first[name]]
        if changed:
            m.problems.append(f"per-layer counts changed between traced passes: {changed}")
    m.layers = {
        name: first[name] if _is_count(name) else statistics.mean(p[name] for p in per_pass)
        for name in first
    }
    m.layers["tracing.overhead_ratio"] = (
        statistics.median(m.traced_pass_s) / statistics.median(m.untraced_pass_s) - 1.0
    )
