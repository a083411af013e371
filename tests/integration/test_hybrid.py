"""Integration tests of the hybrid execution mode (simulator.hybrid).

The fast path fast-forwards failure-free epochs analytically and drops to
full discrete-event execution only in a guard window around each failure.
These tests pin its accuracy contract against exact execution:

* application/protocol byte counters are **identical** (not approximately
  equal) in every fault scenario;
* makespan and compute time stay within the 1% acceptance band (measured
  drift is orders of magnitude smaller);
* recovery traffic inside a guard window is byte-identical once event
  timestamps and message ids -- which the fast-forward legitimately shifts
  -- are normalised away;
* specs that do not opt into the mode hash exactly as before, and every
  unsupported configuration falls back to exact execution rather than
  degrading accuracy.

The one deliberate divergence: ``protocol.gc_reclaimed_bytes``.  Exact
runs stop the event loop the moment the last rank finishes, dropping
whichever garbage-collection acknowledgements are still in flight;
fast-forwarded epochs drain those acks deterministically, so the hybrid
counter reports the quiescent value (always >= exact), but the total
bytes accounted for (reclaimed + still-buffered) match exactly.
"""

import dataclasses

import pytest

from repro.scenarios.build import build
from repro.scenarios.spec import (
    ClusteringSpec,
    FailureSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
)

ITERATIONS = 120
INTERVAL = 8


def scenario(failures=(), iterations=ITERATIONS, interval=INTERVAL, **spec_kwargs):
    return ScenarioSpec(
        name="hybrid-it",
        workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=iterations),
        protocol=ProtocolSpec(
            name="hydee",
            clustering=ClusteringSpec(method="block", num_clusters=4),
            options={
                "checkpoint_interval": interval,
                "checkpoint_size_bytes": 65536,
            },
        ),
        failures=list(failures),
        **spec_kwargs,
    )


def run_both(spec):
    exact_sim = build(spec)
    exact = exact_sim.run()
    hybrid_sim = build(dataclasses.replace(spec, execution="hybrid"))
    hybrid = hybrid_sim.run()
    return (exact_sim, exact), (hybrid_sim, hybrid)


def log_byte_balance(sim):
    protocol = sim.protocol
    buffered = sum(state.log.current_bytes for state in protocol.states.values())
    phantom = sum(
        sum(dests.values()) for dests in protocol._ff_phantom_log.values()
    )
    return (
        sim.stats.logged_bytes
        - protocol.pstats.gc_reclaimed_bytes
        - buffered
        - phantom
    )


FAULT_SCENARIOS = {
    "free": [],
    "timed": [FailureSpec(ranks=(5,), time=0.004)],
    "iteration-triggered": [FailureSpec(ranks=(9,), at_iteration=80)],
    "two-strikes": [
        FailureSpec(ranks=(3,), time=0.003),
        FailureSpec(ranks=(12,), at_iteration=90),
    ],
}


class TestHybridParity:
    @pytest.mark.parametrize("label", sorted(FAULT_SCENARIOS))
    def test_counters_identical_and_makespan_within_band(self, label):
        (exact_sim, exact), (hybrid_sim, hybrid) = run_both(
            scenario(FAULT_SCENARIOS[label])
        )
        assert exact.status == hybrid.status == "completed"
        assert hybrid_sim.hybrid_stats["enabled"] == 1

        assert hybrid.stats.makespan == pytest.approx(exact.stats.makespan, rel=0.01)
        assert hybrid.stats.total_compute_time == pytest.approx(
            exact.stats.total_compute_time, rel=1e-9
        )

        # Volume counters are bit-exact, not merely close.
        for attr in (
            "app_messages",
            "app_bytes",
            "logged_messages",
            "logged_bytes",
            "checkpoints_taken",
            "checkpoint_bytes",
        ):
            assert getattr(hybrid.stats, attr) == getattr(exact.stats, attr), attr

        exact_pstats = exact_sim.protocol.pstats.as_dict()
        hybrid_pstats = hybrid_sim.protocol.pstats.as_dict()
        for key, value in exact_pstats.items():
            if key == "gc_reclaimed_bytes":
                continue
            assert hybrid_pstats[key] == value, f"pstats.{key}"

        # The documented divergence: hybrid drains in-flight gc acks that an
        # exact run drops at termination -- never the other way around.
        # Draining only moves bytes from still-buffered to reclaimed 1:1, so
        # the total both modes account for must match exactly.  (The balance
        # itself is 0 unless a rollback restores already-reclaimed entries,
        # which then count as reclaimed twice -- identically in both modes.)
        assert hybrid_pstats["gc_reclaimed_bytes"] >= exact_pstats["gc_reclaimed_bytes"]
        assert log_byte_balance(hybrid_sim) == log_byte_balance(exact_sim)

    def test_failure_free_run_batches_whole_intervals(self):
        (_, _), (hybrid_sim, _) = run_both(scenario())
        stats = hybrid_sim.hybrid_stats
        assert stats["enabled"] == 1
        assert stats["fallback"] == 0
        assert stats["batched_iterations"] > 0
        assert stats["ff_iterations"] >= stats["batched_iterations"]

    def test_dense_checkpointing_disables_batching_but_stays_exact(self):
        # interval=1 leaves no boundary-free probe window; the per-message
        # fast-forward must carry the epoch alone, bit-exactly.
        (exact_sim, exact), (hybrid_sim, hybrid) = run_both(
            scenario(FAULT_SCENARIOS["timed"], iterations=60, interval=1)
        )
        assert hybrid_sim.hybrid_stats["enabled"] == 1
        assert hybrid_sim.hybrid_stats["batched_iterations"] == 0
        assert hybrid.stats.makespan == pytest.approx(exact.stats.makespan, rel=1e-12)
        assert hybrid.stats.checkpoint_bytes == exact.stats.checkpoint_bytes


class TestGuardWindowTrace:
    def test_recovery_window_events_byte_identical_after_normalisation(self):
        spec = scenario(
            FAULT_SCENARIOS["iteration-triggered"],
            config={"record_trace_events": True},
        )
        (exact_sim, _), (hybrid_sim, _) = run_both(spec)

        def normalised_window(sim):
            report = sim.protocol.recovery_reports[0]
            t0, t1 = report["started_at"], report["completed_at"]
            return [
                (
                    rec.event,
                    rec.source,
                    rec.dest,
                    rec.tag,
                    rec.size_bytes,
                    rec.kind,
                    rec.replayed,
                    rec.inter_cluster,
                    rec.phase,
                    rec.date,
                )
                for rec in sim.trace.records
                if t0 <= rec.time <= t1
            ]

        exact_window = normalised_window(exact_sim)
        hybrid_window = normalised_window(hybrid_sim)
        assert len(exact_window) > 0
        assert hybrid_window == exact_window


class TestSpecHashStability:
    def test_exact_spec_hash_is_unchanged_by_the_execution_field(self):
        spec = scenario(FAULT_SCENARIOS["timed"])
        assert "execution" not in spec.to_dict()
        assert dataclasses.replace(spec, execution="exact").spec_hash() == spec.spec_hash()

    def test_hybrid_opt_in_re_keys_the_spec(self):
        spec = scenario()
        hybrid = dataclasses.replace(spec, execution="hybrid")
        assert hybrid.to_dict()["execution"] == "hybrid"
        assert hybrid.spec_hash() != spec.spec_hash()
        round_trip = ScenarioSpec.from_json(hybrid.to_json())
        assert round_trip.execution == "hybrid"
        assert round_trip.spec_hash() == hybrid.spec_hash()

    def test_config_override_can_force_exact_execution(self):
        spec = dataclasses.replace(
            scenario(), execution="hybrid", config={"execution": "exact"}
        )
        sim = build(spec)
        assert sim.config.execution == "exact"
        result = sim.run()
        assert result.status == "completed"
        assert sim.hybrid_stats is None


class TestFallbacks:
    def assert_fell_back(self, sim, result, reason_fragment):
        assert result.status == "completed"
        assert sim.hybrid_stats["fallback"] == 1
        assert sim.hybrid_stats["enabled"] == 0
        assert reason_fragment in sim.stats.extra["hybrid_fallback_reason"]

    def test_short_runs_fall_back_statically(self):
        spec = dataclasses.replace(scenario(iterations=4), execution="hybrid")
        sim = build(spec)
        result = sim.run()
        self.assert_fell_back(sim, result, "too few iterations")

    def test_strike_inside_warmup_falls_back(self):
        spec = dataclasses.replace(
            scenario([FailureSpec(ranks=(5,), at_iteration=2)]),
            execution="hybrid",
        )
        sim = build(spec)
        result = sim.run()
        self.assert_fell_back(sim, result, "warm-up")

    def test_non_send_deterministic_workload_falls_back(self):
        spec = dataclasses.replace(
            ScenarioSpec(
                name="hybrid-mw",
                workload=WorkloadSpec(
                    kind="master-worker", nprocs=8, iterations=ITERATIONS
                ),
                protocol=ProtocolSpec(
                    name="hydee",
                    clustering=ClusteringSpec(method="block", num_clusters=2),
                    options={
                        "checkpoint_interval": INTERVAL,
                        "enforce_send_determinism": False,
                    },
                ),
            ),
            execution="hybrid",
        )
        sim = build(spec)
        result = sim.run()
        self.assert_fell_back(sim, result, "master-worker")

    def test_fallback_matches_exact_execution_exactly(self):
        base = scenario(iterations=4)
        exact = build(base).run()
        hybrid = build(dataclasses.replace(base, execution="hybrid")).run()
        assert hybrid.stats.makespan == exact.stats.makespan
        assert hybrid.stats.app_messages == exact.stats.app_messages

    def test_event_tracing_disables_batching_only(self):
        spec = dataclasses.replace(
            scenario(config={"record_trace_events": True}), execution="hybrid"
        )
        sim = build(spec)
        result = sim.run()
        assert result.status == "completed"
        assert sim.hybrid_stats["enabled"] == 1
        assert sim.hybrid_stats["fallback"] == 0
        assert sim.hybrid_stats["batched_iterations"] == 0
        assert sim.hybrid_stats["ff_iterations"] > 0


class TestMonteCarloAggregates:
    def test_hybrid_campaign_matches_exact_aggregates_within_band(self):
        from repro.faults.montecarlo import run_montecarlo
        from repro.faults.spec import FaultModelSpec

        base = scenario()
        makespan = build(base).run().stats.makespan
        spec = dataclasses.replace(
            base,
            fault_model=FaultModelSpec(
                distribution="exponential",
                seed=11,
                params={"mtbf_s": makespan * 16 * 1.5},
                horizon_s=makespan,
                max_failures=2,
            ),
        )
        exact = run_montecarlo(spec, replicas=6, execution="exact")
        hybrid = run_montecarlo(spec, replicas=6, execution="hybrid")
        assert exact.completed_replicas == hybrid.completed_replicas == 6
        for path in ("faults.sim.makespan.mean", "faults.sim.total_compute_time.mean"):
            assert hybrid.metric(path) == pytest.approx(
                exact.metric(path), rel=0.01
            ), path
        assert hybrid.metric("faults.sim.app_bytes.mean") == exact.metric(
            "faults.sim.app_bytes.mean"
        )


class TestCalibrationCache:
    """Shared warm-up calibration (simulator.calibration).

    A cached rate model must be a pure fast path: replicas that read it
    skip the DES warm-up but stay bit-identical on every volume counter
    and keep the same makespan accuracy -- the per-epoch probes re-verify
    the model against real iterations regardless of where it came from.
    """

    def fault_model(self, makespan):
        from repro.faults.spec import FaultModelSpec

        return FaultModelSpec(
            distribution="exponential",
            seed=11,
            params={"mtbf_s": makespan * 16 * 1.5},
            horizon_s=makespan,
            max_failures=2,
        )

    def test_cached_model_skips_warmup_and_stays_bit_exact(self):
        from repro.simulator import calibration

        spec = dataclasses.replace(scenario(), execution="hybrid")
        exact = build(dataclasses.replace(spec, execution="exact")).run()
        cold_sim = build(spec)
        cold = cold_sim.run()
        assert cold_sim.hybrid_stats["calibration_cached"] == 0
        assert cold_sim.hybrid_calibration is not None

        cache = calibration.CalibrationCache()
        cache.put(spec.calibration_key(), cold_sim.hybrid_calibration)
        with calibration.activated(cache):
            warm_sim = build(spec)
            warm = warm_sim.run()
        assert warm_sim.hybrid_stats["calibration_cached"] == 1
        assert warm_sim.hybrid_stats["warmup_iterations"] == 0
        assert warm_sim.hybrid_stats["fallback"] == 0
        # The whole pre-model span is fast-forwarded instead of warmed up.
        assert warm_sim.hybrid_stats["des_iterations"] < cold_sim.hybrid_stats[
            "des_iterations"
        ]
        assert warm.stats.app_messages == exact.stats.app_messages
        assert warm.stats.app_bytes == exact.stats.app_bytes
        assert warm.stats.makespan == pytest.approx(exact.stats.makespan, rel=0.01)
        # Cold and warm replicas agree with each other far tighter than the
        # acceptance band: both timelines come from the same model.
        assert warm.stats.makespan == pytest.approx(cold.stats.makespan, rel=1e-9)

    def test_calibration_key_ignores_failures_but_not_timing_fields(self):
        base = scenario()
        assert (
            dataclasses.replace(base, execution="hybrid").calibration_key()
            == base.calibration_key()
        )
        assert (
            scenario(FAULT_SCENARIOS["timed"]).calibration_key()
            == base.calibration_key()
        )
        assert scenario(interval=4).calibration_key() != base.calibration_key()
        assert scenario(iterations=60).calibration_key() != base.calibration_key()

    def test_stale_entry_for_same_key_degrades_to_probe_guard(self):
        """A cache entry whose shape no longer matches the run is ignored."""
        from repro.simulator import calibration

        spec = dataclasses.replace(scenario(), execution="hybrid")
        cache = calibration.CalibrationCache()
        cache.put(spec.calibration_key(), {"model": {"bogus": 1}, "warmup": 2})
        with calibration.activated(cache):
            sim = build(spec)
            result = sim.run()
        assert result.status == "completed"
        assert sim.hybrid_stats["calibration_cached"] == 0
        assert sim.hybrid_stats["warmup_iterations"] > 0

    def test_flat_entry_for_a_periodic_run_is_rejected(self):
        """A flat model carrying the checkpoint interval -- what a build with
        an explicit warm-up stored -- has the right interval but the wrong
        model type for a periodic run, so it must not be projected."""
        from repro.simulator import calibration

        spec = dataclasses.replace(scenario(), execution="hybrid")
        cold_sim = build(spec)
        cold_sim.run()
        entry = dict(cold_sim.hybrid_calibration)
        model = dict(entry["model"])
        assert model["interval"] == INTERVAL and model["phases"] is not None
        model["phases"] = None
        entry["model"] = model
        cache = calibration.CalibrationCache()
        cache.put(spec.calibration_key(), entry)
        with calibration.activated(cache):
            sim = build(spec)
            result = sim.run()
        assert result.status == "completed"
        assert sim.hybrid_stats["calibration_cached"] == 0
        assert sim.hybrid_stats["warmup_iterations"] > 0

    def test_phase_entry_for_a_non_periodic_run_is_rejected(self):
        """A run without periodic checkpoints needs the flat model: a phase
        model cached under its key (same rank set) is not projected."""
        from repro.simulator import calibration

        periodic_sim = build(dataclasses.replace(scenario(), execution="hybrid"))
        periodic_sim.run()
        entry = periodic_sim.hybrid_calibration
        assert entry["model"]["phases"] is not None
        spec = dataclasses.replace(scenario(interval=None), execution="hybrid")
        cache = calibration.CalibrationCache()
        cache.put(spec.calibration_key(), entry)
        with calibration.activated(cache):
            sim = build(spec)
            result = sim.run()
        assert result.status == "completed"
        assert sim.hybrid_stats["calibration_cached"] == 0
        assert sim.hybrid_stats["warmup_iterations"] > 0

    @pytest.mark.parametrize("interval", [None, 1])
    def test_flat_entry_is_reused_by_a_non_periodic_run(self, interval):
        """The flat model (interval 0) fits every run without periodic
        checkpoints, including checkpoint interval 1."""
        from repro.simulator import calibration

        spec = dataclasses.replace(scenario(interval=interval), execution="hybrid")
        cold_sim = build(spec)
        cold = cold_sim.run()
        entry = cold_sim.hybrid_calibration
        assert entry["model"]["interval"] == 0
        assert entry["model"]["phases"] is None
        cache = calibration.CalibrationCache()
        cache.put(spec.calibration_key(), entry)
        with calibration.activated(cache):
            warm_sim = build(spec)
            warm = warm_sim.run()
        assert warm.status == "completed"
        assert warm_sim.hybrid_stats["calibration_cached"] == 1
        assert warm_sim.hybrid_stats["warmup_iterations"] == 0
        assert warm.stats.app_messages == cold.stats.app_messages

    def test_montecarlo_prewarm_writes_sidecar_and_keeps_byte_identity(self, tmp_path):
        from repro.campaign.store import ResultsStore
        from repro.faults.montecarlo import run_montecarlo

        base = scenario()
        makespan = build(base).run().stats.makespan
        spec = dataclasses.replace(base, fault_model=self.fault_model(makespan))
        serial_store = ResultsStore(str(tmp_path / "serial.json"))
        parallel_store = ResultsStore(str(tmp_path / "parallel.json"))
        serial = run_montecarlo(spec, replicas=6, workers=1, store=serial_store)
        parallel = run_montecarlo(spec, replicas=6, workers=3, store=parallel_store)
        assert (tmp_path / "serial.calibration.json").exists()
        assert (tmp_path / "parallel.calibration.json").exists()
        assert (tmp_path / "serial.json").read_bytes() == (
            tmp_path / "parallel.json"
        ).read_bytes()
        # Every replica read the pre-warmed entry; none re-ran the warm-up,
        # and the aggregate surfaces that as a queryable faults.* metric.
        assert serial.metric("faults.sim.hybrid.calibration_cached.mean") == 1.0
        assert serial.metric("faults.sim.hybrid.warmup_iterations.mean") == 0.0
        assert serial.metric("faults.sim.hybrid.fallback.mean") == 0.0
        assert parallel.metric("faults.sim.hybrid.calibration_cached.mean") == 1.0

    def test_concurrent_cache_saves_merge_entries(self, tmp_path):
        from repro.simulator.calibration import CalibrationCache

        path = str(tmp_path / "calibration.json")
        a = CalibrationCache(path)
        b = CalibrationCache(path)
        a.put("key-a", {"model": {}, "warmup": 3})
        b.put("key-b", {"model": {}, "warmup": 4})
        a.save()
        b.save()
        merged = CalibrationCache(path)
        assert merged.get("key-a") == {"model": {}, "warmup": 3}
        assert merged.get("key-b") == {"model": {}, "warmup": 4}
