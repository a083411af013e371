"""Unit tests for the declarative scenario layer (spec / build / sweep)."""

import json
import pickle

import pytest

from repro.errors import ConfigurationError
from repro.scenarios import (
    ClusteringSpec,
    FailureSpec,
    NetworkSpec,
    ProtocolSpec,
    ScenarioSpec,
    WorkloadSpec,
    available_workloads,
    build,
    build_application,
    build_config,
    build_network,
    load_specs,
    resolve_clusters,
    sweep,
    to_network_spec,
    with_path,
)
from repro.simulator.network import EthernetTCPModel, MyrinetMXModel
from repro.simulator.simulation import Simulation
from repro.workloads.nas import NAS_BENCHMARKS


def full_spec() -> ScenarioSpec:
    """A spec exercising every nested piece."""
    return ScenarioSpec(
        name="full",
        workload=WorkloadSpec(
            kind="stencil2d", nprocs=16, iterations=6, params={"halo_bytes": 4096}
        ),
        protocol=ProtocolSpec(
            name="hydee",
            options={"checkpoint_interval": 2, "checkpoint_size_bytes": 65536},
            clustering=ClusteringSpec(method="block", num_clusters=4),
        ),
        network=NetworkSpec(model="ethernet-tcp", overrides={"send_overhead_s": 2e-6}),
        failures=(FailureSpec(ranks=(5,), at_iteration=4),),
        config={"record_trace_events": True},
        tags={"experiment": "unit-test"},
    )


class TestSpecRoundTrip:
    def test_json_round_trip_is_identity(self):
        spec = full_spec()
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.spec_hash() == spec.spec_hash()

    def test_round_trip_through_plain_json(self):
        # Through an actual serialised file representation (lists, not tuples).
        spec = full_spec()
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_specs_are_picklable(self):
        spec = full_spec()
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_hash_changes_with_content(self):
        spec = full_spec()
        other = with_path(spec, "workload.nprocs", 64)
        assert other.spec_hash() != spec.spec_hash()

    def test_hash_is_stable_across_instances(self):
        assert full_spec().spec_hash() == full_spec().spec_hash()

    def test_load_specs_accepts_single_and_list(self):
        spec = full_spec()
        assert load_specs(spec.to_dict()) == (spec,)
        assert load_specs([spec.to_dict(), spec.to_dict()]) == (spec, spec)
        with pytest.raises(ConfigurationError):
            load_specs("nonsense")

    def test_explicit_clustering_normalises_to_tuples(self):
        clustering = ClusteringSpec(method="explicit", clusters=[[0, 1], [2, 3]])
        assert clustering.clusters == ((0, 1), (2, 3))

    def test_invalid_specs_are_rejected(self):
        with pytest.raises(ConfigurationError):
            ClusteringSpec(method="sideways")
        with pytest.raises(ConfigurationError):
            ClusteringSpec(method="explicit")  # no clusters
        with pytest.raises(ConfigurationError):
            ClusteringSpec(method="block")  # no num_clusters
        with pytest.raises(ConfigurationError):
            FailureSpec(ranks=())
        with pytest.raises(ConfigurationError):
            FailureSpec(ranks=(1,))  # neither time nor at_iteration
        with pytest.raises(ConfigurationError):
            FailureSpec(ranks=(1,), time=1.0, at_iteration=2)  # both


class TestSweep:
    def test_grid_expansion_counts_and_names(self):
        base = ScenarioSpec(
            name="base", workload=WorkloadSpec(kind="ring", nprocs=8, iterations=2)
        )
        specs = sweep(
            base,
            {
                "workload.nprocs": [4, 8],
                "protocol.name": ["none", "hydee-log-all"],
                "workload.params.message_bytes": [256, 1024, 4096],
            },
        )
        assert len(specs) == 2 * 2 * 3
        assert len({s.name for s in specs}) == len(specs)
        assert len({s.spec_hash() for s in specs}) == len(specs)
        # Deterministic order: first axis varies slowest.
        assert specs[0].workload.nprocs == 4
        assert specs[-1].workload.nprocs == 8
        assert specs[0].workload.params["message_bytes"] == 256
        assert specs[2].workload.params["message_bytes"] == 4096

    def test_empty_axes_returns_base(self):
        base = ScenarioSpec(
            name="base", workload=WorkloadSpec(kind="ring", nprocs=8, iterations=2)
        )
        assert sweep(base, {}) == [base]

    def test_with_path_sets_nested_mapping_entries(self):
        base = full_spec()
        updated = with_path(base, "config.max_events", 1000)
        assert updated.config["max_events"] == 1000
        assert updated.config["record_trace_events"] is True
        assert base.config == {"record_trace_events": True}  # base untouched

    def test_with_path_rejects_unknown_fields(self):
        with pytest.raises(ConfigurationError):
            with_path(full_spec(), "workload.wheels", 4)
        with pytest.raises(ConfigurationError):
            sweep(full_spec(), {"workload.nprocs": []})


def _workload_spec(kind: str) -> WorkloadSpec:
    if kind == "netpipe":
        return WorkloadSpec(kind=kind, nprocs=2, iterations=1,
                            params={"sizes": [64], "repeats": 1})
    return WorkloadSpec(kind=kind, nprocs=4, iterations=2)


PROTOCOL_SPECS = {
    "none": ProtocolSpec(name="none"),
    "native": ProtocolSpec(name="native"),
    "hydee": ProtocolSpec(
        name="hydee", clustering=ClusteringSpec(method="block", num_clusters=2)
    ),
    "hydee-log-all": ProtocolSpec(name="hydee-log-all"),
    "coordinated": ProtocolSpec(name="coordinated"),
    "message-logging": ProtocolSpec(name="message-logging"),
    "hybrid-event-logging": ProtocolSpec(
        name="hybrid-event-logging",
        clustering=ClusteringSpec(method="block", num_clusters=2),
    ),
}


class TestBuild:
    @pytest.mark.parametrize("kind", sorted(available_workloads()))
    @pytest.mark.parametrize("protocol_name", sorted(PROTOCOL_SPECS))
    def test_build_wires_every_workload_protocol_pair(self, kind, protocol_name):
        spec = ScenarioSpec(
            name=f"{kind}-{protocol_name}",
            workload=_workload_spec(kind),
            protocol=PROTOCOL_SPECS[protocol_name],
        )
        if kind == "master-worker" and protocol_name.startswith(
            ("hydee", "hybrid")
        ):
            # The HydEE family refuses non-send-deterministic applications
            # (master/worker is the paper's counterexample).
            with pytest.raises(ConfigurationError):
                build(spec)
            return
        sim = build(spec)
        assert isinstance(sim, Simulation)
        assert sim.nprocs == spec.workload.nprocs
        if protocol_name == "none":
            assert type(sim.protocol).__name__ == "ProtocolHooks"
        else:
            assert sim.protocol is not None
        # Campaign default: no per-event trace allocation.
        assert sim.trace.record_events is False

    @pytest.mark.parametrize("kind", ["ring", "stencil2d", "cg"])
    def test_built_simulations_run_to_completion(self, kind):
        spec = ScenarioSpec(
            name=f"run-{kind}",
            workload=_workload_spec(kind),
            protocol=PROTOCOL_SPECS["hydee"],
        )
        result = build(spec).run()
        assert result.completed

    def test_unknown_workload_and_network_are_rejected(self):
        with pytest.raises(ConfigurationError):
            build_application(WorkloadSpec(kind="frogger", nprocs=4, iterations=1))
        spec = ScenarioSpec(
            name="bad-net",
            workload=_workload_spec("ring"),
            network=NetworkSpec(model="carrier-pigeon"),
        )
        with pytest.raises(ConfigurationError):
            build_network(spec)

    def test_unknown_config_override_is_rejected(self):
        # The hybrid warm-up, guard and spread limit are constants of
        # repro.simulator.hybrid, not config fields.
        for key in ("warp_speed", "hybrid_warmup_iterations",
                    "hybrid_guard_iterations", "hybrid_max_dt_spread"):
            spec = ScenarioSpec(
                name="bad-config",
                workload=_workload_spec("ring"),
                config={key: 1},
            )
            with pytest.raises(ConfigurationError):
                build_config(spec)

    def test_network_overrides_are_applied(self):
        spec = ScenarioSpec(
            name="net",
            workload=_workload_spec("ring"),
            network=NetworkSpec(model="myrinet-mx",
                                overrides={"bandwidth_bytes_per_s": 5e8}),
        )
        assert build_network(spec).bandwidth_bytes_per_s == 5e8

    def test_to_network_spec_round_trips_models(self):
        for model in (MyrinetMXModel(), EthernetTCPModel(),
                      MyrinetMXModel(bandwidth_bytes_per_s=9e8)):
            restored_spec = to_network_spec(model)
            rebuilt = build_network(
                ScenarioSpec(name="n", workload=_workload_spec("ring"),
                             network=restored_spec)
            )
            assert type(rebuilt) is type(model)
            assert rebuilt.bandwidth_bytes_per_s == model.bandwidth_bytes_per_s

    def test_resolve_clusters_methods(self):
        workload = WorkloadSpec(kind="cg", nprocs=16, iterations=1)
        assert resolve_clusters(ClusteringSpec(), workload) is None
        explicit = resolve_clusters(
            ClusteringSpec(method="explicit", clusters=((0, 1), (2, 3))), workload
        )
        assert explicit == [[0, 1], [2, 3]]
        block = resolve_clusters(
            ClusteringSpec(method="block", num_clusters=4), workload
        )
        assert len(block) == 4 and sorted(sum(block, [])) == list(range(16))
        partitioned = resolve_clusters(
            ClusteringSpec(method="partition", num_clusters=4), workload
        )
        assert len(partitioned) == 4
        preset = resolve_clusters(ClusteringSpec(method="preset"), workload)
        # CG's Table I preset is 16 clusters, clamped to nprocs.
        assert len(preset) == 16

    def test_nas_kinds_cover_the_six_kernels(self):
        assert set(NAS_BENCHMARKS) <= set(available_workloads())

    def test_failure_spec_builds_injector(self):
        spec = ScenarioSpec(
            name="failing",
            workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=6),
            protocol=PROTOCOL_SPECS["hydee"],
            failures=(FailureSpec(ranks=(5,), at_iteration=3),),
        )
        sim = build(spec)
        assert sim.failure_injector is not None
        result = sim.run()
        assert result.completed
        assert result.stats.failures_injected == 1
        assert result.stats.ranks_rolled_back > 0


class TestTopologySpec:
    def _topo_spec(self) -> ScenarioSpec:
        from repro.scenarios import TopologySpec

        return ScenarioSpec(
            name="topo",
            workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=4),
            protocol=ProtocolSpec(
                name="hydee",
                options={"checkpoint_interval": 2},
                clustering=ClusteringSpec(method="topology"),
            ),
            network=NetworkSpec(
                topology=TopologySpec(
                    preset="cluster-per-node",
                    params={"ranks_per_node": 4, "oversubscription": 4.0},
                )
            ),
        )

    def test_json_round_trip_is_identity(self):
        spec = self._topo_spec()
        restored = ScenarioSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.network.topology == spec.network.topology
        assert restored.spec_hash() == spec.spec_hash()

    def test_round_trip_through_plain_json(self):
        spec = self._topo_spec()
        restored = ScenarioSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert restored == spec

    def test_specs_without_topology_serialise_as_before(self):
        # A spec with no topology must not gain a "topology" key: pre-topology
        # spec hashes are cache keys and must remain stable.
        spec = full_spec()
        assert "topology" not in spec.to_dict()["network"]
        pinned = ScenarioSpec(
            name="hash-pin",
            workload=WorkloadSpec(kind="stencil2d", nprocs=16, iterations=8),
            protocol=ProtocolSpec(
                name="hydee",
                options={"checkpoint_interval": 2},
                clustering=ClusteringSpec(method="block", num_clusters=4),
            ),
            failures=(FailureSpec(ranks=(5,), at_iteration=5),),
        )
        # Hash computed before the topology layer existed (PR 1 code).
        assert pinned.spec_hash() == "47aa6a972cec363d"

    def test_unknown_preset_rejected_at_spec_time(self):
        from repro.scenarios import TopologySpec

        with pytest.raises(ConfigurationError):
            TopologySpec(preset="moebius-strip")

    def test_topology_params_are_sweepable(self):
        spec = self._topo_spec()
        grid = sweep(
            spec, {"network.topology.params.oversubscription": [1.0, 2.0, 8.0]}
        )
        values = [s.network.topology.params["oversubscription"] for s in grid]
        assert values == [1.0, 2.0, 8.0]
        assert len({s.spec_hash() for s in grid}) == 3

    def test_build_produces_routed_network(self):
        from repro.simulator.network import RoutedNetworkModel

        network = build_network(self._topo_spec())
        assert isinstance(network, RoutedNetworkModel)
        assert network.topology.num_clusters == 4
        flat = build_network(full_spec())
        assert not isinstance(flat, RoutedNetworkModel)

    def test_topology_clustering_methods_resolve(self):
        spec = self._topo_spec()
        clusters = resolve_clusters(
            spec.protocol.clustering, spec.workload, topology=spec.network.topology
        )
        assert clusters == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9, 10, 11], [12, 13, 14, 15]]
        misaligned = resolve_clusters(
            ClusteringSpec(method="topology-misaligned"),
            spec.workload,
            topology=spec.network.topology,
        )
        assert sorted(r for c in misaligned for r in c) == list(range(16))
        assert misaligned != clusters

    def test_topology_clustering_requires_non_flat_topology(self):
        from repro.scenarios import TopologySpec

        spec = self._topo_spec()
        with pytest.raises(ConfigurationError):
            resolve_clusters(spec.protocol.clustering, spec.workload, topology=None)
        with pytest.raises(ConfigurationError):
            resolve_clusters(
                spec.protocol.clustering,
                spec.workload,
                topology=TopologySpec(preset="flat"),
            )

    def test_built_topology_scenario_runs_to_completion(self):
        result = build(self._topo_spec()).run()
        assert result.completed
        assert result.metric("network.topology.clusters") == 4
        assert "links.tiers.inter-cluster" in result.metrics
        assert result.metric("network.contention_wait_s") >= 0.0


class TestFailureSpecValidation:
    """PR-5 validation hardening of the declarative failure layer."""

    def test_negative_time_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureSpec(ranks=(1,), time=-1.0)

    def test_non_finite_times_rejected(self):
        for bad in (float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ConfigurationError):
                FailureSpec(ranks=(1,), time=bad)

    def test_duplicate_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureSpec(ranks=(4, 4), time=1e-3)

    def test_trigger_outside_ranks_rejected(self):
        with pytest.raises(ConfigurationError):
            FailureSpec(ranks=(5,), at_iteration=3, rank_trigger=3)

    def test_trigger_inside_ranks_accepted(self):
        spec = FailureSpec(ranks=(3, 5), at_iteration=3, rank_trigger=5)
        assert spec.rank_trigger == 5

    def test_valid_time_spec_accepted(self):
        assert FailureSpec(ranks=(1, 2), time=0.0).time == 0.0
