"""The benchmark's workloads: seeded inputs, one repeatable pass each.

A workload turns the benchmark seed into its inputs when it is constructed
(that is the set-up) and then runs :meth:`Workload.run_pass` as often as
the measurement asks.  Every pass runs the same simulations and must
return the same simulated content; the measurement checks that through an
output digest.

Fault-trace and schedule seeds derive from the benchmark seed.  MTBFs are
fixed constants, written as multiples of failure-free makespans that were
simulated once when the workloads were defined (simulated seconds, the
same on every host), so set-up never runs a reference simulation.

The traced run rebinds the wrapped functions wherever ``repro`` or
``ledger`` modules hold them, so by-name imports here are traced too.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from ledger.clock import now
from repro.analysis import efficiency
from repro.campaign import runner
from repro.campaign.store import ResultsStore
from repro.errors import ConfigurationError
from repro.faults import montecarlo
from repro.faults.spec import FaultModelSpec
from repro.scenarios.build import build
from repro.scenarios.spec import ClusteringSpec, ProtocolSpec, ScenarioSpec, WorkloadSpec
from repro.schedexplore import explorer, policies
from repro.schedexplore.pinned import PINNED_SCENARIOS
from repro.simulator import calibration

SIZES = ("full", "tiny")
NPROCS = 16
CHECKPOINT_OPTIONS = {"checkpoint_interval": 8, "checkpoint_size_bytes": 64 * 1024}


@dataclass
class PassResult:
    """What one pass did, split into timings and simulated content."""

    #: simulations executed (campaign cache hits are not executions).
    sims: int = 0
    #: (start, end, simulations) host-clock span of each independently
    #: timed simulation, or of a call that ran several back to back.
    timed: List[Tuple[float, float, int]] = field(default_factory=list)
    #: (simulation name, status) of every simulation whose status is known.
    outcomes: List[Tuple[str, str]] = field(default_factory=list)
    #: simulated content only -- no host times -- hashed into the digest.
    content: List[Any] = field(default_factory=list)
    #: named observations that are not failures (e.g. an analysis error).
    findings: List[str] = field(default_factory=list)
    #: schedule-explore interleavings that differ from their FIFO baseline.
    divergences: List[str] = field(default_factory=list)
    #: other output checks this pass failed.
    problems: List[str] = field(default_factory=list)
    #: host seconds of campaign-sweep's all-cache-hit pass.
    cached_pass_s: float = 0.0


def _record_content(record: Dict[str, Any]) -> List[Any]:
    return [record["name"], record["spec_hash"], record["result"]]


def _record_status(record: Dict[str, Any]) -> Tuple[str, str]:
    return record["name"], record["result"]["status"]


def _timed_records(specs: List[ScenarioSpec], result: PassResult) -> None:
    """Run each spec through the campaign layer's ``run_spec``, timing it."""
    for spec in specs:
        start = now()
        record, _artifact = runner.run_spec(spec)
        result.timed.append((start, now(), 1))
        result.sims += 1
        result.outcomes.append(_record_status(record))
        result.content.append(_record_content(record))


def _hydee_or_plain(name: str) -> ProtocolSpec:
    if name == "hydee":
        return ProtocolSpec(
            name=name,
            options=CHECKPOINT_OPTIONS,
            clustering=ClusteringSpec(method="block", num_clusters=4),
        )
    return ProtocolSpec(name=name, options=CHECKPOINT_OPTIONS)


class Workload:
    """Base class: ``name``, ``why``, seeded set-up and a repeatable pass."""

    name = ""
    why = ""

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; expected one of {SIZES}")
        self.seed = seed
        self.size = size
        self.workdir = workdir

    def input_size(self) -> str:
        raise NotImplementedError

    def run_pass(self) -> PassResult:
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the passes left on disk."""


class ExactFaulty(Workload):
    """Exact-mode Monte Carlo replicas under three protocols."""

    name = "exact-faulty"
    why = (
        "per-message path (engine, transport, matching, protocol hooks) with "
        "checkpoint and recovery; hybrid is never entered"
    )
    PROTOCOLS = ("hydee", "coordinated", "message-logging")
    #: failure-free HydEE makespan of the full-size run (simulated seconds).
    MAKESPAN_S = 0.00839170826666666

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        super().__init__(seed, size, workdir)
        self.iterations, self.replicas = (100, 8) if size == "full" else (24, 1)
        fault_model = FaultModelSpec(
            distribution="exponential",
            # One expected strike per run: per-rank MTBF = NPROCS x makespan.
            params={"mtbf_s": NPROCS * self.MAKESPAN_S},
            horizon_s=self.MAKESPAN_S,
            max_failures=3,
            seed=seed,
        )
        self.specs: List[ScenarioSpec] = []
        for protocol in self.PROTOCOLS:
            base = ScenarioSpec(
                name=f"exact-faulty:{protocol}",
                workload=WorkloadSpec(kind="stencil2d", nprocs=NPROCS, iterations=self.iterations),
                protocol=_hydee_or_plain(protocol),
                fault_model=fault_model,
                config={"raise_on_incomplete": False},
            )
            self.specs.extend(montecarlo.replica_specs(base, self.replicas, execution="exact"))

    def input_size(self) -> str:
        return (
            f"{len(self.PROTOCOLS)} protocols x {self.replicas} replicas of stencil2d "
            f"np={NPROCS} it={self.iterations} ckpt=8, exact, exponential faults"
        )

    def run_pass(self) -> PassResult:
        result = PassResult()
        _timed_records(self.specs, result)
        return result


class HybridMC(Workload):
    """Hybrid-mode replicas, one strike each, one calibration prewarm per kind."""

    name = "hybrid-mc"
    why = (
        "hybrid fast-forward (batched for stencil2d and lu, per-message for ring) "
        "and the ff_epoch hooks dominate; exact DES runs only around strikes"
    )
    #: (kind, full iterations, tiny iterations, full replicas, failure-free
    #: HydEE makespan of the full-size run in simulated seconds).  stencil2d
    #: runs 300 iterations, not 1000: about one in forty struck 1000-iteration
    #: replicas leaves batched fast-forward for the rest of the run and costs
    #: ten times a normal one, which made throughput depend on the seed more
    #: than on the code.  At 300 iterations the slow case costs about 4x.
    #: lu is the majority so that the median latency lies inside one kind.
    KINDS = (
        ("stencil2d", 300, 40, 8, 0.025371732800000036),
        ("ring", 600, 40, 6, 0.0151634432000000),
        ("lu", 300, 40, 32, 2.742949832000003),
    )

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        super().__init__(seed, size, workdir)
        self.groups: List[List[ScenarioSpec]] = []
        self.sizes: List[str] = []
        for kind, iterations, tiny, replicas, makespan in self.KINDS:
            if size == "tiny":
                iterations, replicas = tiny, 1
            fault_model = FaultModelSpec(
                distribution="exponential",
                # Four expected draws per run, capped at the first: nearly
                # every replica is struck exactly once, early, and the rest
                # of the run is fast-forwarded.
                params={"mtbf_s": NPROCS * makespan / 4},
                horizon_s=makespan,
                max_failures=1,
                seed=seed,
            )
            base = ScenarioSpec(
                name=f"hybrid-mc:{kind}",
                workload=WorkloadSpec(kind=kind, nprocs=NPROCS, iterations=iterations),
                protocol=_hydee_or_plain("hydee"),
                fault_model=fault_model,
                config={"raise_on_incomplete": False},
            )
            self.groups.append(montecarlo.replica_specs(base, replicas, execution="hybrid"))
            self.sizes.append(f"{replicas} x {kind} it={iterations}")

    def input_size(self) -> str:
        return (
            f"{', '.join(self.sizes)}; np={NPROCS}, HydEE ckpt=8, hybrid, one "
            "strike per replica, one calibration prewarm per kind"
        )

    def run_pass(self) -> PassResult:
        result = PassResult()
        cache = calibration.CalibrationCache()
        with calibration.activated(cache):
            for specs in self.groups:
                montecarlo.prewarm_calibration(specs[0], cache)
                _timed_records(specs, result)
        return result


class CampaignSweep(Workload):
    """The efficiency-vs-MTBF grid into a file-backed store, then re-read."""

    name = "campaign-sweep"
    why = (
        "many tiny records, so per-record campaign cost (build, spec hash, "
        "jsonify, whole-store save) is a large share; second pass is all cache hits"
    )

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        super().__init__(seed, size, workdir)
        self.kwargs: Dict[str, Any] = {"seed": seed}
        if size == "tiny":
            self.kwargs.update(replicas=2, mtbf_factors=(4.0,))
        self.store_dir = os.path.join(workdir, "campaign-sweep")
        self.store_path = os.path.join(self.store_dir, "store.json")

    def input_size(self) -> str:
        if self.size == "tiny":
            return "3 protocols x 1 MTBF x 2 replicas of stencil2d np=16 it=6"
        return (
            "run_efficiency_experiment defaults: 3 protocols x 3 MTBFs x 20 replicas "
            "of stencil2d np=16 it=6, checkpoint every iteration (184 records)"
        )

    def _experiment(self, store: ResultsStore, result: PassResult) -> None:
        try:
            efficiency.run_efficiency_experiment(store=store, **self.kwargs)
        except ConfigurationError as exc:
            # rows_from_resultset refuses a point without completed replicas;
            # the records are all in the store, so the run goes on.
            result.findings.append(f"efficiency rows: ConfigurationError: {exc}")

    def run_pass(self) -> PassResult:
        result = PassResult()
        self.close()
        os.makedirs(self.store_dir)
        executed_start = now()
        self._experiment(ResultsStore(self.store_path), result)
        executed_end = now()
        with open(self.store_path, "rb") as fh:
            written = fh.read()
        start = now()
        cached = ResultsStore(self.store_path)
        self._experiment(cached, result)
        result.cached_pass_s = now() - start
        with open(self.store_path, "rb") as fh:
            if fh.read() != written:
                result.problems.append("the all-cache-hit pass rewrote the store")
        records = [cached.records()[key] for key in sorted(cached.records())]
        result.sims = len(records)
        # The runner executes records back to back inside one library call,
        # so the untraced run can only time the call: one sample per pass.
        result.timed.append((executed_start, executed_end, max(1, len(records))))
        result.outcomes.extend(_record_status(record) for record in records)
        result.content.extend(_record_content(record) for record in records)
        return result

    def close(self) -> None:
        shutil.rmtree(self.store_dir, ignore_errors=True)


class ScheduleExplore(Workload):
    """Adversarial interleavings of the pinned faulty scenarios."""

    name = "schedule-explore"
    why = (
        "the only workload that runs the schedule-policy hook and the state "
        "fingerprinter; any divergence from the FIFO baseline is a failure"
    )
    POLICY = "adversarial"

    def __init__(self, seed: int, size: str, workdir: str) -> None:
        super().__init__(seed, size, workdir)
        count = 25 if size == "full" else 2
        self.policy_seeds = [seed * count + index for index in range(count)]
        self.scenarios: List[Tuple[str, Callable[[], Any], bool]] = []
        for name in sorted(PINNED_SCENARIOS):
            prepared = explorer.prepare_spec(PINNED_SCENARIOS[name])
            self.scenarios.append(
                (name, _factory(prepared), explorer.spec_is_uncontended(prepared))
            )

    def input_size(self) -> str:
        return (
            f"{len(self.scenarios)} pinned scenarios x (FIFO baseline + "
            f"{len(self.policy_seeds)} {self.POLICY} seeds), flat network"
        )

    def _interleaving(self, factory: Callable[[], Any], policy: Any, include_times: bool,
                      label: str, result: PassResult) -> Any:
        start = now()
        run = explorer.run_interleaving(factory, policy, include_times=include_times, label=label)
        result.timed.append((start, now(), 1))
        result.sims += 1
        result.content.append(_interleaving_content(run))
        return run

    def run_pass(self) -> PassResult:
        result = PassResult()
        for name, factory, include_times in self.scenarios:
            baseline = self._interleaving(
                factory, policies.FifoPolicy(), include_times, "fifo-baseline", result
            )
            result.outcomes.append((f"{name}/fifo-baseline", baseline.status))
            for seed in self.policy_seeds:
                label = f"{self.POLICY}-{seed}"
                run = self._interleaving(
                    factory, policies.make_policy(self.POLICY, seed), include_times, label, result
                )
                result.outcomes.append((f"{name}/{label}", run.status))
                divergence = explorer.first_divergence(baseline, run, include_times=include_times)
                if divergence is not None:
                    result.divergences.append(f"{name}/{label}: {divergence['kind']}")
        return result


def _factory(spec: ScenarioSpec) -> Callable[[], Any]:
    def make() -> Any:
        return build(spec)

    return make


def _interleaving_content(run: Any) -> List[Any]:
    fields = dataclasses.asdict(run)
    fields["decisions"] = sorted(run.decisions.items())
    return sorted(fields.items())


WORKLOADS: Dict[str, type] = {
    cls.name: cls for cls in (ExactFaulty, HybridMC, CampaignSweep, ScheduleExplore)
}
