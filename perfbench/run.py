"""Layer ledger benchmark: end-to-end and per-layer metrics of the simulator.

Run from the root of a checkout::

    python3 perfbench/run.py --workload exact-faulty --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all              # every workload, one process
    python3 perfbench/run.py --workload all --trace 1 --report traced.json

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of the traced run (see README.md in this directory).  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional, Tuple

from ledger.clock import now

START = now()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOAD_NAMES = ("exact-faulty", "hybrid-mc", "campaign-sweep", "schedule-explore")
SETUP_SAMPLES = 7
RANK_STEPPING_NOTE = (
    "rank-generator stepping has no public entry point: its time is inside "
    "engine.self_s (or the enclosing span's self time) and credited to no layer"
)


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measurement budget per workload (at least two passes run)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced run with per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; tiny is for the harness tests")
    parser.add_argument("--report", help="also write the full report as JSON to this file")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_sample(raw_s: float) -> Tuple[float, float]:
    """(raw set-up seconds, host start-up slowdown measured right after)."""
    from ledger import refspeed

    return raw_s, refspeed.startup_slowdown()


def setup_probe(name: str, args: argparse.Namespace) -> float:
    """Seconds from process start to the end of one workload's set-up, in a
    fresh interpreter (imports included)."""
    command = [
        sys.executable, os.path.abspath(__file__), "--setup-probe",
        "--workload", name, "--seed", str(args.seed), "--size", args.size,
    ]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=150, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({proc.returncode}): {proc.stderr.strip()}")
    return float(proc.stdout.split()[-1])


def stored_digest(name: str, seed: int, size: str) -> Optional[str]:
    with open(DIGESTS, encoding="utf-8") as fh:
        stored = json.load(fh)
    if seed != stored["seed"] or size != stored["size"]:
        return None
    return stored["digests"].get(name)


def _fmt(value: float) -> str:
    return f"{value:.6g}"


def report_workload(m: Any, setups: List[Tuple[float, float]], why: str, seed: int,
                    size: str) -> Dict[str, Any]:
    """Print one workload's report lines; return its report entry.

    ``setups`` holds a (raw set-up seconds, start-up slowdown) pair per
    set-up sample; ``setup_s`` is the median of their quotients.
    """
    from ledger.measure import END_TO_END, P90_MIN_SAMPLES, PER_LAYER, RAW

    print(f"== {m.workload}: {m.input_size}")
    print(f"   why: {why}")
    entry: Dict[str, Any] = {
        "input_size": m.input_size,
        "passes": m.passes,
        "sims": m.sims,
        "failed_ratio": m.failed_ratio,
        "failing": [f"{name} ({status})" for name, status in m.failing],
        "findings": m.findings,
    }
    if m.traced:
        values, units = m.layers, PER_LAYER
    else:
        setup_s = statistics.median(raw_s / slowdown for raw_s, slowdown in setups)
        values, units = m.end_to_end(setup_s), END_TO_END
    entry["metrics"] = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    for name, value in values.items():
        print(f"   {name:34s} {_fmt(value)} {units[name]}")
    if m.traced:
        print(f"   traced pass {_fmt(statistics.mean(m.traced_pass_s))} s, untraced pass "
              f"{_fmt(statistics.median(m.untraced_pass_s))} s; {RANK_STEPPING_NOTE}")
        if m.unwrapped:
            print(f"   not traced (owner refused a wrapper): {', '.join(m.unwrapped)}")
            entry["unwrapped"] = m.unwrapped
    else:
        entry["raw"] = m.raw()
        entry["raw"]["setup_raw_s"] = statistics.median(raw_s for raw_s, _slowdown in setups)
        for name, value in entry["raw"].items():
            print(f"   {name:34s} {_fmt(value)} {RAW[name]} (not bounded)")
        p90 = m.sim_wall_p90_ms()
        if p90 is None:
            print(f"   {'sim_wall_p90_ms':34s} n/a ({len(m.latencies_s)} latency samples "
                  f"< {P90_MIN_SAMPLES})")
        else:
            print(f"   {'sim_wall_p90_ms':34s} {_fmt(p90)} ms")
            entry["sim_wall_p90_ms"] = p90
        print(f"   sims {m.sims} in {_fmt(m.body_s)} s over {m.passes} passes, "
              f"{len(m.latencies_s)} latency samples")
    print(f"   {'failed_ratio':34s} {_fmt(m.failed_ratio)} ({len(m.failing)}/"
          f"{m.outcomes_per_pass} simulations per pass did not complete)")
    for name, status in m.failing:
        print(f"     failing: {name} ({status})")
    for finding in m.findings:
        print(f"   finding: {finding}")
    expected = stored_digest(m.workload, seed, size)
    if expected is None:
        note = f"no stored digest for seed {seed} size {size}"
    elif expected == m.output_digest:
        note = "matches the stored digest"
    else:
        note = f"stored digest is {expected}"
        m.problems.append(
            f"simulated output changed: digest {m.output_digest} != stored {expected}"
        )
    print(f"   {'output_digest':34s} {m.output_digest} ({note})")
    for problem in m.problems:
        print(f"   PROBLEM: {problem}")
    entry["output_digest"] = m.output_digest
    entry["problems"] = list(m.problems)
    return entry


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: error: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # A calibration cache inherited from the environment would change what
    # the hybrid workload runs.
    os.environ.pop("REPRO_CALIBRATION_CACHE", None)
    from ledger.measure import measure
    from ledger.workloads import WORKLOADS

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    workdir = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    if args.setup_probe:
        WORKLOADS[names[0]](args.seed, args.size, workdir)
        print(now() - START)
        return 0

    entries: Dict[str, Any] = {}
    try:
        for index, name in enumerate(names):
            workload = WORKLOADS[name](args.seed, args.size, workdir)
            # The first workload's set-up is this process's own start-up.
            samples = [setup_sample(now() - START)] if index == 0 and not args.trace else []
            m = measure(workload, args.seconds, traced=bool(args.trace))
            while not args.trace and len(samples) < SETUP_SAMPLES:
                samples.append(setup_sample(setup_probe(name, args)))
            entries[name] = report_workload(m, samples, workload.why, args.seed, args.size)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass

    if args.report:
        report = {"seed": args.seed, "size": args.size, "trace": args.trace, "workloads": entries}
        with open(args.report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    problems = sum(len(entry["problems"]) for entry in entries.values())
    # One workload: metrics under their own names; several: prefixed.
    metrics = {
        (metric if len(names) == 1 else f"{name}.{metric}"): value
        for name, entry in entries.items() for metric, value in entry["metrics"].items()
    }
    print(json.dumps({
        "correct": problems == 0,
        "attempted": sum(entry["sims"] for entry in entries.values()),
        "failed": problems,
        "metrics": metrics,
    }))
    return 0 if problems == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
