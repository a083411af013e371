"""Layer compare: per-workload deltas between two traced reports.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload all --trace 1 --report base.json
    ... change the code ...
    python3 perfbench/run.py --workload all --trace 1 --report new.json
    python3 perfbench/compare.py base.json new.json

For every workload in both reports it prints each per-layer metric of the
base and the new run with their difference.  A count (unit ``count`` or
``B``) must repeat exactly under a change that only makes the program
faster, so every count that changed is flagged, and the exit code is 1
when any count changed.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

COUNT_UNITS = ("count", "B")


def load_layers(path: str) -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``{workload: {metric: {"value", "unit"}}}`` of a traced report."""
    with open(path, encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("trace") != 1:
        raise ValueError(f"{path}: not a traced report (run with --trace 1 --report)")
    return {name: entry["metrics"] for name, entry in report["workloads"].items()}


def compare(base: Dict[str, Dict[str, Dict[str, Any]]],
            new: Dict[str, Dict[str, Dict[str, Any]]]) -> List[str]:
    """Print the comparison; return the flagged ``workload: metric`` names."""
    flagged: List[str] = []
    for workload in sorted(set(base) | set(new)):
        if workload not in base or workload not in new:
            side = "base" if workload in base else "new"
            print(f"== {workload}: only in the {side} report")
            continue
        print(f"== {workload}")
        print(f"   {'metric':34s} {'base':>14s} {'new':>14s} {'delta':>14s} {'delta%':>8s}")
        for name, old in base[workload].items():
            current = new[workload].get(name)
            if current is None:
                print(f"   {name:34s} missing from the new report")
                continue
            a, b = old["value"], current["value"]
            pct = f"{(b - a) / a * 100:+.1f}" if a else "-"
            mark = ""
            if old["unit"] in COUNT_UNITS and a != b:
                mark = "  COUNT CHANGED"
                flagged.append(f"{workload}: {name}")
            print(f"   {name:34s} {a:14.6g} {b:14.6g} {b - a:+14.6g} {pct:>8s}{mark}")
    return flagged


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/compare.py", description=__doc__.split("\n")[0])
    parser.add_argument("base", help="traced report of the parent (run.py --trace 1 --report)")
    parser.add_argument("new", help="traced report of the change")
    args = parser.parse_args(argv)
    flagged = compare(load_layers(args.base), load_layers(args.new))
    if flagged:
        print(f"{len(flagged)} counts changed (a speed-only change keeps them exact):")
        for name in flagged:
            print(f"   {name}")
        return 1
    print("every count repeated exactly")
    return 0


if __name__ == "__main__":
    sys.exit(main())
