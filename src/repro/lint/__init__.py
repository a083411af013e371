"""repro-lint: AST-based determinism-contract analyzer.

The reproduction's correctness argument rests on contracts the test suite
can only check after a violation ships (byte-identical stores, pinned
recovery traces, stable spec hashes).  This package checks the contracts
*statically*: seeded-RNG discipline (RL01), no wall-clock reads (RL02),
no unsorted set iteration into ordered output (RL03), flock-guarded store
writes (RL04), frozen round-trippable specs (RL05), collision-free metric
namespaces (RL06), deterministic tie-breaks for equal-time events (RL08),
and no engine identity (message ids, queue ``seq``, ``id()``) in persisted
state (RL09).  Rule ids are never renumbered when a rule is retired, so
existing inline suppressions keep their meaning.

Run ``repro-lint src/repro`` (or ``python -m repro.lint src/repro``);
see ``--list-rules`` for the contract table.
"""

from repro.lint.analyzer import lint_source, run_lint
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules

__all__ = ["Finding", "Rule", "all_rules", "lint_source", "run_lint"]
