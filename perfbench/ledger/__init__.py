"""Layer ledger: the repository's end-to-end and per-layer benchmark.

``perfbench/run.py`` is the command; this package holds its parts:

* :mod:`ledger.workloads` -- the four workloads and their seeded inputs;
* :mod:`ledger.measure` -- the timed loop, output digests and metrics;
* :mod:`ledger.spans` -- the traced run's per-layer spans;
* :mod:`ledger.refspeed` -- the host-speed reference the time metrics are
  scaled by;
* :mod:`ledger.clock` -- the one host clock everything reads.
"""
