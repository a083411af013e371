"""The benchmark's host clock.

Every wall-clock read of the benchmark goes through :data:`now`, so the
determinism linter's wall-clock rule needs exactly one suppression.  No
value read from it reaches a simulated record or an output digest.
"""

import time

#: monotonic host seconds (``time.perf_counter``).
now = time.perf_counter  # repro-lint: disable=RL02 -- the benchmark measures host wall time; clock values never enter records or digests
