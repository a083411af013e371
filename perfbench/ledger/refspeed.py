"""Host-speed reference: a fixed pure-Python kernel timed beside the simulations.

On a shared host the same code runs up to a third slower or faster for
seconds to minutes at a time, and the simulator's CPU time moves with its
wall time (the slowdown is the core's speed, not descheduling).  While a
pass runs, :class:`Sampler` therefore times one chunk of this kernel every
:data:`PERIOD_S` from a timer signal, and the benchmark reports times
scaled to the kernel's nominal speed: a stretch of ``t`` host seconds
during which the nearby chunks took ``r`` seconds counts as
``t * NOMINAL_CHUNK_S / r`` nominal seconds.  The chunks' own time is
taken out of every span.

The kernel imports nothing from ``repro``, so a change to the simulator
cannot change its speed.  It chases object links through a working set
of a few megabytes from a cold core cache and keeps a small heap, which
tracked the simulator's host-speed swings far more closely than a
cache-resident loop.  The cyclic garbage collector is paused while a
chunk runs, so the simulator's heap does not leak into the reference time.

Set-up time is scaled by a second reference instead,
:func:`startup_slowdown`: a fresh interpreter's own imports.
"""

from __future__ import annotations

import gc
import heapq
import signal
import statistics
import subprocess
import sys
from typing import Any, List, Sequence, Tuple

from ledger.clock import now

#: seconds one chunk takes at the nominal host speed (its median on a
#: 2-vCPU shared VM, Python 3.11, while the benchmark was written).
NOMINAL_CHUNK_S = 0.0030
NODES = 40_000
STEPS = 900
FLUSH_BYTES = 16 << 20
#: a fresh interpreter importing numpy and some standard library: start-up
#: work of the kind set-up time is made of, without the repository's code.
STARTUP_REFERENCE = "import numpy, json, decimal, email.parser, asyncio, dataclasses, argparse"
#: host seconds :data:`STARTUP_REFERENCE` takes at the nominal host speed.
NOMINAL_STARTUP_S = 0.26
#: host seconds between two reference chunks of a :class:`Sampler`.
PERIOD_S = 0.1
#: chunks on each side of a stretch that give its local slowdown.
LOCAL_CHUNKS = 3


class _Node:
    __slots__ = ("key", "val", "links")

    def __init__(self, key: int) -> None:
        self.key = key
        self.val = key
        self.links: List["_Node"] = []

    def touch(self, x: int) -> int:
        self.val = (self.val + x) % 1_000_003
        return self.val


def _lcg(n: int, count: int, state: int) -> List[int]:
    out = []
    for _ in range(count):
        state = (state * 6364136223846793005 + 1442695040888963407) % (1 << 64)
        out.append((state >> 33) % n)
    return out


_NODES: List[_Node] = []
_ORDER: List[int] = []
#: read before every chunk to push the nodes out of the core's private
#: caches, so a chunk starts from the same cache state whatever ran before.
_FLUSH = bytearray()


def _build() -> None:
    """Build the working set on first use, so importing costs no set-up time."""
    global _FLUSH
    _NODES.extend(_Node(i) for i in range(NODES))
    for node, a, b, c in zip(_NODES, _lcg(NODES, NODES, 1), _lcg(NODES, NODES, 2),
                             _lcg(NODES, NODES, 3)):
        node.links = [_NODES[a], _NODES[b], _NODES[c]]
    _ORDER.extend(_lcg(NODES, STEPS, 4))
    _FLUSH = bytearray(FLUSH_BYTES)


def _chunk() -> int:
    total = 0
    heap: List[tuple] = []
    for index in _ORDER:
        node = _NODES[index]
        for other in node.links:
            total += other.touch(index)
            other.val ^= node.key & 7
        node.links.append(node.links.pop(0))
        heapq.heappush(heap, (total & 1023, index))
        if len(heap) > 128:
            heapq.heappop(heap)
    return total


def chunk_s() -> float:
    """Host seconds of one reference chunk, garbage collector paused."""
    if not _NODES:
        _build()
    enabled = gc.isenabled()
    gc.disable()
    try:
        _FLUSH.find(b"\x01")
        start = now()
        _chunk()
        return now() - start
    finally:
        if enabled:
            gc.enable()


def slowdown(samples: Sequence[float]) -> float:
    """Host slowdown against the nominal speed: median chunk / nominal chunk."""
    return statistics.median(samples) / NOMINAL_CHUNK_S


def startup_slowdown() -> float:
    """Host slowdown for process start-up: one run of
    :data:`STARTUP_REFERENCE` over its nominal time.  The chunk kernel does
    not track start-up (imports, page faults), so set-up time uses this."""
    start = now()
    subprocess.run([sys.executable, "-c", STARTUP_REFERENCE], check=True, timeout=60)
    return (now() - start) / NOMINAL_STARTUP_S


class Sampler:
    """Times a reference chunk on entry, every :data:`PERIOD_S` from a
    ``SIGALRM`` interval timer, and on exit (main thread only).

    Each chunk is a *tick* ``(start, end, chunk seconds)`` on the host
    clock.  :meth:`program_s` and :meth:`nominal_s` turn any host-clock span
    inside the sampled stretch into program seconds (ticks taken out) and
    nominal seconds (each stretch between ticks divided by the median
    slowdown of the :data:`LOCAL_CHUNKS` ticks on each side of it).
    """

    def __init__(self) -> None:
        self.ticks: List[Tuple[float, float, float]] = []
        self._local: List[float] = []
        self._previous: Any = None
        self._busy = False

    def _tick(self, _signum: int = 0, _frame: Any = None) -> None:
        if self._busy:
            return
        self._busy = True
        start = now()
        chunk = chunk_s()
        self.ticks.append((start, now(), chunk))
        self._busy = False

    def __enter__(self) -> "Sampler":
        self._tick()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *_exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()
        chunks = [chunk for _start, _end, chunk in self.ticks]
        self._local = [
            slowdown(chunks[max(0, k - LOCAL_CHUNKS): k + LOCAL_CHUNKS + 1])
            for k in range(len(chunks))
        ]

    @property
    def slowdown(self) -> float:
        """Median slowdown over every tick."""
        return slowdown([chunk for _start, _end, chunk in self.ticks])

    def _stretches(self, a: float, b: float) -> List[Tuple[float, int]]:
        """(host seconds, index of the tick before it) of the parts of
        ``[a, b]`` outside every tick; the part before the first tick
        belongs to tick 0."""
        out: List[Tuple[float, int]] = []
        cursor, previous = a, 0
        for index, (start, end, _chunk) in enumerate(self.ticks):
            if end <= a:
                previous = index
                continue
            if start >= b:
                break
            if start > cursor:
                out.append((start - cursor, previous))
            cursor, previous = max(cursor, end), index
        if b > cursor:
            out.append((b - cursor, previous))
        return out

    def program_s(self, a: float, b: float) -> float:
        """Host seconds of ``[a, b]`` outside the ticks."""
        return sum(seconds for seconds, _tick in self._stretches(a, b))

    def nominal_s(self, a: float, b: float) -> float:
        """``[a, b]`` outside the ticks, scaled to the nominal host speed."""
        return sum(seconds / self._local[tick] for seconds, tick in self._stretches(a, b))
