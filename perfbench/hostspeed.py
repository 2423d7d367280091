"""Host-speed probe: a fixed piece of pure-Python work timed beside the codec.

The reference host's speed drifts by up to 1.8x over seconds to minutes
(README.md, "Steadiness").  The probe runs right before and right after
each timed call; the call's time is scaled by REF_S over the mean of those
two probe times, which cancels most of the drift.  The work mimics the
codec's mix (integer arithmetic in an interpreted loop, then adjacency
lists, sorting and a dict of tuples) and never touches the codec, so no
change to the codec can change the probe.
"""

from __future__ import annotations

import gc
import random
import time

# Probe seconds on the reference host in a fast phase; scaled times read
# as seconds on a host that runs the probe in exactly REF_S.
REF_S = 0.03
_N = 10_000


class Probe:
    def __init__(self):
        rng = random.Random(0)
        self._edges = [(rng.randrange(_N), rng.randrange(_N)) for _ in range(3 * _N)]

    def __call__(self) -> float:
        """Seconds taken by one pass of the fixed work.

        The garbage collector is off meanwhile: its passes would scan the
        caller's heap, and the probe must time the host, not that heap.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            total = 0
            for i in range(200_000):
                total += i * i % 7
            adj = [[] for _ in range(_N)]
            for v, w in self._edges:
                adj[v].append(w)
                adj[w].append(v)
            shapes = {}
            for neigh in adj:
                key = tuple(sorted(neigh))[:3]
                shapes[key] = shapes.get(key, 0) + 1
            return time.perf_counter() - t0
        finally:
            if enabled:
                gc.enable()


def scaled(seconds: float, before: float, after: float) -> float:
    """`seconds` measured between two probes, at reference host speed."""
    return seconds * 2 * REF_S / (before + after)
