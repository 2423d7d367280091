"""Codec benchmark: timed encode/decode round trips on synthetic graphs.

    python3 perfbench/run.py --workload NAME [--seed 71] [--seconds 35]
                             [--trace 0|1] [--n N]

Run from the repository root; the codec is imported from ./src.  The
input is gen_synthetic(n, 3.0, sigma_e, sigma_v, seed) for the workload's
parameters; the codec receives only that graph.  One process, one call at
a time (a closed loop with one client).  Every round trip is checked
against the input.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(see perfbench/README.md).  The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import hostspeed
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

LAMBDA = 3.0  # mean degree about 2 * LAMBDA
# name -> (n, sigma_e, sigma_v, h, delta); see README.md for why each.
WORKLOADS = {
    "marked_h1_d20_n10k": (10000, 2, 2, 1, 20),
    "marked_h2_d4_n10k": (10000, 2, 2, 2, 4),
    "unmarked_h1_d20_n10k": (10000, 1, 1, 1, 20),
}
SETUP_RUNS = 5

# Times import plus generation in a fresh interpreter, as a user pays it,
# between two host-speed probes.
SETUP_CODE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
import hostspeed
probe = hostspeed.Probe()
before = probe()
t0 = time.perf_counter()
import lwcg
lwcg.gen_synthetic(int(sys.argv[3]), float(sys.argv[4]), int(sys.argv[5]),
                   int(sys.argv[6]), int(sys.argv[7]))
t1 = time.perf_counter()
print(hostspeed.scaled(t1 - t0, before, probe()))
"""


def load_codec():
    """Import lwcg from this checkout's src, never from anywhere else."""
    if not os.path.isfile(os.path.join(SRC, "lwcg", "__init__.py")):
        sys.exit(f"perfbench: no codec source under {SRC}")
    sys.path.insert(0, SRC)
    import lwcg
    if not os.path.abspath(lwcg.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported lwcg from {lwcg.__file__}, not {SRC}")
    return lwcg


def setup_seconds(n, sigma_e, sigma_v, seed) -> float:
    """Median over SETUP_RUNS fresh interpreters of import + generation,
    scaled to reference host speed."""
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, HERE, SRC, str(n), str(LAMBDA),
             str(sigma_e), str(sigma_v), str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def normalized_length(n: int, m: int, nbytes: int) -> float:
    """l_n in nats per vertex, the formula of lwcg.cli._normalized_length."""
    return (8 * nbytes * math.log(2) - m * math.log(n)) / n


class Loop:
    """Round trips of one graph, each call timed alone and checked."""

    def __init__(self, lwcg, g, h, delta):
        self.lwcg, self.g, self.h, self.delta = lwcg, g, h, delta
        self.want = (g.n, g.sigma_e, g.sigma_v, g.theta, lwcg.canonical_edges(g))
        self.attempted = 0
        self.failed = 0
        self.outputs = set()

    def round_trip(self, before_decode=None):
        """Returns (encode_s, decode_s, data); failures count in self.failed."""
        self.attempted += 1
        lwcg = self.lwcg
        data, got = b"", None
        gc.collect()
        stamps = [time.perf_counter()]
        try:
            data = lwcg.encode_marked_graph(self.g, self.h, self.delta)
            stamps.append(time.perf_counter())
            if before_decode is not None:
                before_decode()
            gc.collect()
            stamps.append(time.perf_counter())
            out = lwcg.decode_marked_graph(data)
            stamps.append(time.perf_counter())
            got = (out.n, out.sigma_e, out.sigma_v, out.theta, lwcg.canonical_edges(out))
        except Exception:  # a failed round trip is a result, not a crash
            traceback.print_exc()
            stamps += [time.perf_counter()] * (4 - len(stamps))
        if got != self.want:
            self.failed += 1
        self.outputs.add(data)
        t0, t1, t2, t3 = stamps
        return t1 - t0, t3 - t2, data


def run_plain(loop: Loop, seconds: float) -> dict:
    """Untraced round trips for `seconds`; medians of encode and decode
    times, each scaled by the host-speed probes on either side of it."""
    probe = hostspeed.Probe()
    probes = [probe()]
    enc, dec, wall = [], [], []
    deadline = time.perf_counter() + seconds
    while not enc or time.perf_counter() < deadline:
        e, d, data = loop.round_trip(before_decode=lambda: probes.append(probe()))
        probes.append(probe())
        enc.append(hostspeed.scaled(e, probes[-3], probes[-2]))
        dec.append(hostspeed.scaled(d, probes[-2], probes[-1]))
        wall.append(e + d)
    g = loop.g
    print(f"round trips: {len(enc)}; scaled medians: encode_s "
          f"{statistics.median(enc):.4f}, decode_s {statistics.median(dec):.4f}; "
          f"wall: round trip median {statistics.median(wall):.4f} s, "
          f"probe median {statistics.median(probes):.4f} s")
    # l_n is not a bounded metric: it is bytes shifted by a constant of
    # the input, and it is negative on the unmarked workload.
    print(f"n={g.n} m={g.m} bytes={len(data)} "
          f"l_n={normalized_length(g.n, g.m, len(data)):.6f} nats/vertex "
          f"sha256={hashlib.sha256(data).hexdigest()}")
    return {
        "encode_s": (statistics.median(enc), "s"),
        "decode_s": (statistics.median(dec), "s"),
        "bytes": (len(data), "bytes"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# Units of the per-layer metrics, by name suffix.
UNITS = (("_s", "s"), ("bits", "bits"), ("_per_edge.decode", "probes/edge"))


def run_traced(loop: Loop, seconds: float) -> dict:
    """Two counted round trips, then untraced and traced round trips in
    turn until `seconds` have passed since the start; per-layer medians,
    counts and the overhead."""
    deadline = time.perf_counter() + seconds
    counted = []
    for _ in range(2):
        counts = tracing.Counts()
        with tracing.patched(counts.patches()):
            loop.round_trip(before_decode=lambda: setattr(counts, "phase", "decode"))
        counted.append(counts.metrics())
    if counted[0] != counted[1]:
        raise tracing.TraceError(f"counts differ between runs: {counted}")

    plain, traced, samples = [], [], []
    while not samples or time.perf_counter() < deadline:
        e, d, data = loop.round_trip()
        plain.append(e + d)
        enc, dec = tracing.Tracer(True), tracing.Tracer(False)
        with tracing.patched(tracing.trace_patches(enc, dec)):
            e, d, traced_data = loop.round_trip()
        traced.append(e + d)
        if traced_data != data:
            raise tracing.TraceError("traced output differs from untraced output")
        ledger = tracing.check_ledgers(enc, dec, traced_data)
        samples.append(tracing.layer_metrics(enc, dec, ledger))

    print(f"traced round trips: {len(samples)}; stage ledger "
          f"(bits, encode = decode, {8 * len(data)} in stream):")
    for stage, bits in sorted(ledger.items(), key=lambda kv: -kv[1]):
        print(f"  {stage:26s} {bits:10d}")
    # Times vary between traced round trips; bits and counts do not.
    metrics = {name: statistics.median(s[name] for s in samples) if name.endswith("_s")
               else value for name, value in samples[-1].items()}
    metrics.update(counted[0])
    metrics["trace_overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {name: (value, next((u for suffix, u in UNITS if name.endswith(suffix)), "count"))
            for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=71)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--n", type=int, default=None,
                        help="vertex count instead of the workload's own, for "
                             "full-scale checks such as --n 100000")
    args = parser.parse_args(argv)

    lwcg = load_codec()
    n, sigma_e, sigma_v, h, delta = WORKLOADS[args.workload]
    n = args.n or n
    print(f"workload {args.workload}: gen_synthetic({n}, {LAMBDA}, {sigma_e}, "
          f"{sigma_v}, seed={args.seed}), h={h}, delta={delta}")
    loop = Loop(lwcg, lwcg.gen_synthetic(n, LAMBDA, sigma_e, sigma_v, args.seed), h, delta)

    if args.trace:
        try:
            metrics = run_traced(loop, args.seconds)
        except tracing.TraceError as exc:
            sys.exit(f"perfbench: trace check failed: {exc}")
    else:
        metrics = run_plain(loop, args.seconds)
        metrics["setup_s"] = (setup_seconds(n, sigma_e, sigma_v, args.seed), "s")
    # The codec is deterministic: every encode of one graph gives one stream.
    correct = loop.failed == 0 and len(loop.outputs) == 1
    print(f"round trips attempted {loop.attempted}, failed {loop.failed} "
          f"(roundtrip_fail_ratio {loop.failed / loop.attempted:g})")
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
