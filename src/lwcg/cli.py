"""Command-line harness: compress, decompress, verify, gen, sweep, entropy."""

from __future__ import annotations

import argparse
import csv
import math
import sys
import time

from . import pipeline
from .graph_model import canonical_edges, format_edge_list, parse_edge_list
from .synthetic import estimate_bc_entropy_h1, gen_synthetic


def _normalized_length(n: int, m: int, nbytes: int) -> float:
    """l_n in nats per vertex: stream length minus m log n, over n."""
    return (8 * nbytes * math.log(2) - m * math.log(n)) / n


def _report(n: int, m: int, nbytes: int) -> str:
    bpl = f"{8 * nbytes / m:.3f}" if m else "n/a"
    ln = _normalized_length(n, m, nbytes)
    return f"n={n} m={m} bytes={nbytes} bpl={bpl} l_n={ln:.4f}"


def _same_graph(a, b) -> bool:
    """Whether a round trip kept n, both alphabets, theta and the edges."""
    return (a.n == b.n and a.sigma_e == b.sigma_e and a.sigma_v == b.sigma_v
            and a.theta == b.theta and canonical_edges(a) == canonical_edges(b))


def cmd_compress(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        g = parse_edge_list(fh.read())
    data = pipeline.encode_marked_graph(g, args.h, args.delta)
    with open(args.output, "wb") as fh:
        fh.write(data)
    print(_report(g.n, g.m, len(data)))
    if args.verbose:
        from .edge_types import extract_types
        from .graph_model import preprocess
        from .pipeline import find_deg, find_partition_graphs, find_star_vertices
        nl = preprocess(g)
        table = extract_types(nl, args.h, args.delta)
        s = find_star_vertices(nl, table)
        dictionary, ids = find_deg(nl, table)
        _, adj = find_partition_graphs(nl, table, dictionary, ids)
        n_star_edges = int((table.star & (nl.nbr > nl.owner)).sum())
        print(f"types={table.tcount} star_vertices={sum(s[1:])} "
              f"star_edges={n_star_edges} vertex_types={len(dictionary)} "
              f"partition_graphs={len(adj)} partition_keys={sorted(adj)}")
    return 0


def cmd_decompress(args) -> int:
    with open(args.input, "rb") as fh:
        data = fh.read()
    g = pipeline.decode_marked_graph(data)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
    print(_report(g.n, g.m, len(data)))
    return 0


def cmd_verify(args) -> int:
    with open(args.input, encoding="utf-8") as fh:
        g = parse_edge_list(fh.read())
    decoded = pipeline.decode_marked_graph(
        pipeline.encode_marked_graph(g, args.h, args.delta))
    ok = _same_graph(decoded, g)
    print("verify: OK" if ok else "verify: MISMATCH")
    return 0 if ok else 1


def cmd_gen(args) -> int:
    g = gen_synthetic(args.n, args.lam, args.xi, args.theta, args.seed)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(format_edge_list(g))
    print(f"n={g.n} m={g.m} mean_degree={2 * g.m / g.n:.3f}")
    return 0


def cmd_sweep(args) -> int:
    rows = []
    for n in args.sizes:
        g = gen_synthetic(n, args.lam, args.xi, args.theta, args.seed)
        for delta in args.deltas:
            t0 = time.perf_counter()
            data = pipeline.encode_marked_graph(g, args.h, delta)
            t_enc = time.perf_counter() - t0
            t0 = time.perf_counter()
            decoded = pipeline.decode_marked_graph(data)
            t_dec = time.perf_counter() - t0
            if not _same_graph(decoded, g):
                print(f"round trip FAILED at n={n} delta={delta}", file=sys.stderr)
                return 1
            ln = _normalized_length(g.n, g.m, len(data))
            rows.append({"n": n, "delta": delta,
                         "bpl": f"{8 * len(data) / g.m:.4f}" if g.m else "n/a",
                         "l_n": f"{ln:.5f}",
                         "encode_s": f"{t_enc:.3f}", "decode_s": f"{t_dec:.3f}"})
    out = open(args.output, "w", newline="", encoding="utf-8") if args.output else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=["n", "delta", "bpl", "l_n",
                                                 "encode_s", "decode_s"])
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.output:
            out.close()
    return 0


def cmd_entropy(args) -> int:
    est, se = estimate_bc_entropy_h1(args.lam, args.xi, args.theta,
                                     args.samples, args.seed)
    print(f"J1 estimate: {est:.5f} nats/vertex (stderr {se:.5f}, "
          f"{args.samples} samples)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lwcg",
        description="Lossless codec for sparse simple marked graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compress", help="compress an edge-list text file")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("-H", dest="h", type=int, required=True, help="depth parameter")
    p.add_argument("-D", dest="delta", type=int, required=True, help="degree cap")
    p.add_argument("-v", "--verbose", action="store_true")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("decompress", help="decompress to edge-list text")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_decompress)

    p = sub.add_parser("verify", help="encode, decode, compare canonically")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-H", dest="h", type=int, required=True)
    p.add_argument("-D", dest="delta", type=int, required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("gen", help="generate a synthetic marked graph")
    p.add_argument("-n", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--xi", type=int, default=1, help="edge-mark alphabet size")
    p.add_argument("--theta", type=int, default=1, help="vertex-mark alphabet size")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("sweep", help="run a (n, delta) grid, print CSV")
    p.add_argument("--sizes", type=lambda s: [int(x) for x in s.split(",")],
                   required=True, help="comma-separated vertex counts")
    p.add_argument("--deltas", type=lambda s: [int(x) for x in s.split(",")],
                   required=True, help="comma-separated degree caps")
    p.add_argument("-H", dest="h", type=int, default=1)
    p.add_argument("--lambda", dest="lam", type=float, default=3.0)
    p.add_argument("--xi", type=int, default=2)
    p.add_argument("--theta", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("entropy", help="depth-1 entropy target, Monte Carlo")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--xi", type=int, default=2)
    p.add_argument("--theta", type=int, default=2)
    p.add_argument("--samples", type=int, default=10**5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_entropy)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
