"""Micro-benchmark of SuffixFenwick as the rank decoders drive it.

The instance is the one simple partition graph that encode_marked_graph
ranks for gen_synthetic(10_000, 3.0, 1, 1, seed=71) at h=1, delta=20.
The benchmark builds the tree on its degrees and drains one half-edge per
edge in decode order: each vertex's forward neighbors, increasing, each
found by one `drain_first_at_most` descent from its suffix sum.  The
thresholds and the expected results come from plain sums and a sorted
list of the drained vertices, not from a tree.  Tier-1 runs the benchmark
once, as a plain test (pyproject.toml passes --benchmark-disable); print
the timing with

    PYTHONPATH=src python -m pytest tests/test_fenwick_bench.py --benchmark-enable
"""

from bisect import bisect_right, insort
from functools import lru_cache
from itertools import accumulate

from lwcg.edge_types import extract_types
from lwcg.fenwick import SuffixFenwick
from lwcg.graph_model import preprocess
from lwcg.pipeline import find_deg, find_partition_graphs
from lwcg.synthetic import gen_synthetic


def naive_suffix_sums(a):
    """[S_1, ..., S_{n+1}] of the 1-based array a."""
    return list(accumulate(reversed(a), initial=0))[::-1]


@lru_cache(maxsize=None)
def decode_drains():
    """(degrees, thresholds, expected (k, S_k) per drain, degrees left)."""
    nl = preprocess(gen_synthetic(10_000, 3.0, 1, 1, 71))
    table = extract_types(nl, 1, 20)
    partition_deg, partition_adj = find_partition_graphs(nl, table, *find_deg(nl, table))
    (key, fwd), = partition_adj.items()
    a = list(partition_deg[key])
    start = naive_suffix_sums(a)
    drained = []  # vertices drained so far, sorted
    thresholds, expect = [], []
    for neigh in fwd:
        for w in neigh:
            # S_{w+1} now: its start value less the drains above w.
            s = start[w] - (len(drained) - bisect_right(drained, w))
            thresholds.append(s)
            expect.append((w + 1, s))
            insort(drained, w)
    left = list(a)
    for w in drained:
        left[w - 1] -= 1
    assert left == [len(neigh) for neigh in fwd]  # each vertex keeps its forward half-edges
    return a, thresholds, expect, left


def drain_all(a, thresholds):
    fen = SuffixFenwick(a)
    return fen, [fen.drain_first_at_most(s) for s in thresholds]


def test_bench_decode_drains(benchmark):
    a, thresholds, expect, left = decode_drains()
    assert len(thresholds) == sum(a) // 2 > 0
    fen, found = benchmark(drain_all, a, thresholds)
    assert found == expect
    assert [fen.suffix_sum(k) for k in range(1, len(a) + 2)] == naive_suffix_sums(left)
