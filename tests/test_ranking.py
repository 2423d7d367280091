"""The divide-and-conquer driver and the per-vertex step shared by the
rank codecs."""

import math
import random

import pytest

from lwcg.fenwick import SuffixFenwick
from lwcg.ranking import count_vertex, decode_vertex, ratio_tree, split_nodes
from lwcg.simple_graph import split_threshold


def reference_split_nodes(n, thr):
    """Nodes over more than thr vertices, by the recursion's own walk."""
    out = []

    def walk(x, i, j):
        if j - i + 1 > thr:
            out.append((x, i, j))
            k = (i + j) // 2
            walk(2 * x, i, k)
            walk(2 * x + 1, k + 1, j)

    walk(1, 1, n)
    return out


def test_split_nodes_are_the_wide_nodes_parents_first():
    for n in range(1, 130):
        for thr in range(1, 12):
            nodes = list(split_nodes(n, thr))
            assert nodes == reference_split_nodes(n, thr), (n, thr)
            seen = {0}  # node 1's parent
            for x, _, _ in nodes:
                assert x // 2 in seen
                seen.add(x)


@pytest.mark.parametrize("sizes", [range(2, 20_001), [10**5, 10**6 + 3, 4 * 10**6 + 1, 10**7]])
def test_checkpoint_slots_cover_every_split(sizes):
    # The encoder writes one checkpoint per split node, and no other: fewer
    # than 16 pn / ln^2 pn of them, the slot count of the format that
    # indexed checkpoints by node.
    for pn in sizes:
        splits = sum(1 for _ in split_nodes(pn, split_threshold(pn)))
        assert splits <= 16 * pn / math.log(pn) ** 2, pn


def test_ratio_tree_multiplies_leaves_up_to_the_spine():
    # With leaf(i, j) = 2**(j - i + 1), node x over [i, j] must be the same.
    for n in range(1, 150):
        for thr in (1, 2, 3, 7, 16):
            full = ratio_tree(n, thr, lambda i, j: 2 ** (j - i + 1), spine=True)
            lean = ratio_tree(n, thr, lambda i, j: 2 ** (j - i + 1))
            inner = {x for x, _, _ in split_nodes(n, thr)}
            stack = [(1, 1, n)]
            while stack:
                x, i, j = stack.pop()
                assert full[x] == 2 ** (j - i + 1), (n, thr, x)
                on_spine = x & (x - 1) == 0
                assert lean[x] == (None if on_spine and x in inner else full[x])
                if x in inner:
                    k = (i + j) // 2
                    stack += [(2 * x, i, k), (2 * x + 1, k + 1, j)]


def test_decode_vertex_inverts_count_vertex():
    rng = random.Random(89)
    for _ in range(400):
        n = rng.randint(1, 12)
        lo = rng.choice([1, rng.randint(1, n)])
        res = [0] + [rng.randint(0, 4) for _ in range(n)]
        candidates = [w for w in range(lo, n + 1) if res[w]]
        neigh = sorted(rng.sample(candidates, rng.randint(0, len(candidates))))
        enc_res, enc_fen = list(res), SuffixFenwick(res[1:])
        z, l = count_vertex(enc_res, enc_fen, neigh)
        for ntilde in {z, z + l - 1, rng.randrange(z, z + l)}:
            dec_res, dec_fen = res + [0], SuffixFenwick(res[1:])
            got = decode_vertex(dec_res, dec_fen, lo, n, len(neigh), ntilde, sum(res[lo:]))
            assert got == (z, tuple(neigh), l), (res, lo, neigh, ntilde)
            assert dec_res[:-1] == enc_res
            assert dec_fen.suffix_sum(lo) == enc_fen.suffix_sum(lo)


@pytest.mark.parametrize("res, lo, q, message", [
    ([0, 3, 2, 2], 2, 3, "runs past vertex 3"),  # two candidates, three half-edges
    ([0, 1, 0, 5], 2, 1, "neighbor 2 has no half-edge left"),
])
def test_decode_vertex_rejects_out_of_range_proxies(res, lo, q, message):
    # A proxy above every count places the half-edges as early as possible.
    with pytest.raises(ValueError, match=message):
        decode_vertex(res + [0], SuffixFenwick(res[1:]), lo, len(res) - 1, q, 10**9,
                      sum(res[lo:]))
