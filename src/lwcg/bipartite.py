"""Rank/unrank simple bipartite graphs with prescribed degree sequences.

A graph with left degrees a and right degrees b is mapped to the integer
f = ceil(N / prod(b_j!)), where N counts half-edge configurations whose
adjacency vector precedes the graph's lexicographically.  N is computed by
the divide-and-conquer recursion of `ranking` over intervals of left
vertices down to runs of up to LEAF_RUN, decoded with interval proxies.
Vertex p's ratio is C(s_p, a_p), s_p the left degree sum from p on; the
encoder folds them into its runs' ratios, the decoder's tree multiplies
them.  A left vertex of degree 1 takes its step inline: z is the suffix
sum past its neighbor, found in decoding by one Fenwick descent, and l
that neighbor's residual degree.  Other degrees take
`ranking.count_vertex`/`decode_vertex` over right vertices 1..n_r
(`simple_graph` scales the same step by â!).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb, prod

from . import ranking
from .fenwick import SuffixFenwick
from .intmath import ONE, ZERO, ceil_div, mpz, mul, prod_factorial

LEAF_RUN = 16  # left vertices per leaf run: 8-64 alike at n = 1e4, 128 slower


@dataclass(frozen=True)
class BipartiteInstance:
    """Left/right degree sequences plus per-left-vertex neighbor lists."""

    a: tuple
    b: tuple
    adj: tuple  # adj[v] = increasing right neighbors of left vertex v+1

    def __post_init__(self):
        if len(self.adj) != len(self.a):
            raise ValueError("adjacency size does not match left degrees")
        if sum(self.a) != sum(self.b):
            raise ValueError("degree sums differ between sides")
        n_r = len(self.b)
        right_deg = [0] * (n_r + 1)
        for v, neigh in enumerate(self.adj):
            if len(neigh) != self.a[v]:
                raise ValueError(f"left vertex {v + 1}: degree mismatch")
            prev = 0
            for w in neigh:
                if not prev < w <= n_r:
                    raise ValueError(f"left vertex {v + 1}: bad neighbor list")
                prev = w
                right_deg[w] += 1
        if tuple(right_deg[1:]) != tuple(self.b):
            raise ValueError("right degrees do not match adjacency")

    @property
    def n_l(self) -> int:
        return len(self.a)

    @property
    def n_r(self) -> int:
        return len(self.b)


def ratio_tree(a) -> list:
    """The decoder's `ranking.ratio_tree` of left degrees a over LEAF_RUN
    runs: the ratio of [i, j] is (s_i)_{s_i - s_{j+1}} / prod(a_p!) =
    prod C(s_p, a_p) over p in [i, j]."""
    suf = list(accumulate(reversed(a), initial=0))[::-1]  # s_p = suf[p - 1]
    return ranking.ratio_tree(len(a), LEAF_RUN,
                              lambda i, j: mpz(prod(map(comb, suf[i - 1:j], a[i - 1:j]))))


def _count(inst: BipartiteInstance, trace):
    """(N, l, r) of the whole instance by `ranking.count`."""
    a, adj, suf = inst.a, inst.adj, list(accumulate(reversed(inst.a), initial=0))[::-1]
    bres = [0] + [int(x) for x in inst.b]  # residual right degrees
    fen = SuffixFenwick(list(inst.b))

    def leaf(i, j):
        n, l, r = ZERO, ONE, ONE
        for v in range(i - 1, j):
            if a[v] == 1:
                w = adj[v][0]
                z, l_v = fen.suffix_sum(w + 1), bres[w]
                fen.add(w, -1)
                bres[w] = l_v - 1
            else:
                z, l_v = ranking.count_vertex(bres, fen, adj[v])
            r_v = comb(suf[v], a[v])
            n, l, r = n * r_v + l * z, l * l_v, r * r_v
        return n, l, r

    return ranking.count(leaf, LEAF_RUN, 1, inst.n_l, trace)


def b_configuration_count(inst: BipartiteInstance, trace=None):
    """N(G): configurations lexicographically below the graph's rows."""
    return _count(inst, trace)[0]


def b_encode(inst: BipartiteInstance):
    """Rank of the bipartite graph: ceil(N / prod of right factorials)."""
    if inst.n_l == 0 or inst.n_r == 1:  # at most one graph: rank 0
        return ZERO
    n, l, _ = _count(inst, None)
    # l equals prod(b_j!) once the whole interval is consumed.
    return ceil_div(n, l)


def b_decode(f, a, b) -> tuple:
    """Inverse of b_encode given the two degree sequences.

    Inconsistent degree sums are rejected.  A rank that is out of range
    raises ValueError or decodes to some graph with these degrees (with one
    right vertex, it raises).
    """
    if sum(a) != sum(b):
        raise ValueError("degree sums differ between sides")
    n_l, n_r = len(a), len(b)
    if n_l == 0:
        return ()
    if n_r == 1:
        if f or max(a) > 1:
            raise ValueError(f"rank {f} or a left degree above 1 with one right vertex")
        return tuple((1,) if ai else () for ai in a)
    ntilde = mul(mpz(f), prod_factorial(b, 1, n_r)) if n_r else mpz(f)
    bres = [0] + [int(x) for x in b] + [0]
    suf = list(accumulate(reversed(a), initial=0))[::-1]  # s_i = suf[i - 1], s_{n+1} = 0
    fen = SuffixFenwick(list(b))
    out = [()] * n_l

    def leaf(i, j, ntilde, r):
        n, l = ZERO, ONE
        for v in range(i - 1, j):
            r //= comb(suf[v], a[v])  # now the ratio of the vertices after v
            if a[v] == 1:  # one descent to the first neighbor w with S_{w+1} <= z~
                w, z = fen.drain_first_at_most(ntilde // r)
                w -= 1
                out[v], l_v = (w,), bres[w]
                if not l_v:  # w = 0: the proxy is s_v or more
                    raise ValueError(f"left vertex {v + 1}: proxy out of range")
                bres[w] = l_v - 1
            else:
                z, out[v], l_v = ranking.decode_vertex(bres, fen, 1, n_r, a[v], ntilde // r, suf[v])
            p = z * r
            ntilde, n, l = (ntilde - p) // l_v, n + l * p, l * l_v
        return n, l

    ranking.decode(leaf, ratio_tree(a), LEAF_RUN, 1, 1, n_l, ntilde)
    return tuple(out)


def b_count_oracle(inst: BipartiteInstance):
    """Brute-force N(G): enumerate all configurations, count the smaller.

    Half-edges are labeled per right vertex; a configuration assigns each
    left vertex i a set of a_i of them.  Only usable for small S.
    """
    if sum(inst.a) > 12:
        raise ValueError("instance too large for enumeration")
    half_owner = []  # right vertex of each labeled half-edge
    for j, bj in enumerate(inst.b, start=1):
        half_owner.extend([j] * bj)
    n_r = inst.n_r
    target = _row_vector(inst.adj, n_r)

    count = 0

    def assign(v, remaining, rows):
        nonlocal count
        if v == inst.n_l:
            if rows < target:
                count += 1
            return
        need = inst.a[v]
        rem = sorted(remaining)
        for chosen in combinations(rem, need):
            row = [0] * n_r
            for idx in chosen:
                row[half_owner[idx] - 1] += 1
            # Prune on lexicographic order as soon as the prefix decides.
            new_rows = rows + tuple(row)
            prefix = target[: len(new_rows)]
            if new_rows > prefix:
                continue
            if new_rows < prefix:
                # Everything below stays below; count completions.
                count += _completions(v + 1, len(rem) - need)
                continue
            assign(v + 1, set(rem) - set(chosen), new_rows)

    def _completions(v, rem):
        """Ways to give left vertices v+1.. their degrees from rem half-edges."""
        total = 1
        for need in inst.a[v:]:
            total *= comb(rem, need)
            rem -= need
        return total

    assign(0, set(range(len(half_owner))), ())
    return mpz(count)


def _row_vector(adj, n_r):
    return tuple(int(w in neigh) for neigh in adj for w in range(1, n_r + 1))
