"""Rank/unrank simple bipartite graphs with prescribed degree sequences.

A graph with left degrees a and right degrees b is mapped to the integer
f = ceil(N / prod(b_j!)), where N counts half-edge configurations whose
adjacency vector precedes the graph's lexicographically.  N is computed by
the divide-and-conquer recursion of `ranking` over intervals of left
vertices, decoded with interval proxies.  A left vertex's step is
`ranking.count_vertex`/`ranking.decode_vertex` over right vertices 1..n_r
(`simple_graph` scales the same step by â!); the decoder starts each from
s_i, the left degree sum from i on.  The interval ratios depend on the
left degrees alone, so one product tree built bottom-up from binomials
holds them all.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations

from . import ranking
from .fenwick import SuffixFenwick
from .intmath import ZERO, binomial, ceil_div, compute_product, mpz, mul, prod_factorial


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


def ratio_tree(a, spine: bool = False) -> list:
    """`ranking.ratio_tree` of the left degrees a.  With s_p the left degree
    sum from p on, the ratio of [i, j] is (s_i)_{s_i - s_{j+1}} / prod(a_p!)
    = prod C(s_p, a_p) over p in [i, j], so the leaves are binomials."""
    suf = list(accumulate(reversed(a), initial=0))[::-1]  # s_p = suf[p - 1]
    return ranking.ratio_tree(len(a), 1, lambda i, _: binomial(suf[i - 1], a[i - 1]), spine)


def _count(inst: BipartiteInstance, tree, trace):
    """(N, l) of the whole instance by `ranking.count`."""
    bres = [0] + [int(x) for x in inst.b]  # residual right degrees
    fen = SuffixFenwick(list(inst.b))
    return ranking.count(lambda i: ranking.count_vertex(bres, fen, inst.adj[i - 1]),
                         tree, 1, 1, inst.n_l, trace)


def b_configuration_count(inst: BipartiteInstance, trace=None):
    """N(G): configurations lexicographically below the graph's rows."""
    return _count(inst, ratio_tree(inst.a, spine=trace is not None), trace)[0]


def b_encode(inst: BipartiteInstance):
    """Rank of the bipartite graph: ceil(N / prod of right factorials)."""
    if inst.n_l == 0 or inst.n_r == 1:  # at most one graph: rank 0
        return ZERO
    n, l = _count(inst, ratio_tree(inst.a), None)
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

    def leaf(i, _, ntilde):
        n_ii, out[i - 1], l = ranking.decode_vertex(bres, fen, 1, n_r, a[i - 1], ntilde, suf[i - 1])
        return n_ii, l

    ranking.decode(leaf, ratio_tree(a), 1, 1, 1, n_l, ntilde)
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
    target = _row_vector(inst.adj, inst.n_l, n_r)

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
                count += _completions(v + 1, set(rem) - set(chosen))
                continue
            assign(v + 1, set(rem) - set(chosen), new_rows)

    def _completions(v, remaining):
        total = 1
        rem = len(remaining)
        for u in range(v, inst.n_l):
            need = inst.a[u]
            ways = 1
            for t in range(need):
                ways = ways * (rem - t)
            total *= ways // compute_product(need, need, 1) if need else 1
            rem -= need
        return total

    assign(0, set(range(len(half_owner))), ())
    return mpz(count)


def _row_vector(adj, n_l, n_r):
    rows = []
    for v in range(n_l):
        row = [0] * n_r
        for w in adj[v]:
            row[w - 1] = 1
        rows.extend(row)
    return tuple(rows)
