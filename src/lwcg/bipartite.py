"""Rank/unrank simple bipartite graphs with prescribed degree sequences.

A graph with left degrees a and right degrees b is mapped to the integer
f = ceil(N / prod(b_j!)), where N counts half-edge configurations whose
adjacency vector precedes the graph's lexicographically.  N is computed by
a divide-and-conquer recursion over intervals of left vertices; decoding
inverts it with interval proxies.  It carries the residual half-edge
count forward from s_i, the left degree sum from i on, and finds each
neighbor by at most one Fenwick descent to a threshold on that count.
The interval ratios depend on the left degrees alone, so one product
tree built bottom-up from binomials holds them all.  From
WIDE_SPAN vertices on, both directions multiply by `mul` and the decoder
divides by `floor_div`; narrower intervals use the inline operators.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb, factorial

from .fenwick import SuffixFenwick
from .intmath import (ONE, WIDE_SPAN, ZERO, ceil_div, compute_product, falling_threshold,
                      floor_div, mpz, mul, prod_factorial)


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
    """Interval ratios of the left degrees a, heap-indexed from node 1.

    Node 1 is the interval [1, len(a)] and node x over [i, j] has children
    2x over [i, k] and 2x+1 over [k+1, j], k = (i+j)//2, as the recursion
    splits.  With s_p the left degree sum from p on, the ratio of [i, j] is
    (s_i)_{s_i - s_{j+1}} / prod(a_p!) = prod C(s_p, a_p) over p in [i, j]:
    leaves are binomials and each internal node is the product of its
    children, so no division is needed.  The rank recursions read only
    right children, so the left spine (nodes 1, 2, 4, ..., the largest
    products) is left None unless spine is true.
    """
    n = len(a)
    leaf = [ONE] * (n + 1)
    s = 0
    for p in range(n, 0, -1):
        s += a[p - 1]
        leaf[p] = mpz(comb(s, a[p - 1]))
    tree = [None] * (4 * n)
    _fill(tree, leaf, 1, 1, n, spine)
    return tree


def _fill(tree, leaf, x, i, j, need):
    """Fill node x's subtree; node x's own product only when need is true."""
    if i == j:
        r = leaf[i]
    else:
        k = (i + j) // 2
        right = _fill(tree, leaf, 2 * x + 1, k + 1, j, True)
        left = _fill(tree, leaf, 2 * x, i, k, need)
        if not need:
            r = None
        elif j - i < WIDE_SPAN:
            r = left * right
        else:
            r = mul(left, right)
    tree[x] = r
    return r


def _compute_n(a, adj, bres, fen, tree, x, i, j, trace):
    """Configuration count and l-product for left interval [i, j], node x.

    bres and fen hold the residual right degrees for the prefix before i;
    both are advanced to the state after j.  Returns (N_ij, l_ij).  When a
    trace list is given, (i, j, N_ij, l_ij, r_ij) is appended per interval.
    """
    if i == j:
        z = ZERO
        l = ONE
        ai = a[i - 1]
        neigh = adj[i - 1]
        for k in range(ai):
            w = neigh[k]
            y = comb(fen.suffix_sum(1 + w), ai - k)
            if y:
                z += l * y
            l *= bres[w]
            fen.add(w, -1)
            bres[w] -= 1
        n_ij, l_ij = z, l
    else:
        k = (i + j) // 2
        n_ik, l_ik = _compute_n(a, adj, bres, fen, tree, 2 * x, i, k, trace)
        n_kj, l_kj = _compute_n(a, adj, bres, fen, tree, 2 * x + 1, k + 1, j, trace)
        r = tree[2 * x + 1]
        if j - i < WIDE_SPAN:
            n_ij = n_ik * r + l_ik * n_kj
            l_ij = l_ik * l_kj
        else:
            n_ij = mul(n_ik, r) + mul(l_ik, n_kj)
            l_ij = mul(l_ik, l_kj)
    if trace is not None:
        trace.append((i, j, n_ij, l_ij, tree[x]))
    return n_ij, l_ij


def b_configuration_count(inst: BipartiteInstance, trace=None):
    """N(G): configurations lexicographically below the graph's rows."""
    bres = [0] + [int(x) for x in inst.b]
    fen = SuffixFenwick(list(inst.b))
    tree = ratio_tree(inst.a, spine=trace is not None)
    n, _ = _compute_n(inst.a, inst.adj, bres, fen, tree, 1, 1, inst.n_l, trace)
    return n


def b_encode(inst: BipartiteInstance, tree=None):
    """Rank of the bipartite graph: ceil(N / prod of right factorials).

    tree, if given, is ratio_tree(inst.a), built once by the caller.
    """
    if inst.n_l == 0 or inst.n_r == 1:  # at most one graph: rank 0
        return ZERO
    bres = [0] + [int(x) for x in inst.b]
    fen = SuffixFenwick(list(inst.b))
    if tree is None:
        tree = ratio_tree(inst.a)
    n, l = _compute_n(inst.a, inst.adj, bres, fen, tree, 1, 1, inst.n_l, None)
    # l equals prod(b_j!) once the whole interval is consumed.
    return ceil_div(n, l)


def _decode_node(suf, bres, fen, i, n_r, ntilde):
    """Recover the neighbor list of left vertex i from its proxy count.

    Neighbor w is the smallest above the last one with
    C(S_{w+1}, q) <= z~, i.e. (S_{w+1})_q <= (z~+1) q! - 1: a threshold on
    S_{w+1} that one Fenwick descent locates.  S_{lo+1} is carried forward
    from S_1 = s_i = suf[i - 1], less each residual degree passed.
    """
    z_t = ntilde
    z = ZERO
    l = ONE
    ai = suf[i - 1] - suf[i]
    neigh = []
    lo = 1
    s = suf[i - 1] - bres[1]
    for k in range(ai):
        if lo > n_r:
            raise ValueError(f"left vertex {i}: neighbor list runs past {n_r}")
        q = ai - k
        y = comb(s, q)
        if y > z_t:
            # Lands in (lo, n_r]: S_{lo+1} is above the threshold.
            lo, s = fen.first_at_most(falling_threshold((z_t + 1) * factorial(q) - 1, q))
            lo -= 1
            y = comb(s, q)
        res = bres[lo]
        if not res:
            raise ValueError(f"left vertex {i}: right vertex {lo} has no half-edge left")
        neigh.append(lo)
        z_t = (z_t - y) // res
        z += l * y
        l *= res
        fen.add(lo, -1)
        bres[lo] = res - 1
        lo += 1
        s -= bres[lo]
    return z, neigh, l


_INLINE = (operator.mul, operator.floordiv)
_WIDE = (mul, floor_div)


def _decode_interval(suf, bres, fen, tree, x, i, j, n_r, ntilde, out):
    """Decode left vertices [i, j] at tree node x; returns (N_ij, l_ij)."""
    if i == j:
        n_ii, neigh, l = _decode_node(suf, bres, fen, i, n_r, ntilde)
        out[i - 1] = tuple(neigh)
        return n_ii, l
    k = (i + j) // 2
    r = tree[2 * x + 1]
    times, div = _INLINE if j - i < WIDE_SPAN else _WIDE
    n_ik, l_ik = _decode_interval(suf, bres, fen, tree, 2 * x, i, k, n_r, div(ntilde, r), out)
    p = times(n_ik, r)
    n_kj, l_kj = _decode_interval(suf, bres, fen, tree, 2 * x + 1, k + 1, j, n_r,
                                  div(ntilde - p, l_ik), out)
    return p + times(l_ik, n_kj), times(l_ik, l_kj)


def b_decode(f, a, b, tree=None) -> tuple:
    """Inverse of b_encode given the two degree sequences.

    Inconsistent degree sums are rejected.  A rank that is out of range
    raises ValueError or decodes to some graph with these degrees (with one
    right vertex, it raises).  tree, if given, is ratio_tree(a).
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
    if tree is None:
        tree = ratio_tree(a)
    _decode_interval(suf, bres, fen, tree, 1, 1, n_l, n_r, ntilde, out)
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
