"""Divide-and-conquer ranking shared by the bipartite and simple codecs.

Both count configurations over a vertex interval [i, j] split at
k = (i+j)//2 as N_ij = N_ik r + l_ik N_kj and l_ij = l_ik l_kj, r being
the interval ratio of [k+1, j].  Node x over [i, j] has children 2x over
[i, k] and 2x+1 over [k+1, j], from node 1 over [1, n].  From WIDE_SPAN
vertices on, products go to `mul` and quotients to `floor_div`; narrower
intervals use the inline operators.

One vertex's step is shared too: `count_vertex` and `decode_vertex` place
its q half-edges among candidates lo..n by binomial terms.  A codec
supplies the ratio leaves, the candidates and a factor on the step.
"""

from __future__ import annotations

import operator
from math import comb, factorial

from .intmath import ONE, WIDE_SPAN, ZERO, falling_threshold, floor_div, mul

_INLINE = (operator.mul, operator.floordiv)
_WIDE = (mul, floor_div)


def split_nodes(n: int, thr: int):
    """(x, i, j) for each node over more than thr of [1, n], parents first."""
    stack = [(1, 1, n)]
    while stack:
        x, i, j = stack.pop()
        if j - i + 1 > thr:
            yield x, i, j
            k = (i + j) // 2
            stack.append((2 * x + 1, k + 1, j))
            stack.append((2 * x, i, k))


def ratio_tree(n: int, thr: int, leaf, spine: bool = False) -> list:
    """Interval ratios over [1, n] by node: leaf(i, j) on nodes over at
    most thr vertices, the product of the children above.  The recursions
    read only right children, so the internal nodes of the left spine
    (1, 2, 4, ..., the largest products) stay None unless spine is true."""
    tree = [None] * (4 * n // thr + 2)

    def fill(x, i, j, need):
        if j - i < thr:
            r = leaf(i, j)
        else:
            k = (i + j) // 2
            right = fill(2 * x + 1, k + 1, j, True)
            left = fill(2 * x, i, k, need)
            if not need:
                return None
            r = left * right if j - i < WIDE_SPAN else mul(left, right)
        tree[x] = r
        return r

    fill(1, 1, n, spine)
    return tree


def count(leaf, tree, x, i, j, trace):
    """(N_ij, l_ij) at node x over [i, j]; leaf(v), called in vertex
    order, gives vertex v's.  With a trace list, (i, j, N_ij, l_ij, r_ij)
    is appended per interval visited."""
    if i == j:
        n_ij, l_ij = leaf(i)
    else:
        k = (i + j) // 2
        n_ik, l_ik = count(leaf, tree, 2 * x, i, k, trace)
        n_kj, l_kj = count(leaf, tree, 2 * x + 1, k + 1, j, trace)
        times, _ = _INLINE if j - i < WIDE_SPAN else _WIDE
        n_ij = times(n_ik, tree[2 * x + 1]) + times(l_ik, n_kj)
        l_ij = times(l_ik, l_kj)
    if trace is not None:
        trace.append((i, j, n_ij, l_ij, tree[x]))
    return n_ij, l_ij


def decode(leaf, tree, thr, x, i, j, ntilde):
    """Invert `count` at node x over [i, j] from the proxy count ntilde;
    leaf(i, j, ntilde) decodes intervals of at most thr vertices."""
    if j - i + 1 <= thr:
        return leaf(i, j, ntilde)
    k = (i + j) // 2
    r = tree[2 * x + 1]
    times, div = _INLINE if j - i < WIDE_SPAN else _WIDE
    n_ik, l_ik = decode(leaf, tree, thr, 2 * x, i, k, div(ntilde, r))
    p = times(n_ik, r)
    n_kj, l_kj = decode(leaf, tree, thr, 2 * x + 1, k + 1, j, div(ntilde - p, l_ik))
    return p + times(l_ik, n_kj), times(l_ik, l_kj)


def count_vertex(res, fen, neigh):
    """(z, l) of one vertex with increasing neighbors neigh: z counts the
    placements of its q = len(neigh) half-edges that precede neigh, each
    term C(S_{w+1}, q_k) weighted by the ways l to reach it.  res and fen
    hold the candidates' residual degrees; both are drained by neigh."""
    z = ZERO
    l = ONE
    q = len(neigh)
    for w in neigh:
        z += l * comb(fen.suffix_sum(1 + w), q)
        l *= res[w]
        fen.add(w, -1)
        res[w] -= 1
        q -= 1
    return z, l


def decode_vertex(res, fen, lo, n, q, ntilde, s_lo):
    """Invert `count_vertex` from the proxy ntilde: (z, neigh, l) of a
    vertex with q half-edges among candidates lo..n, s_lo = S_lo.

    Neighbor w is the smallest above the last one with
    C(S_{w+1}, q) <= z~, i.e. (S_{w+1})_q <= (z~+1) q! - 1: a threshold on
    S_{w+1}.  When S_{lo+1} is already at most it, w = lo and one `add`
    drains it; otherwise one Fenwick descent both locates w and drains
    its half-edge.  S_{lo+1} is carried forward from s_lo, less each
    residual degree passed.  res needs a 0 at n + 1.
    """
    z_t = ntilde
    z = ZERO
    l = ONE
    neigh = []
    s = s_lo - res[lo]
    for q in range(q, 0, -1):
        if lo > n:
            raise ValueError(f"neighbor list runs past vertex {n}")
        s_max = falling_threshold((z_t + 1) * factorial(q) - 1, q)
        if s > s_max:
            # Lands in (lo, n]: S_{lo+1} is above the threshold.
            lo, s = fen.drain_first_at_most(s_max)
            lo -= 1
        else:
            fen.add(lo, -1)
        y = comb(s, q)
        r = res[lo]
        if not r:
            raise ValueError(f"neighbor {lo} has no half-edge left")
        neigh.append(lo)
        z_t = (z_t - y) // r
        z += l * y
        l *= r
        res[lo] = r - 1
        lo += 1
        s -= res[lo]
    return z, tuple(neigh), l
