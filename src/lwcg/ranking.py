"""Divide-and-conquer ranking shared by the bipartite and simple codecs.

Both count configurations over a vertex interval [i, j] split at
k = (i+j)//2 as N_ij = N_ik r + l_ik N_kj and l_ij = l_ik l_kj, r being
the interval ratio of [k+1, j]: `count` carries r_ij = r_ik r_kj up, and
`decode` reads it from a `ratio_tree` built first.  Node x over [i, j]
has children 2x over [i, k] and 2x+1 over [k+1, j], from node 1 over
[1, n].  From WIDE_SPAN vertices on, products go to `mul` and quotients
to `floor_div`; narrower intervals use the inline operators.  Intervals of at most thr vertices
are leaf runs, each coded in one loop by N = N r_v + l z_v, l = l l_v.

One vertex's step is shared too: `count_vertex` and `decode_vertex` place
its q half-edges among candidates lo..n by binomial terms.  A codec
supplies the ratio leaves, the candidates and a factor on the step, or
takes the step inline (`bipartite` does at degree 1).
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


def ratio_tree(n: int, thr: int, leaf) -> list:
    """The decoders' interval ratios over [1, n] by node: leaf(i, j) on
    nodes over at most thr vertices, the product of the children above.
    `decode` reads only right children and leaves, so the internal nodes
    of the left spine (1, 2, 4, ..., the largest products) stay None."""
    tree = [None] * (4 * n // thr + 2)

    def fill(x, i, j):
        if j - i < thr:
            r = leaf(i, j)
        else:
            k = (i + j) // 2
            right = fill(2 * x + 1, k + 1, j)
            left = fill(2 * x, i, k)
            if i == 1:
                return None
            r = left * right if j - i < WIDE_SPAN else mul(left, right)
        tree[x] = r
        return r

    fill(1, 1, n)
    return tree


def count(leaf, thr, i, j, trace):
    """(N_ij, l_ij, r_ij) over [i, j]; leaf(i, j), called in vertex order,
    gives those of runs of at most thr vertices.  Parents read only right
    children's r, so above the leaves r_ij is None on the left spine (i = 1)
    unless a trace list takes (i, j, N_ij, l_ij, r_ij) per interval."""
    if j - i < thr:
        n_ij, l_ij, r_ij = leaf(i, j)
    else:
        k = (i + j) // 2
        n_ik, l_ik, r_ik = count(leaf, thr, i, k, trace)
        n_kj, l_kj, r_kj = count(leaf, thr, k + 1, j, trace)
        times, _ = _INLINE if j - i < WIDE_SPAN else _WIDE
        n_ij = times(n_ik, r_kj) + times(l_ik, n_kj)
        l_ij = times(l_ik, l_kj)
        r_ij = times(r_ik, r_kj) if i > 1 or trace is not None else None
    if trace is not None:
        trace.append((i, j, n_ij, l_ij, r_ij))
    return n_ij, l_ij, r_ij


def decode(leaf, tree, thr, x, i, j, ntilde):
    """Invert `count` at node x over [i, j] from the proxy count ntilde;
    leaf(i, j, ntilde, r_ij) decodes runs of at most thr vertices."""
    if j - i + 1 <= thr:
        return leaf(i, j, ntilde, tree[x])
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
