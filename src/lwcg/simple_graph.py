"""Rank/unrank simple unmarked graphs with a prescribed degree sequence.

The rank f counts half-edge matchings whose adjacency vector precedes the
graph's (upper-triangular, row-major), divided by prod(a_v!), by the
`ranking` recursion; an interval's ratio is (s_i - 1)!! / (s_{j+1} - 1)!!,
s_i the half-edges left on entry to i.  The encoder also emits s_{k+1} at
the split k of each interval over `split_threshold` vertices: the
checkpoints, which bound the segments the decoder builds its ratio tree
over, since it learns a forward degree only by decoding the vertex.  In
a segment it carries the ratio forward by exact division and the
residual half-edge count from the head's one suffix sum.

A vertex's step is the bipartite one (`ranking.count_vertex`) over the
vertices above it, times â!, â its forward degree: the k-th simple term
(S)_{q_k} = q_k! C(S, q_k), q_k half-edges still to place, is weighted by
multipliers q_m res_m, m < k, so it and l carry â! = q_k! q_0...q_{k-1}.
`ranking.decode_vertex` thus finds the same neighbors from the proxy / â!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

from . import ranking
from .fenwick import SuffixFenwick
from .intmath import (ONE, ZERO, ceil_div, compute_product, double_factorial_ratio, mpz, mul,
                      prod_factorial)


@dataclass(frozen=True)
class SimpleInstance:
    """Degree sequence plus forward adjacency (neighbors above each vertex)."""

    a: tuple
    fwd: tuple  # fwd[v] = increasing neighbors of v+1 that are > v+1

    def __post_init__(self):
        pn = len(self.a)
        if pn < 2:
            raise ValueError("need at least two vertices")
        if len(self.fwd) != pn:
            raise ValueError("forward adjacency size does not match degrees")
        seen_back = [0] * (pn + 1)
        for v, neigh in enumerate(self.fwd, start=1):
            prev = v
            for w in neigh:
                if not prev < w <= pn:
                    raise ValueError(f"vertex {v}: bad forward list")
                prev = w
                seen_back[w] += 1
        for v in range(1, pn + 1):
            if len(self.fwd[v - 1]) + seen_back[v] != self.a[v - 1]:
                raise ValueError(f"vertex {v}: degree mismatch")

    @property
    def pn(self) -> int:
        return len(self.a)


def split_threshold(pn: int) -> int:
    """Interval length above which the recursion stores a checkpoint."""
    return (pn.bit_length() - 1) ** 2


def _count(inst: SimpleInstance, spine: bool, trace):
    """(N, l, checkpoints) of the whole instance by `ranking.count`."""
    pn, fwd = inst.pn, inst.fwd
    s = [0, *accumulate((-2 * len(neigh) for neigh in fwd), initial=sum(inst.a))]
    tree = ranking.ratio_tree(pn, 1, lambda i, j: double_factorial_ratio(s[i], s[j + 1]), spine)
    cps = [0] + [s[(i + j) // 2 + 1] for _, i, j in ranking.split_nodes(pn, split_threshold(pn))]
    ares = [0] + [int(x) for x in inst.a]  # residual degrees
    fen = SuffixFenwick(list(inst.a))

    def leaf(i):
        z, l = ranking.count_vertex(ares, fen, fwd[i - 1])
        scale = math.factorial(len(fwd[i - 1]))  # â_i!, as the module docstring shows
        return z * scale, l * scale

    return (*ranking.count(leaf, tree, 1, 1, pn, trace), cps)


def s_configuration_count(inst: SimpleInstance, trace=None):
    """N(G): matchings of half-edges lexicographically below the graph."""
    return _count(inst, trace is not None, trace)[0]


def s_encode(inst: SimpleInstance):
    """Rank the graph; returns (f, checkpoints), cps[1:] being s_{k+1} at
    each split node in `ranking.split_nodes` order and cps[0] = 0."""
    n, l, cps = _count(inst, False, None)
    return ceil_div(n, l), cps


def _decode_chain(ares, fen, i, j, pn, ntilde, s_j1, out):
    """Decode vertices i..j one at a time; returns (N_ij, l_ij).

    Vertex v's proxy is the running proxy divided by
    r_v = (s_v - 1)!! / (s_j1 - 1)!!, s_v being the half-edges left after v.
    r is built once at the chain head and then shrunk by exact division
    with the terms each decoded vertex removes.  (N, l) are folded back in
    reverse, as N = n_v r_v + l_v N_rest does.  S_{v+1} is s_v + ahat_v.
    """
    s = fen.suffix_sum(i) - 2 * ares[i]
    if s < s_j1 or (s - s_j1) % 2:
        raise ValueError(f"vertex {i}: residual half-edges below the checkpoint")
    r = compute_product(s - 1, (s - s_j1) // 2, 2)
    steps = []
    for v in range(i, j + 1):
        if v > i:
            drop = ares[v]
            if 2 * drop > s - s_j1:
                raise ValueError(f"vertex {v}: residual half-edges below the checkpoint")
            r //= compute_product(s - 1, drop, 2)
            s -= 2 * drop
        ahat = ares[v]
        scale = math.factorial(ahat)
        n_v, out[v - 1], l_v = ranking.decode_vertex(ares, fen, v + 1, pn, ahat,
                                                     ntilde // (r * scale), s + ahat)
        p_v, l_v = n_v * scale * r, l_v * scale
        steps.append((p_v, l_v))
        ntilde = (ntilde - p_v) // l_v
    if s != s_j1:
        raise ValueError(f"vertex {j}: half-edges left do not match the checkpoint")
    n_ij, l_ij = ZERO, ONE
    for p_v, l_v in reversed(steps):
        n_ij = p_v + l_v * n_ij
        l_ij *= l_v
    return n_ij, l_ij


def checkpoint_tree(cps, a):
    """({p: s_p} at the segment ends, the decoder's ratio tree).

    cps[m], m >= 1, is s_{k+1} at the m-th split node over [i, j], which
    must be an even count in [s_{j+1}, s_i], so s_1, the degree sum, caps
    them all.  The count and every value are checked before any product
    is built.
    """
    pn = len(a)
    thr = split_threshold(pn)
    nodes = list(ranking.split_nodes(pn, thr))
    if len(cps) - 1 != len(nodes):
        raise ValueError(f"{len(cps) - 1} checkpoints for {len(nodes)} splits")
    s = {1: sum(a), pn + 1: 0}
    for m, (_, i, j) in enumerate(nodes, 1):
        s_k1, s_i, s_j1 = cps[m], s[i], s[j + 1]
        if not s_j1 <= s_k1 <= s_i or (s_k1 - s_j1) % 2:
            raise ValueError(f"checkpoint {m} is {s_k1}, not an even count in [{s_j1}, {s_i}]")
        s[(i + j) // 2 + 1] = s_k1
    return s, ranking.ratio_tree(pn, thr, lambda i, j: double_factorial_ratio(s[i], s[j + 1]))


def s_decode(f, cps, a) -> tuple:
    """Inverse of s_encode: forward adjacency lists from (f, checkpoints)."""
    pn = len(a)
    if pn < 2:
        raise ValueError("need at least two vertices")
    s, tree = checkpoint_tree(cps, a)
    ntilde = mul(mpz(f), prod_factorial(a, 1, pn))
    ares = [0] + [int(x) for x in a] + [0]
    fen = SuffixFenwick(list(a))
    out = [()] * pn

    def leaf(i, j, ntilde):
        return _decode_chain(ares, fen, i, j, pn, ntilde, s[j + 1], out)

    ranking.decode(leaf, tree, split_threshold(pn), 1, 1, pn, ntilde)
    return tuple(out)


def s_count_oracle(inst: SimpleInstance):
    """Brute-force N(G): enumerate all matchings of the half-edges.

    A matching pairs labeled half-edges (vertex copies); its multigraph is
    compared to the graph row-major over the upper triangle including the
    diagonal.  Only usable for small S.
    """
    S = sum(inst.a)
    if S > 12:
        raise ValueError("instance too large for enumeration")
    pn = inst.pn
    owners = []
    for v, av in enumerate(inst.a, start=1):
        owners.extend([v] * av)

    target = _upper_vector_from_fwd(inst.fwd, pn)
    count = 0

    def upper_vector_from_pairs(pairs):
        mat = [[0] * (pn + 1) for _ in range(pn + 1)]
        for hx, hy in pairs:
            u, w = owners[hx], owners[hy]
            if u > w:
                u, w = w, u
            mat[u][w] += 1
        return _flatten_upper(mat, pn)

    def match(remaining, pairs):
        nonlocal count
        if not remaining:
            if upper_vector_from_pairs(pairs) < target:
                count += 1
            return
        first = remaining[0]
        rest = remaining[1:]
        for idx in range(len(rest)):
            match(rest[:idx] + rest[idx + 1:], pairs + [(first, rest[idx])])

    match(tuple(range(len(owners))), [])
    return mpz(count)


def _upper_vector_from_fwd(fwd, pn):
    mat = [[0] * (pn + 1) for _ in range(pn + 1)]
    for v, neigh in enumerate(fwd, start=1):
        for w in neigh:
            mat[v][w] = 1
    return _flatten_upper(mat, pn)


def _flatten_upper(mat, pn):
    out = []
    for v in range(1, pn + 1):
        out.extend(mat[v][v:])
    return tuple(out)
