"""Rank/unrank simple unmarked graphs with a prescribed degree sequence.

The rank f counts half-edge matchings whose adjacency vector precedes the
graph's (upper-triangular, row-major), divided by prod(a_v!).  The encoder
builds each interval ratio bottom-up as the product of its halves'.
Alongside f it emits a checkpoint array of residual half-edge totals at the
midpoints of large recursion intervals; the decoder needs those to split
its proxy counts without re-walking the prefix.  It caps each checkpoint
by its parent's bounds, then builds their ratios as one product tree over
the segments they bound.  Below the checkpoint threshold it walks a chain
of vertices, carrying the interval ratio forward by exact division and
the residual half-edge count from the head's one suffix sum; each neighbor
takes at most one Fenwick descent to a threshold on that count.  Both
directions multiply by `mul` at their wide levels, and the decoder divides
by `floor_div` at its checkpoint levels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fenwick import SuffixFenwick
from .intmath import (ONE, WIDE_SPAN, ZERO, ceil_div, compute_product, falling_threshold,
                      floor_div, mpz, mul, prod_factorial)


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


def checkpoint_len(pn: int) -> int:
    """Checkpoint array length floor(16 pn / ln^2 pn)."""
    return int(16 * pn / math.log(pn) ** 2)


def _compute_n(a, fwd, ares, fen, i, j, index, cps, thr, trace):
    """N, l and the interval ratio for vertex interval [i, j].

    The ratio is r_ij = (s_i - 1)!! / (s_{j+1} - 1)!!, s_i being the
    half-edges left on entry to i.  A vertex with ahat forward edges
    removes 2 ahat of them, so a leaf's ratio is the ahat-term stride-2
    product from s_i - 1, and an internal node's is the product of its
    children's.  Fills checkpoints along the way.  When a trace list is
    given, (i, j, N_ij, l_ij, r_ij) is appended per interval visited.
    """
    if i == j:
        z = ZERO
        l = ONE
        ahat = ares[i]
        neigh = fwd[i - 1]
        r_ij = compute_product(fen.suffix_sum(i) - 1, ahat, 2)
        for k in range(ahat):
            w = neigh[k]
            y = compute_product(fen.suffix_sum(1 + w), ahat - k, 1)
            if y:
                z += l * y
            c = (ahat - k) * ares[w]
            l *= c
            ares[w] -= 1
            fen.add(w, -1)
        n_ij, l_ij = z, l
    else:
        k = (i + j) // 2
        n_ik, l_ik, r_ik = _compute_n(a, fwd, ares, fen, i, k, 2 * index, cps, thr, trace)
        if j - i + 1 > thr:
            cps[index] = fen.suffix_sum(k + 1)
        n_kj, l_kj, r_kj = _compute_n(a, fwd, ares, fen, k + 1, j, 2 * index + 1,
                                      cps, thr, trace)
        if j - i < WIDE_SPAN:
            n_ij = n_ik * r_kj + l_ik * n_kj
            l_ij = l_ik * l_kj
            r_ij = r_ik * r_kj
        else:
            n_ij = mul(n_ik, r_kj) + mul(l_ik, n_kj)
            l_ij = mul(l_ik, l_kj)
            r_ij = mul(r_ik, r_kj)
    if trace is not None:
        trace.append((i, j, n_ij, l_ij, r_ij))
    return n_ij, l_ij, r_ij


def s_configuration_count(inst: SimpleInstance, trace=None):
    """N(G): matchings of half-edges lexicographically below the graph."""
    ares = [0] + [int(x) for x in inst.a]
    fen = SuffixFenwick(list(inst.a))
    cps = [0] * (checkpoint_len(inst.pn) + 1)
    n, _, _ = _compute_n(inst.a, inst.fwd, ares, fen, 1, inst.pn, 1,
                         cps, split_threshold(inst.pn), trace)
    return n


def s_encode(inst: SimpleInstance):
    """Rank the graph; returns (f, checkpoints) with checkpoints 1-based."""
    pn = inst.pn
    ares = [0] + [int(x) for x in inst.a]
    fen = SuffixFenwick(list(inst.a))
    cps = [0] * (checkpoint_len(pn) + 1)
    n, l, _ = _compute_n(inst.a, inst.fwd, ares, fen, 1, pn, 1,
                         cps, split_threshold(pn), None)
    return ceil_div(n, l), cps


def _decode_node(ares, fen, i, pn, ntilde, s):
    """Recover the forward neighbors of vertex i from its proxy count.

    Neighbor w is the smallest above the last one with S_{w+1} <=
    falling_threshold(z~, q): one Fenwick descent unless the first candidate
    qualifies.  S_{lo+1} is carried forward from s = S_{i+1}.
    """
    z_t = ntilde
    z = ZERO
    l = ONE
    ahat = ares[i]
    neigh = []
    lo = i + 1
    s -= ares[lo]
    for k in range(ahat):
        if lo > pn:
            raise ValueError(f"vertex {i}: neighbor list runs past vertex {pn}")
        q = ahat - k
        s_max = falling_threshold(z_t, q)
        if s > s_max:
            # Lands in (lo, pn]: S_{lo+1} is above the threshold.
            lo, s = fen.first_at_most(s_max)
            lo -= 1
        y = math.perm(s, q)
        res = ares[lo]
        if not res:
            raise ValueError(f"vertex {i}: neighbor {lo} has no half-edge left")
        neigh.append(lo)
        z += l * y
        c = q * res
        l *= c
        ares[lo] = res - 1
        fen.add(lo, -1)
        z_t = (z_t - y) // c
        lo += 1
        s -= ares[lo]
    return z, neigh, l


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
    for v in range(i, j):
        n_v, neigh, l_v = _decode_node(ares, fen, v, pn, ntilde // r, s + ares[v])
        out[v - 1] = tuple(neigh)
        p_v = n_v * r
        steps.append((p_v, l_v))
        ntilde = (ntilde - p_v) // l_v
        drop = ares[v + 1]
        if 2 * drop > s - s_j1:
            raise ValueError(f"vertex {v + 1}: residual half-edges below the checkpoint")
        r //= compute_product(s - 1, drop, 2)
        s -= 2 * drop
    n_ij, neigh, l_ij = _decode_node(ares, fen, j, pn, ntilde, s + ares[j])
    out[j - 1] = tuple(neigh)
    if s != s_j1:
        raise ValueError(f"vertex {j}: half-edges left do not match the checkpoint")
    for p_v, l_v in reversed(steps):
        n_ij = p_v + l_v * n_ij
        l_ij *= l_v
    return n_ij, l_ij


def checkpoint_tree(cps, thr, tree, x, i, j, s_i, s_j1, need):
    """Check the checkpoints under node x over [i, j]; fill tree if given.

    Node x's checkpoint s_{k+1} = cps[x], k = (i+j)//2, must be an even
    count in [s_{j+1}, s_i], so every one is capped by s_1, the degree sum.
    tree[y] becomes right child y's ratio (s_{k+1} - 1)!! / (s_{j+1} - 1)!!:
    one strided product per chain segment, the children's product above.
    Returns node x's own ratio when need is true (never for the left spine).
    """
    if j - i + 1 <= thr:
        return compute_product(s_i - 1, (s_i - s_j1) // 2, 2) if need else None
    if x >= len(cps):
        raise ValueError(f"checkpoint {x} missing: only {len(cps) - 1} given")
    k = (i + j) // 2
    s_k1 = cps[x]
    if not s_j1 <= s_k1 <= s_i or (s_k1 - s_j1) % 2:
        raise ValueError(f"checkpoint {x} is {s_k1}, not an even count in [{s_j1}, {s_i}]")
    right = checkpoint_tree(cps, thr, tree, 2 * x + 1, k + 1, j, s_k1, s_j1, tree is not None)
    left = checkpoint_tree(cps, thr, tree, 2 * x, i, k, s_i, s_k1, need)
    if tree is not None:
        tree[2 * x + 1] = right
    return mul(left, right) if need else None


def _decode_interval(ares, fen, i, j, pn, ntilde, index, s_j1, cps, tree, out):
    if j - i + 1 <= split_threshold(pn):
        return _decode_chain(ares, fen, i, j, pn, ntilde, s_j1, out)
    k = (i + j) // 2
    s_k1 = cps[index]
    r = tree[2 * index + 1]
    n_ik, l_ik = _decode_interval(ares, fen, i, k, pn, floor_div(ntilde, r),
                                  2 * index, s_k1, cps, tree, out)
    p = mul(n_ik, r)
    n_kj, l_kj = _decode_interval(ares, fen, k + 1, j, pn, floor_div(ntilde - p, l_ik),
                                  2 * index + 1, s_j1, cps, tree, out)
    return p + mul(l_ik, n_kj), mul(l_ik, l_kj)


def s_decode(f, cps, a) -> tuple:
    """Inverse of s_encode: forward adjacency lists from (f, checkpoints)."""
    pn = len(a)
    if pn < 2:
        raise ValueError("need at least two vertices")
    tree = [None] * (2 * len(cps) + 2)
    for out in (None, tree):  # check every checkpoint before any product
        checkpoint_tree(cps, split_threshold(pn), out, 1, 1, pn, sum(a), 0, False)
    ntilde = mul(mpz(f), prod_factorial(a, 1, pn))
    ares = [0] + [int(x) for x in a] + [0]
    fen = SuffixFenwick(list(a))
    out = [()] * pn
    _decode_interval(ares, fen, 1, pn, pn, ntilde, 1, 0, cps, tree, out)
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
