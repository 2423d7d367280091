"""Integer edge-type labels via rounds of message passing.

Every directed edge (v, w) carries a description of the depth-limited
tree hanging off v when the edge to w is cut, together with the edge mark
pointing at v.  Labels are produced in h-1 rounds with a degree cap
delta: any neighborhood that exceeds the cap collapses to a degenerate
"star" label that only remembers the edge mark.  A final symmetrization
pass forces both sides of an edge to star when either side is starred or
either endpoint degree exceeds delta.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np

from .graph_model import NeighborListGraph


@dataclass(frozen=True)
class EdgeTypeTable:
    """Result of type extraction.

    c[v][i] is a pair of labels for the edge between v and its i-th
    neighbor: (label of v's side, label of the neighbor's side).  Labels
    are 1..tcount; t_is_star and t_mark are 1-based (slot 0 padding).
    """

    tcount: int
    t_is_star: tuple
    t_mark: tuple
    c: tuple

    def is_star_edge(self, v: int, i: int) -> bool:
        t, tp = self.c[v][i]
        return self.t_is_star[t] == 1 or self.t_is_star[tp] == 1


class _LabelState:
    """Maps message tuples to dense integer labels, first-seen order."""

    __slots__ = ("table", "count", "is_star", "mark")

    def __init__(self):
        self.table = {}
        self.count = 0
        self.is_star = [0]  # slot 0 padding
        self.mark = [0]

    def send(self, t: tuple) -> int:
        """Label for message t, allocating count+1 on first sight.

        A message is a star iff its first element is 0; its mark component
        is always its last element.
        """
        label = self.table.get(t)
        if label is None:
            self.count += 1
            label = self.count
            self.table[t] = label
            self.is_star.append(1 if t[0] == 0 else 0)
            self.mark.append(t[-1])
        return label


def extract_types(g: NeighborListGraph, h: int, delta: int) -> EdgeTypeTable:
    """Label all directed edges of g with h-1 message rounds, cap delta."""
    if h < 1 or delta < 1:
        raise ValueError("need h >= 1 and delta >= 1")
    if h == 1:
        return _extract_depth_one(g, delta)
    return _extract_by_rounds(g, h, delta)


def _extract_by_rounds(g: NeighborListGraph, h: int, delta: int) -> EdgeTypeTable:
    """extract_types by explicit message passing, one vertex at a time."""
    n = g.n
    deg, gamma, gammat, x = g.deg, g.gamma, g.gammat, g.x
    theta = g.theta

    state = _LabelState()
    # Round 0: the message toward each neighbor is just (own mark, 0, edge
    # mark toward self), so its label is looked up by the two marks.
    t_cur = [None] * (n + 1)
    by_marks = {}  # vertex mark -> {edge mark: label}
    for v in range(1, n + 1):
        th = theta[v]
        known = by_marks.get(th)
        if known is None:
            known = by_marks[th] = {}
        row = []
        for xi in x[v]:
            label = known.get(xi)
            if label is None:
                label = known[xi] = state.send((th, 0, xi))
            row.append(label)
        t_cur[v] = row

    for _ in range(1, h):
        is_star_old = state.is_star
        t_old = t_cur
        state = _LabelState()
        t_cur = [None] * (n + 1)
        for v in range(1, n + 1):
            d = deg[v]
            row = [0] * d
            t_cur[v] = row
            xv = x[v]
            gv = gamma[v]
            gtv = gammat[v]
            if d > delta:
                for i in range(d):
                    row[i] = state.send((0, xv[i]))
                continue
            # Collect last round's inbound messages paired with the mark
            # toward v; count how many of them are stars.
            s = [None] * d
            n_star = 0
            i_star = -1
            for i in range(d):
                inbound = t_old[gv[i]][gtv[i] - 1]
                s[i] = (inbound, xv[i])
                if is_star_old[inbound]:
                    n_star += 1
                    i_star = i
            if n_star >= 2:
                for i in range(d):
                    row[i] = state.send((0, xv[i]))
            elif n_star == 1:
                # Everyone except the star sender gets a star back; the
                # star sender receives the aggregate of the others.
                order = sorted(range(d), key=lambda j: s[j])
                t = [theta[v], d - 1]
                for j in order:
                    if j != i_star:
                        t.extend(s[j])
                        row[j] = state.send((0, xv[j]))
                t.append(xv[i_star])
                row[i_star] = state.send(tuple(t))
            else:
                order = sorted(range(d), key=lambda j: s[j])
                for i in range(d):
                    t = [theta[v], d - 1]
                    for j in order:
                        if j != i:
                            t.extend(s[j])
                    t.append(xv[i])
                    row[i] = state.send(tuple(t))

    # Symmetrization: if the mirror side is a star, or either endpoint
    # degree exceeds delta, this side must be a star too.
    for v in range(1, n + 1):
        row = t_cur[v]
        xv = x[v]
        gv = gamma[v]
        gtv = gammat[v]
        dv_big = deg[v] > delta
        for i in range(deg[v]):
            if state.is_star[row[i]]:
                continue
            w = gv[i]
            if state.is_star[t_cur[w][gtv[i] - 1]] or dv_big or deg[w] > delta:
                row[i] = state.send((0, xv[i]))

    c = [()] * (n + 1)
    for v in range(1, n + 1):
        gv = gamma[v]
        gtv = gammat[v]
        row = t_cur[v]
        c[v] = tuple((row[i], t_cur[gv[i]][gtv[i] - 1]) for i in range(deg[v]))

    return EdgeTypeTable(
        tcount=state.count,
        t_is_star=tuple(state.is_star),
        t_mark=tuple(state.mark),
        c=tuple(c),
    )


def _extract_depth_one(g: NeighborListGraph, delta: int) -> EdgeTypeTable:
    """extract_types for h = 1, on flat arrays of the directed edges.

    With no message rounds a side's label is its round-0 message (own
    mark, 0, edge mark toward self), which is never a star, so the
    symmetrization stars exactly the edges with an endpoint of degree
    above delta.  Labels are numbered in first-seen order over the edges
    in (vertex, neighbor) order, round-0 messages first and then the star
    messages (0, edge mark), as the general loop numbers them.
    """
    n = g.n
    deg = np.array(g.deg, dtype=np.int64)
    start = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(deg, out=start[1:])
    total = int(start[-1])

    def flat(rows):
        return np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=total)

    nbr = flat(g.gamma)
    mirror = start[nbr] + flat(g.gammat) - 1  # slot of the reverse edge
    mark = flat(g.x)
    own_mark = np.repeat(np.array(g.theta, dtype=np.int64), deg)

    def first_seen(keys):
        """Distinct keys in order of first appearance, and each key's rank."""
        uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
        order = np.argsort(first, kind="stable")
        rank = np.empty(len(uniq), dtype=np.int64)
        rank[order] = np.arange(len(uniq))
        return uniq[order], rank[inverse.reshape(-1)]

    base = int(mark.max()) + 1 if total else 1
    messages, label = first_seen(own_mark * base + mark)
    label += 1
    is_star = [0] + [0] * len(messages)
    t_mark = [0] + (messages % base).tolist()

    big = deg > delta
    star = big[np.repeat(np.arange(n + 1), deg)] | big[nbr]
    star_marks, star_rank = first_seen(mark[star])
    label[star] = 1 + len(messages) + star_rank
    is_star += [1] * len(star_marks)
    t_mark += star_marks.tolist()
    tcount = len(is_star) - 1

    # c pairs each side's label with the mirror side's; equal pairs share
    # one tuple.
    pair_keys, pair_of = np.unique(label * (tcount + 1) + label[mirror], return_inverse=True)
    pairs = [divmod(k, tcount + 1) for k in pair_keys.tolist()]
    flat_pairs = [pairs[k] for k in pair_of.reshape(-1).tolist()]
    bounds = start.tolist()
    c = ((),) + tuple(tuple(flat_pairs[bounds[v]:bounds[v + 1]]) for v in range(1, n + 1))
    return EdgeTypeTable(tcount=tcount, t_is_star=tuple(is_star), t_mark=tuple(t_mark), c=c)


@dataclass(frozen=True)
class MarkedTree:
    """Rooted marked tree; children carry both edge marks.

    Each child entry is (mark_to_child, mark_to_root, subtree): the edge
    mark pointing at the child, the mark pointing back at this node, and
    the child's subtree.
    """

    mark: int
    children: tuple = ()


def lambda_canonical(k: int, x: int, tree: MarkedTree, delta) -> tuple:
    """Canonical integer sequence of (x, tree) for trees of depth <= k.

    Prefix-free over mark/tree pairs; degenerates to (0, x) exactly when
    the pair falls outside the depth-(k+1) family with root degree < delta
    and all other degrees <= delta.  Children are serialized in sorted
    order, so the result is an isomorphism invariant.
    """
    if k == 0:
        return (tree.mark, 0, x)
    if len(tree.children) >= delta:
        return (0, x)
    parts = []
    for mark_to_child, mark_to_root, sub in tree.children:
        s = lambda_canonical(k - 1, mark_to_child, sub, delta) + (mark_to_root,)
        if s[0] == 0:
            return (0, x)
        parts.append(s)
    parts.sort()
    out = [tree.mark, len(tree.children)]
    for s in parts:
        out.extend(s)
    out.append(x)
    return tuple(out)


def unrolled_subtree(g: NeighborListGraph, root: int, banned: int, depth: int) -> MarkedTree:
    """Depth-limited non-backtracking unrolling of g from root.

    The branch toward `banned` is removed at the root; below that, each
    node expands to all neighbors except the one it was reached from
    (walks may revisit vertices of g, as in the universal cover).
    """

    def build(v: int, parent: int, d: int) -> MarkedTree:
        if d == 0:
            return MarkedTree(mark=g.theta[v])
        children = []
        for i in range(g.deg[v]):
            w = g.gamma[v][i]
            if w == parent:
                continue
            sub = build(w, v, d - 1)
            # Mark toward the child w is xp[v][i]; back toward v is x[v][i].
            children.append((g.xp[v][i], g.x[v][i], sub))
        return MarkedTree(mark=g.theta[v], children=tuple(children))

    return build(root, banned, depth)


def oracle_directed_type(g: NeighborListGraph, v: int, i: int, h: int, delta: int):
    """Reference type of the directed edge (v -> its i-th neighbor).

    Computed straight from the definitions: unroll the universal cover to
    depth h-1 on both sides, canonicalize, and apply the star rule.  Kept
    independent of the message-passing code path.
    """
    w = g.gamma[v][i]
    j = g.gammat[v][i] - 1
    lam_v = lambda_canonical(h - 1, g.x[v][i], unrolled_subtree(g, v, w, h - 1), delta)
    lam_w = lambda_canonical(h - 1, g.x[w][j], unrolled_subtree(g, w, v, h - 1), delta)
    if lam_v[0] == 0 or lam_w[0] == 0 or g.deg[v] > delta or g.deg[w] > delta:
        return ("star", g.x[v][i])
    return ("tree", lam_v)
