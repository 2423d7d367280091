"""Integer edge-type labels via rounds of message passing.

Every directed edge (v, w) carries a description of the depth-limited
tree hanging off v when the edge to w is cut, together with the edge mark
pointing at v.  Labels are produced in h-1 rounds with a degree cap
delta: any neighborhood that exceeds the cap collapses to a degenerate
"star" label that only remembers the edge mark.  A final symmetrization
pass forces both sides of an edge to star when either side is starred or
either endpoint degree exceeds delta.

One path serves every h.  The directed edges live in flat arrays in
(vertex, neighbor) order; round 0, the symmetrization and the label pairs
are numpy passes over them, and each message round is one loop over the
vertices that reads the labels coming back along the reverse edges.
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


def _first_seen(keys):
    """Distinct keys in order of first appearance, and each key's rank."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return uniq[order], rank[inverse.reshape(-1)]


def extract_types(g: NeighborListGraph, h: int, delta: int) -> EdgeTypeTable:
    """Label all directed edges of g with h-1 message rounds, cap delta.

    The directed edges are numbered in (vertex, neighbor) order and every
    per-edge quantity is one flat array over them; label[e] is the current
    label of side e and label[mirror[e]] the one its neighbor sends back.
    Labels are numbered in first-seen order over that traversal.
    """
    if h < 1 or delta < 1:
        raise ValueError("need h >= 1 and delta >= 1")
    n, x, theta = g.n, g.x, g.theta
    deg = np.array(g.deg, dtype=np.int64)
    start = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(deg, out=start[1:])
    total = int(start[-1])

    def flat(rows):
        return np.fromiter(chain.from_iterable(rows), dtype=np.int64, count=total)

    nbr = flat(g.gamma)
    mirror = start[nbr] + flat(g.gammat) - 1  # slot of the reverse edge
    mark = flat(x)
    owner = np.repeat(np.arange(n + 1), deg)

    # Round 0: each side's message is (own mark, 0, edge mark toward self);
    # sending the distinct messages in first-seen order numbers them 1, 2, ...
    base = int(mark.max()) + 1 if total else 1
    messages, label = _first_seen(np.array(theta, dtype=np.int64)[owner] * base + mark)
    label += 1
    state = _LabelState()
    for k in messages.tolist():
        state.send((k // base, 0, k % base))

    for _ in range(1, h):
        is_star_old = state.is_star
        inbound = label[mirror].tolist()
        state = _LabelState()
        send = state.send
        out = []
        for v in range(1, n + 1):
            xv = x[v]
            d = len(xv)
            if d <= delta:
                # Last round's inbound messages paired with the mark toward v.
                s = list(zip(inbound[len(out):len(out) + d], xv))
                stars = [i for i in range(d) if is_star_old[s[i][0]]]
            if d > delta or len(stars) >= 2:
                out.extend([send((0, xi)) for xi in xv])
                continue
            row = [0] * d
            order = sorted(range(d), key=s.__getitem__)
            if stars:
                # Everyone except the star sender gets a star back; the
                # star sender receives the aggregate of the others.
                i_star = stars[0]
                t = [theta[v], d - 1]
                for j in order:
                    if j != i_star:
                        t.extend(s[j])
                        row[j] = send((0, xv[j]))
                t.append(xv[i_star])
                row[i_star] = send(tuple(t))
            else:
                for i in range(d):
                    t = [theta[v], d - 1]
                    for j in order:
                        if j != i:
                            t.extend(s[j])
                    t.append(xv[i])
                    row[i] = send(tuple(t))
            out.extend(row)
        label = np.array(out, dtype=np.int64)

    # Symmetrization: if the mirror side is a star, or either endpoint
    # degree exceeds delta, this side must be a star too.
    star = np.array(state.is_star, dtype=bool)
    big = deg > delta
    starred = ~star[label] & (star[label[mirror]] | big[owner] | big[nbr])
    star_marks, star_rank = _first_seen(mark[starred])
    sent = [state.send((0, xi)) for xi in star_marks.tolist()]
    label[starred] = np.array(sent, dtype=np.int64)[star_rank]

    # c pairs each side's label with the mirror side's; equal pairs share
    # one tuple.
    tcount = state.count
    pair_keys, pair_of = np.unique(label * (tcount + 1) + label[mirror], return_inverse=True)
    pairs = [divmod(k, tcount + 1) for k in pair_keys.tolist()]
    flat_pairs = [pairs[k] for k in pair_of.reshape(-1).tolist()]
    bounds = start.tolist()
    c = ((),) + tuple(tuple(flat_pairs[bounds[v]:bounds[v + 1]]) for v in range(1, n + 1))
    return EdgeTypeTable(tcount=tcount, t_is_star=tuple(state.is_star),
                         t_mark=tuple(state.mark), c=c)


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
