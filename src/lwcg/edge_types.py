"""Integer edge-type labels via rounds of message passing.

Every directed edge (v, w) carries a description of the depth-limited
tree hanging off v when the edge to w is cut, together with the edge mark
pointing at v.  Labels are produced in h-1 rounds with a degree cap
delta: any neighborhood that exceeds the cap collapses to a degenerate
"star" label that only remembers the edge mark.  A final symmetrization
pass forces both sides of an edge to star when either side is starred or
either endpoint degree exceeds delta.

One path serves every h.  It reads the half-edge arrays of
`NeighborListGraph` as they are and returns one label per half-edge plus
a star mask over them.  Round 0 and the symmetrization are numpy passes,
and each message round is one loop over the vertices that slices one mark
list and reads the labels coming back along the mirror half-edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph_model import NeighborListGraph, per_vertex


@dataclass(frozen=True, eq=False)
class EdgeTypeTable:
    """Result of type extraction over the graph's half-edges.

    label[e] in 1..tcount is the label of half-edge e and star[e] whether
    it is a star; symmetrization stars both sides of an edge or neither.
    t_is_star and t_mark are 1-based per label (slot 0 padding).  c[v][i],
    a view built on first use, pairs the label of v's i-th half-edge with
    the label of its mirror.
    """

    tcount: int
    t_is_star: tuple
    t_mark: tuple
    label: np.ndarray
    star: np.ndarray
    start: np.ndarray     # the graph's offsets and mirrors, for c
    mirror: np.ndarray

    @cached_property
    def c(self) -> tuple:
        pairs = list(zip(self.label.tolist(), self.label[self.mirror].tolist()))
        return per_vertex(self.start, pairs)


def _first_seen(keys):
    """Distinct keys in order of first appearance, and each key's rank."""
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[order] = np.arange(len(uniq))
    return uniq[order], rank[inverse.reshape(-1)]


def number_rows(rows):
    """Dense numbers 0, 1, ... of the rows of an (m, w) array, w >= 1, equal
    rows sharing one: one np.unique over the rows as byte strings, so the
    numbers follow byte order, not the rows' numeric order."""
    rows = np.ascontiguousarray(rows)
    return np.unique(rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel(),
                     return_inverse=True)[1]


def extract_types(g: NeighborListGraph, h: int, delta: int) -> EdgeTypeTable:
    """Label all half-edges of g with h-1 message rounds, cap delta.

    Every per-edge quantity is one flat array over g's half-edges, in
    (owner, neighbor) order; label[e] is the current label of side e and
    label[mirror[e]] the one its neighbor sends back.  Labels are numbered
    in first-seen order over that traversal.
    """
    if h < 1 or delta < 1:
        raise ValueError("need h >= 1 and delta >= 1")
    n, theta = g.n, g.theta
    start, owner, nbr, mark, mirror = g.start, g.owner, g.nbr, g.mark, g.mirror

    # Round 0: each side's message is (own mark, 0, edge mark toward self).
    # Each round numbers its distinct messages 1, 2, ... in first-seen
    # order by one dict; a message is a star iff it starts with 0, and it
    # ends with its mark.  Round 0's key packs the dense ranks of the two
    # marks, which fit int64 whatever the marks; first-seen order needs
    # only key equality.
    vm, vertex_rank = np.unique(np.array(theta, dtype=np.int64), return_inverse=True)
    em, edge_rank = np.unique(mark, return_inverse=True)
    messages, label = _first_seen(vertex_rank[owner] * len(em) + edge_rank)
    label += 1
    pairs = zip(vm[messages // len(em)].tolist(), em[messages % len(em)].tolist())
    labels = {(v, 0, x): i for i, (v, x) in enumerate(pairs, 1)}

    for _ in range(1, h):
        is_star_old = [False, *(m[0] == 0 for m in labels)]
        inbound = label[mirror].tolist()
        marks, bounds = mark.tolist(), start.tolist()
        labels = {}
        send = labels.setdefault
        out = []
        for v in range(1, n + 1):
            lo, hi = bounds[v], bounds[v + 1]
            xv = marks[lo:hi]
            d = hi - lo
            if d <= delta:
                # Last round's inbound messages paired with the mark toward v.
                s = list(zip(inbound[lo:hi], xv))
                stars = [i for i in range(d) if is_star_old[s[i][0]]]
            if d > delta or len(stars) >= 2:
                # Every side gets its mark's star.
                out.extend([send((0, xi), len(labels) + 1) for xi in xv])
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
                        row[j] = send((0, xv[j]), len(labels) + 1)
                t.append(xv[i_star])
                row[i_star] = send(tuple(t), len(labels) + 1)
            else:
                for i in range(d):
                    t = [theta[v], d - 1]
                    for j in order:
                        if j != i:
                            t.extend(s[j])
                    t.append(xv[i])
                    row[i] = send(tuple(t), len(labels) + 1)
            out.extend(row)
        label = np.array(out, dtype=np.int64)

    # Symmetrization: if the mirror side is a star, or either endpoint
    # degree exceeds delta, this side must be a star too.
    star = np.array([False, *(m[0] == 0 for m in labels)])[label]
    big = np.diff(start) > delta
    starred = ~star & (star[mirror] | big[owner] | big[nbr])
    star_marks, star_rank = _first_seen(mark[starred])
    sent = [labels.setdefault((0, xi), len(labels) + 1) for xi in star_marks.tolist()]
    label[starred] = np.array(sent, dtype=np.int64)[star_rank]
    return EdgeTypeTable(tcount=len(labels), t_is_star=(0, *(int(m[0] == 0) for m in labels)),
                         t_mark=(0, *(m[-1] for m in labels)), label=label, star=star | starred,
                         start=start, mirror=mirror)


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
