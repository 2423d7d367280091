"""Simple marked graphs: edge-list text format and neighbor-list form.

A marked graph on vertices 1..n carries a vertex mark in 1..sigma_v per
vertex and a pair of directed edge marks in 1..sigma_e per edge.  An edge
record (v, w, x, xp) holds the mark x pointing toward v and xp toward w.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain

import numpy as np


class GraphFormatError(ValueError):
    """Malformed edge-list input; carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True)
class EdgeListGraph:
    """Marked graph as a list of edge records.

    edges[i] = (v, w, x, xp) with x the mark toward v and xp the mark
    toward w; each unordered pair appears once, in either orientation.
    """

    n: int
    sigma_v: int
    sigma_e: int
    theta: tuple          # n vertex marks
    edges: tuple          # m records (v, w, x, xp)

    def __post_init__(self):
        if self.n < 1 or self.sigma_v < 1 or self.sigma_e < 1:
            raise GraphFormatError("n, |vertex marks| and |edge marks| must be >= 1")
        if len(self.theta) != self.n:
            raise GraphFormatError(f"expected {self.n} vertex marks, got {len(self.theta)}")
        for v, mark in enumerate(self.theta, start=1):
            if not 1 <= mark <= self.sigma_v:
                raise GraphFormatError(f"vertex {v}: mark {mark} outside 1..{self.sigma_v}")
        seen = set()
        for v, w, x, xp in self.edges:
            if not (1 <= v <= self.n and 1 <= w <= self.n):
                raise GraphFormatError(f"edge ({v},{w}): endpoint out of range")
            if v == w:
                raise GraphFormatError(f"self loop at vertex {v}")
            if not (1 <= x <= self.sigma_e and 1 <= xp <= self.sigma_e):
                raise GraphFormatError(f"edge ({v},{w}): mark outside 1..{self.sigma_e}")
            key = (v, w) if v < w else (w, v)
            if key in seen:
                raise GraphFormatError(f"duplicate edge {{{key[0]},{key[1]}}}")
            seen.add(key)

    @property
    def m(self) -> int:
        return len(self.edges)


@dataclass(frozen=True)
class NeighborListGraph:
    """Neighbor-list form; all per-vertex sequences use slot 0 as padding.

    gamma[v] lists the neighbors of v strictly increasing, x[v][i] is the
    mark toward v on the edge to gamma[v][i], xp[v][i] the mark toward the
    neighbor, and gammat[v][i] is the 1-based index of v inside
    gamma[gamma[v][i]].
    """

    n: int
    sigma_v: int
    sigma_e: int
    theta: tuple          # padded: theta[v] for v in 1..n
    deg: tuple
    gamma: tuple
    gammat: tuple
    x: tuple
    xp: tuple

    @property
    def m(self) -> int:
        return sum(self.deg[1:]) // 2


def parse_edge_list(text: str) -> EdgeListGraph:
    """Parse the edge-list text format.

    Format: header "n m |theta| |xi|", a line of n vertex marks, then m
    lines "v w x xp".  Blank lines and '#' comments are skipped.
    """
    rows = []  # (line_number, fields)
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        rows.append((lineno, line.split()))

    if not rows:
        raise GraphFormatError("empty document")

    def ints(lineno, fields, count, what):
        if len(fields) != count:
            raise GraphFormatError(f"expected {count} fields for {what}, got {len(fields)}", lineno)
        try:
            return [int(f) for f in fields]
        except ValueError:
            raise GraphFormatError(f"non-integer field in {what}", lineno) from None

    lineno, fields = rows[0]
    n, m, sigma_v, sigma_e = ints(lineno, fields, 4, "header")
    if n < 1 or m < 0 or sigma_v < 1 or sigma_e < 1:
        raise GraphFormatError("header values out of range", lineno)
    if len(rows) != 2 + m:
        raise GraphFormatError(f"expected {2 + m} content lines, got {len(rows)}")

    lineno, fields = rows[1]
    theta = tuple(ints(lineno, fields, n, "vertex marks"))

    edges = []
    for lineno, fields in rows[2:]:
        edges.append(tuple(ints(lineno, fields, 4, "edge record")))
    try:
        return EdgeListGraph(n=n, sigma_v=sigma_v, sigma_e=sigma_e,
                             theta=theta, edges=tuple(edges))
    except GraphFormatError:
        # Re-validate per record to attach the offending line number.
        seen = set()
        for v, mark in enumerate(theta, start=1):
            if not 1 <= mark <= sigma_v:
                raise GraphFormatError(f"vertex {v}: mark {mark} outside 1..{sigma_v}",
                                       rows[1][0]) from None
        for lineno, fields in rows[2:]:
            v, w, x, xp = [int(f) for f in fields]
            if v == w:
                raise GraphFormatError("self loop", lineno) from None
            if not (1 <= v <= n and 1 <= w <= n):
                raise GraphFormatError("endpoint out of range", lineno) from None
            if not (1 <= x <= sigma_e and 1 <= xp <= sigma_e):
                raise GraphFormatError("edge mark out of range", lineno) from None
            key = (min(v, w), max(v, w))
            if key in seen:
                raise GraphFormatError(f"duplicate edge {{{key[0]},{key[1]}}}", lineno) from None
            seen.add(key)
        raise


def canonical_edges(g: EdgeListGraph) -> tuple:
    """Edge records normalized to v < w and sorted; the equality test."""
    out = []
    for v, w, x, xp in g.edges:
        if v > w:
            v, w, x, xp = w, v, xp, x
        out.append((v, w, x, xp))
    out.sort()
    return tuple(out)


def format_edge_list(g: EdgeListGraph) -> str:
    """Render in the text format, edges in canonical order."""
    lines = [f"{g.n} {g.m} {g.sigma_v} {g.sigma_e}",
             " ".join(str(t) for t in g.theta)]
    for v, w, x, xp in canonical_edges(g):
        lines.append(f"{v} {w} {x} {xp}")
    return "\n".join(lines) + "\n"


def preprocess(g: EdgeListGraph) -> NeighborListGraph:
    """Convert to neighbor lists sorted by neighbor.

    Each record gives two half-edges, one per endpoint; sorting them by
    (owner, neighbor) lays out every neighbor list increasing, so the
    result does not depend on record order or orientation.  gammat of a
    half-edge is one plus the rank of its reverse within the neighbor's
    list.  The sort and the rank bookkeeping run on flat arrays, and each
    per-vertex tuple is one slice of them.
    """
    n, m = g.n, len(g.edges)
    rec = np.fromiter(chain.from_iterable(g.edges), dtype=np.int64, count=4 * m).reshape(m, 4)
    v, w, x, xp = rec.T
    own = np.concatenate((v, w))
    nbr = np.concatenate((w, v))
    order = np.lexsort((nbr, own))
    deg = np.bincount(own, minlength=n + 1)
    start = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(deg, out=start[1:])
    slot = np.empty(2 * m, dtype=np.int64)  # sorted position of each half-edge
    slot[order] = np.arange(2 * m)
    rank = slot - start[own]
    mirror_rank = np.concatenate((rank[m:], rank[:m]))
    bounds = start.tolist()
    vertex = list(range(n + 1))  # one int object per vertex id, shared

    def per_vertex(values, shared=None) -> tuple:
        flat = values[order].tolist()
        if shared is not None:
            flat = list(map(shared.__getitem__, flat))
        return ((),) + tuple(tuple(flat[bounds[u]:bounds[u + 1]]) for u in range(1, n + 1))

    return NeighborListGraph(
        n=n, sigma_v=g.sigma_v, sigma_e=g.sigma_e, theta=(0,) + tuple(g.theta),
        deg=tuple(deg.tolist()),
        gamma=per_vertex(nbr, vertex),
        gammat=per_vertex(mirror_rank + 1),
        x=per_vertex(np.concatenate((x, xp))),
        xp=per_vertex(np.concatenate((xp, x))),
    )
