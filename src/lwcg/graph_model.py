"""Simple marked graphs: edge-list text format and neighbor-list form.

A marked graph on vertices 1..n carries a vertex mark in 1..sigma_v per
vertex and a pair of directed edge marks in 1..sigma_e per edge.  An edge
record (v, w, x, xp) holds the mark x pointing toward v and xp toward w.

The edge-list form keeps its records in one validated int64 array, 32
bytes per record, converted once.  The neighbor-list form is one set of
flat half-edge arrays, the layout every encoder stage reads; its
per-vertex tuples are views for the reference oracles, the demos and the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

import numpy as np


class GraphFormatError(ValueError):
    """Malformed edge-list input; carries a 1-based line number when known.

    record names the EdgeListGraph record that failed validation: 0 for
    the vertex marks, i + 1 for edges[i], None when no single record did.
    """

    def __init__(self, message: str, line: int | None = None, record: int | None = None):
        self.message, self.line, self.record = message, line, record
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


@dataclass(frozen=True, eq=False)
class EdgeListGraph:
    """Marked graph as one read-only int64 array of edge records, 32 bytes each.

    edges[i] = (v, w, x, xp) with x the mark toward v and xp the mark
    toward w; each unordered pair appears once, in either orientation.
    An int64 (m, 4) array is kept; other record sequences are converted once.
    """

    n: int
    sigma_v: int
    sigma_e: int
    theta: tuple          # n vertex marks
    edges: np.ndarray     # (m, 4) int64 records (v, w, x, xp)

    def __post_init__(self):
        if self.n < 1 or self.sigma_v < 1 or self.sigma_e < 1:
            raise GraphFormatError("n, |vertex marks| and |edge marks| must be >= 1")
        if len(self.theta) != self.n:
            raise GraphFormatError(f"expected {self.n} vertex marks, got {len(self.theta)}",
                                   record=0)
        for v, mark in enumerate(self.theta, start=1):
            if not 1 <= mark <= self.sigma_v:
                raise GraphFormatError(f"vertex {v}: mark {mark} outside 1..{self.sigma_v}",
                                       record=0)
        rec, record = _first_bad_record(self.edges, self.n, self.sigma_e)
        if record is not None:
            raise GraphFormatError(_record_error(self.edges[record - 1], self.n, self.sigma_e),
                                   record=record)
        rec.flags.writeable = False
        object.__setattr__(self, "edges", rec)

    m = property(lambda g: len(g.edges))


_INT64_MAX = 2**63 - 1


def _first_bad_record(edges, n, sigma_e):
    """The records as an (m, 4) int64 array, and the 1-based index of the
    first one that fails a check of `_record_error` or repeats an earlier
    pair, or None; one pass over the array.  A record that does not fit
    one, with other than 4 fields or a field beyond int64, fails, and only
    the records before it are checked.
    """
    m, rec = len(edges), edges
    if not (isinstance(edges, np.ndarray) and edges.dtype == np.int64 and edges.shape[1:] == (4,)):
        try:
            rec = np.fromiter(chain.from_iterable(edges), np.int64, 4 * m).reshape(m, 4)
        except (ValueError, OverflowError):
            rec = None
        if rec is None or set(map(len, edges)) - {4}:
            odd = next(i for i, r in enumerate(edges)
                       if len(r) != 4 or not all(-_INT64_MAX - 1 <= f <= _INT64_MAX for f in r))
            return None, _first_bad_record(edges[:odd], n, sigma_e)[1] or odd + 1
    v, w, x, xp = rec.T
    top = min(sigma_e, _INT64_MAX)
    bad = ((v < 1) | (v > n) | (w < 1) | (w > n) | (v == w)
           | (x < 1) | (x > top) | (xp < 1) | (xp > top))
    # A bad record's key may collide with a later one's, but it fails
    # first anyway: the first flagged record is bad or a true duplicate.
    key = np.minimum(v, w) * (n + 1) + np.maximum(v, w)
    repeat = np.ones(m, dtype=bool)
    repeat[np.unique(key, return_index=True)[1]] = False
    flagged = np.flatnonzero(bad | repeat)
    return rec, int(flagged[0]) + 1 if len(flagged) else None


def _record_error(edge, n, sigma_e) -> str:
    """The message for a record that `_first_bad_record` flagged."""
    if len(edge) != 4:
        return f"edge record {tuple(edge)}: expected 4 fields"
    v, w, x, xp = edge
    if not (1 <= v <= n and 1 <= w <= n):
        return f"edge ({v},{w}): endpoint out of range"
    if v == w:
        return f"self loop at vertex {v}"
    if not (1 <= x <= sigma_e and 1 <= xp <= sigma_e):
        return f"edge ({v},{w}): mark outside 1..{sigma_e}"
    if max(x, xp) > _INT64_MAX:
        return f"edge ({v},{w}): mark beyond 64 bits"
    return f"duplicate edge {{{min(v, w)},{max(v, w)}}}"


def per_vertex(start: np.ndarray, flat: list) -> tuple:
    """flat[start[v]:start[v + 1]] as a tuple per vertex v, after an empty slot 0."""
    bounds = start.tolist()
    return ((),) + tuple(tuple(flat[bounds[v]:bounds[v + 1]]) for v in range(1, len(bounds) - 1))


def _view(values):
    """Per-vertex tuples of the half-edge array values(g), built on first use."""
    return cached_property(lambda g: per_vertex(g.start, values(g).tolist()))


@dataclass(frozen=True, eq=False)
class NeighborListGraph:
    """Neighbor-list form as flat half-edge arrays.

    Every edge gives two half-edges, one per endpoint, numbered in (owner,
    neighbor) order: vertex v owns start[v]:start[v + 1], its neighbors
    strictly increasing.  Half-edge e runs from owner[e] to nbr[e],
    mark[e] is the edge mark toward its owner and mirror[e] is the
    reverse half-edge, so mark[mirror[e]] is the mark toward the neighbor.

    The per-vertex tuples are views built on first use, slot 0 padding:
    deg[v], gamma[v] (the neighbors), x[v] and xp[v] (the marks toward v
    and toward each neighbor), and gammat[v][i], the 1-based index of v
    inside gamma[gamma[v][i]].
    """

    n: int
    sigma_v: int
    sigma_e: int
    theta: tuple          # padded: theta[v] for v in 1..n
    start: np.ndarray     # n + 2 offsets
    owner: np.ndarray
    nbr: np.ndarray
    mark: np.ndarray
    mirror: np.ndarray

    deg = cached_property(lambda g: tuple(np.diff(g.start).tolist()))
    gamma = _view(lambda g: g.nbr)
    gammat = _view(lambda g: g.mirror - g.start[g.nbr] + 1)
    x = _view(lambda g: g.mark)
    xp = _view(lambda g: g.mark[g.mirror])
    m = property(lambda g: len(g.nbr) // 2)


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

    edges = [ints(lineno, fields, 4, "edge record") for lineno, fields in rows[2:]]
    try:
        return EdgeListGraph(n=n, sigma_v=sigma_v, sigma_e=sigma_e, theta=theta, edges=edges)
    except GraphFormatError as e:
        # The header was checked above; records follow it one per line.
        raise GraphFormatError(e.message, rows[1 + e.record][0]) from None


def canonical_edges(g: EdgeListGraph) -> tuple:
    """Edge records normalized to v < w and sorted, as tuples of Python
    ints; the equality test.  Pairs are distinct, so v (n + 1) + w orders them."""
    rec = g.edges
    rec = np.where((rec[:, 0] > rec[:, 1])[:, None], rec[:, [1, 0, 3, 2]], rec)
    return tuple(zip(*rec[np.argsort(rec[:, 0] * (g.n + 1) + rec[:, 1])].T.tolist()))


def format_edge_list(g: EdgeListGraph) -> str:
    """Render in the text format, edges in canonical order."""
    lines = [f"{g.n} {g.m} {g.sigma_v} {g.sigma_e}",
             " ".join(str(t) for t in g.theta)]
    for v, w, x, xp in canonical_edges(g):
        lines.append(f"{v} {w} {x} {xp}")
    return "\n".join(lines) + "\n"


def preprocess(g: EdgeListGraph) -> NeighborListGraph:
    """Convert to flat half-edge arrays sorted by (owner, neighbor).

    Record i gives half-edge i from v to w and half-edge m + i back; one
    sort lays out every neighbor list increasing, so the result does not
    depend on record order or orientation.
    """
    n, m = g.n, g.m
    v, w, x, xp = g.edges.T
    owner, nbr = np.concatenate((v, w)), np.concatenate((w, v))
    order = np.argsort(owner * (n + 1) + nbr)  # distinct keys: the graph is simple
    slot = np.empty(2 * m, dtype=np.int64)  # sorted position of each half-edge
    slot[order] = np.arange(2 * m)
    start = np.zeros(n + 2, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=n + 1), out=start[1:])
    return NeighborListGraph(
        n=n, sigma_v=g.sigma_v, sigma_e=g.sigma_e, theta=(0,) + tuple(g.theta),
        start=start, owner=owner[order], nbr=nbr[order],
        mark=np.concatenate((x, xp))[order],
        mirror=np.concatenate((slot[m:], slot[:m]))[order],
    )
