"""Full marked-graph codec: header, type tables, star channels, vertex
types, and one ranking codec per partition graph.

Wire layout (MSB-first bits, zero-padded to a byte boundary at the end):

  magic "LWCG", version byte 0x01,
  ED(n) ED(|xi|) ED(|theta|) ED(h) ED(delta),
  ED(1+TCount), then per label: star bit + mark in width(|xi|) bits,
  star-vertex bitmap            (sequence codec),
  star edges                    (flagged neighbor lists per mark pair),
  vertex types                  (dictionary + id sequence),
  ED(1+#partition graphs), then per key (i, i') in increasing order:
      i and i' in width(TCount) bits,
      i < i':  ED(1+f)                      (bipartite rank)
      i == i': ED(1+f) ED(1+len) ED(1+cp_j) (simple rank + checkpoints)

ED is the Elias delta code; width(x) = 1 + floor(log2(max(x, 1))).
"""

from __future__ import annotations

import functools
import gc

from .bipartite import BipartiteInstance, b_decode, b_encode
from .bits import BitReader, BitWriter, CodecError, width
from .edge_types import EdgeTypeTable, extract_types
from .graph_model import EdgeListGraph, GraphFormatError, NeighborListGraph, preprocess
from .sequences import decode_sequence, encode_sequence
from .simple_graph import SimpleInstance, s_decode, s_encode

MAGIC = b"LWCG"
VERSION = 1


def find_star_vertices(g: NeighborListGraph, table: EdgeTypeTable) -> list:
    """Bitmap (1-based) of vertices incident to at least one star edge."""
    s = [0] * (g.n + 1)
    is_star = table.t_is_star
    for v in range(1, g.n + 1):
        for t, tp in table.c[v]:
            if is_star[t] or is_star[tp]:
                s[v] = 1
                break
    return s


def encode_star_edges(g: NeighborListGraph, table: EdgeTypeTable, s, out: BitWriter) -> None:
    """Star-edge channel: per mark pair, flagged neighbor indices.

    For each (x, xp) in row-major order over the mark alphabet and each
    star vertex v increasing: a 1 bit plus the neighbor index for every
    incident star edge with marks (x, xp) whose far endpoint is above v,
    then a closing 0 bit.  One pass buckets the edges by mark pair; each
    record and each run of closing 0 bits is one field, and one
    write_fields call writes them all.
    """
    nbits = width(g.n)
    flag = 1 << nbits
    is_star = table.t_is_star
    star = [v for v in range(1, g.n + 1) if s[v]]
    rows = {}  # (x, xp) -> [(position of v in star, far endpoint w), ...]
    for pos, v in enumerate(star):
        for (t, tp), w, x, xp in zip(table.c[v], g.gamma[v], g.x[v], g.xp[v]):
            if w > v and (is_star[t] or is_star[tp]):
                rows.setdefault((x, xp), []).append((pos, w))
    fields = []  # value, width, value, width, ...
    for x in range(1, g.sigma_e + 1):
        for xp in range(1, g.sigma_e + 1):
            closed = 0  # star vertices whose closing 0 bit is written
            for pos, w in rows.get((x, xp), ()):
                if pos > closed:
                    fields += (0, pos - closed)
                    closed = pos
                fields += (flag | w, nbits + 1)
            fields += (0, len(star) - closed)
    out.write_fields(fields[0::2], fields[1::2])


def decode_star_edges(reader: BitReader, s, n: int, sigma_e: int) -> list:
    """Inverse of encode_star_edges; returns (v, w, x, xp) records.  A run
    of 0 bits closes star vertices; a 1 bit starts a record of the next."""
    nbits = width(n)
    flag = 1 << nbits
    star = [v for v in range(1, n + 1) if s[v]]
    nstar = len(star)
    read_zeros, read_fixed = reader.read_zeros, reader.read_fixed
    edges = []
    for x in range(1, sigma_e + 1):
        for xp in range(1, sigma_e + 1):
            closed = read_zeros(nstar)
            while closed < nstar:
                v = star[closed]
                w = read_fixed(nbits + 1) ^ flag
                if not v < w <= n:
                    raise CodecError(f"star edge endpoint {w} out of range")
                edges.append((v, w, x, xp))
                closed += read_zeros(nstar - closed)
    return edges


def find_deg(g: NeighborListGraph, table: EdgeTypeTable) -> list:
    """Per-vertex degree profiles: (label, mirror label) -> count, 1-based."""
    is_star = table.t_is_star
    deg = [None] * (g.n + 1)
    for v in range(1, g.n + 1):
        prof = {}
        for key in table.c[v]:
            if not (is_star[key[0]] or is_star[key[1]]):
                prof[key] = prof.get(key, 0) + 1
        deg[v] = prof
    return deg


def encode_vertex_types(deg, theta, n, delta, sigma_e, sigma_v, tcount, out: BitWriter,
                        trees=None) -> None:
    """Joint coding of vertex marks and degree profiles.

    Each vertex gets a flat signature (mark, then sorted (label, label,
    count) triples); distinct signatures go into a dictionary written
    up front by one write_fields call, and the per-vertex ids are handed
    to the sequence codec (trees as in encode_sequence).
    """
    dictionary = {}
    y = [0] * n
    for v in range(1, n + 1):
        sig = [theta[v]]
        for key in sorted(deg[v]):
            sig.extend(key)
            sig.append(deg[v][key])
        sig = tuple(sig)
        vid = dictionary.get(sig)
        if vid is None:
            vid = len(dictionary) + 1
            dictionary[sig] = vid
        y[v - 1] = vid

    w_size = width(1 + 3 * delta)
    # Vertex marks can exceed the other alphabets, so the field width
    # must cover them too or the first signature entry would not fit.
    w_elem = width(max(sigma_e, sigma_v, tcount, delta))
    w_id = width(n)
    values, widths = [len(dictionary)], [w_id]
    for sig in sorted(dictionary):
        values += (len(sig),) + sig + (dictionary[sig],)
        widths += [w_size] + [w_elem] * len(sig) + [w_id]
    out.write_fields(values, widths)
    encode_sequence(y, out, trees)


def decode_vertex_types(reader: BitReader, n, delta, sigma_e, sigma_v, tcount, trees=None):
    """Inverse of encode_vertex_types; returns (theta, deg), both 1-based."""
    w_size = width(1 + 3 * delta)
    w_elem = width(max(sigma_e, sigma_v, tcount, delta))
    w_id = width(n)
    count = reader.read_fixed(w_id)
    sigs = [None] * (count + 1)
    for _ in range(count):
        size = reader.read_fixed(w_size)
        *sig, vid = reader.read_fields([w_elem] * size + [w_id])
        sig = tuple(sig)
        if not 1 <= vid <= count or sigs[vid] is not None:
            raise CodecError("bad vertex-type dictionary id")
        if not sig or (len(sig) - 1) % 3:
            raise CodecError("malformed vertex-type signature")
        if not 1 <= sig[0] <= sigma_v:
            raise CodecError(f"vertex mark {sig[0]} outside 1..{sigma_v}")
        sigs[vid] = sig
    y = decode_sequence(n, reader, trees)

    theta = [0] * (n + 1)
    deg = [None] * (n + 1)
    for v in range(1, n + 1):
        vid = y[v - 1]
        if not 1 <= vid <= count or sigs[vid] is None:
            raise CodecError("vertex type id out of range")
        sig = sigs[vid]
        theta[v] = sig[0]
        prof = {}
        for k in range((len(sig) - 1) // 3):
            prof[(sig[1 + 3 * k], sig[2 + 3 * k])] = sig[3 + 3 * k]
        deg[v] = prof
    return theta, deg


def find_partition_graphs(g: NeighborListGraph, table: EdgeTypeTable, deg):
    """Group non-star edges by type pair.

    Returns (partition_deg, partition_adj, partition_index): degree arrays
    keyed by ordered label pairs, adjacency lists keyed by pairs with
    i <= i' (bipartite lists for i < i', forward lists for i == i'), and
    each vertex's rank within its groups.
    """
    partition_deg = {}
    partition_index = [None] * (g.n + 1)
    for v in range(1, g.n + 1):
        idx = {}
        for key in sorted(deg[v]):
            arr = partition_deg.get(key)
            if arr is None:
                partition_deg[key] = [deg[v][key]]
                idx[key] = 1
            else:
                arr.append(deg[v][key])
                idx[key] = len(arr)
        partition_index[v] = idx

    partition_adj = {}
    for key, arr in partition_deg.items():
        if key[0] <= key[1]:
            partition_adj[key] = [[] for _ in range(len(arr))]

    # Each edge is listed once, from the endpoint on the i side of its key
    # (i, i'), i <= i'; within a simple partition graph (i == i') ranks
    # follow vertex order, so the lower endpoint lists it.
    is_star = table.t_is_star
    for v in range(1, g.n + 1):
        index_v = partition_index[v]
        for (i, ip), w in zip(table.c[v], g.gamma[v]):
            if i > ip or (i == ip and w < v) or is_star[i] or is_star[ip]:
                continue
            partition_adj[(i, ip)][index_v[(i, ip)] - 1].append(partition_index[w][(ip, i)])
    return partition_deg, partition_adj, partition_index


def decode_partition_structures(deg, n):
    """Decoder-side tables: degree arrays plus original vertex per rank."""
    partition_deg = {}
    original_index = {}
    for v in range(1, n + 1):
        for key in sorted(deg[v]):
            if key not in partition_deg:
                partition_deg[key] = [deg[v][key]]
                original_index[key] = [v]
            else:
                partition_deg[key].append(deg[v][key])
                original_index[key].append(v)
    return partition_deg, original_index


def _cycle_collector_paused(fn):
    """Run fn with the cyclic garbage collector switched off.

    A codec call allocates millions of tuples, lists and big ints but no
    reference cycles, so reference counting frees all of it.  Left on, the
    collector's full passes re-walk every live container, the growing
    neighbor lists included: 0.8 s of an 8.7 s encode at n=1e5, against
    0.03 s at n=1e4 (CPython 3.11, 2-core host).  The previous state is
    restored on exit.
    """
    @functools.wraps(fn)
    def paused(*args, **kwargs):
        enabled = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if enabled:
                gc.enable()
    return paused


@_cycle_collector_paused
def encode_marked_graph(g: EdgeListGraph, h: int, delta: int) -> bytes:
    """Compress a marked graph to bytes; lossless up to edge-record order."""
    if h < 1 or delta < 1:
        raise ValueError("need h >= 1 and delta >= 1")
    nl = preprocess(g)
    table = extract_types(nl, h, delta)

    out = BitWriter()
    out.write_fields(list(MAGIC) + [VERSION], [8] * 5)
    for value in (g.n, g.sigma_e, g.sigma_v, h, delta):
        out.write_elias_delta(value)

    out.write_elias_delta(1 + table.tcount)
    labels = zip(table.t_is_star[1:], table.t_mark[1:])
    out.write_fields([f for label in labels for f in label], [1, width(g.sigma_e)] * table.tcount)

    s = find_star_vertices(nl, table)
    trees = {}  # the two length-n sequences share one ratio tree
    encode_sequence(s[1:], out, trees)
    encode_star_edges(nl, table, s, out)

    deg = find_deg(nl, table)
    encode_vertex_types(deg, nl.theta, g.n, delta, g.sigma_e, g.sigma_v,
                        table.tcount, out, trees)

    partition_deg, partition_adj = find_partition_graphs(nl, table, deg)[:2]
    w_label = width(table.tcount)
    # The ranks need only the partition graphs; drop the per-vertex tables
    # so the big-int work below runs in a smaller heap.
    del nl, table, deg, s, trees
    out.write_elias_delta(1 + len(partition_adj))
    for key in sorted(partition_adj):
        i, ip = key
        out.write_fixed(i, w_label)
        out.write_fixed(ip, w_label)
        adj = tuple(tuple(row) for row in partition_adj[key])
        if i < ip:
            inst = BipartiteInstance(a=tuple(partition_deg[(i, ip)]),
                                     b=tuple(partition_deg[(ip, i)]),
                                     adj=adj)
            out.write_elias_delta(1 + b_encode(inst))
        else:
            inst = SimpleInstance(a=tuple(partition_deg[(i, i)]), fwd=adj)
            f, cps = s_encode(inst)
            out.write_elias_delta(1 + f)
            out.write_elias_delta(1 + (len(cps) - 1))
            for j in range(1, len(cps)):
                out.write_elias_delta(1 + cps[j])
    return out.to_bytes()


@_cycle_collector_paused
def decode_marked_graph(data: bytes) -> EdgeListGraph:
    """Inverse of encode_marked_graph (canonical edge order may differ)."""
    reader = BitReader(data)
    head = bytes(reader.read_fields([8] * 5))
    if head[:4] != MAGIC:
        raise CodecError(f"bad magic {head[:4]!r}")
    if head[4] != VERSION:
        raise CodecError(f"unsupported version {head[4]}")
    # h is recorded in the header; decoding never re-runs type extraction.
    n, sigma_e, sigma_v, _, delta = (reader.read_elias_delta() for _ in range(5))

    tcount = reader.read_elias_delta() - 1
    w_mark = width(sigma_e)
    if tcount * (1 + w_mark) > reader.remaining():
        raise CodecError(f"type count {tcount} exceeds remaining stream")
    fields = reader.read_fields([1, w_mark] * tcount)
    t_is_star = [0] + fields[0::2]
    t_mark = [0] + fields[1::2]

    trees = {}
    s = [0] + decode_sequence(n, reader, trees)
    if any(bit not in (0, 1) for bit in s):
        raise CodecError("star bitmap is not binary")
    edges = decode_star_edges(reader, s, n, sigma_e)

    theta, deg = decode_vertex_types(reader, n, delta, sigma_e, sigma_v, tcount, trees)
    del trees
    partition_deg, original_index = decode_partition_structures(deg, n)

    n_parts = reader.read_elias_delta() - 1
    w_label = width(tcount)
    for _ in range(n_parts):
        i = reader.read_fixed(w_label)
        ip = reader.read_fixed(w_label)
        if not 1 <= i <= ip <= tcount:
            raise CodecError(f"partition key ({i},{ip}) out of order or range")
        if (i, ip) not in partition_deg or ((i < ip) and (ip, i) not in partition_deg):
            raise CodecError(f"partition key ({i},{ip}) has no degree data")
        f = reader.read_elias_delta() - 1
        if i == ip:
            ln = reader.read_elias_delta() - 1
            if ln > reader.remaining():
                raise CodecError("checkpoint count exceeds remaining stream")
            cps = [0] * (ln + 1)
            for j in range(1, ln + 1):
                cps[j] = reader.read_elias_delta() - 1
        try:
            if i < ip:
                adj = b_decode(f, tuple(partition_deg[(i, ip)]),
                               tuple(partition_deg[(ip, i)]))
            else:
                adj = s_decode(f, cps, tuple(partition_deg[(i, i)]))
        except ValueError as exc:
            raise CodecError(f"partition ({i},{ip}) rank: {exc}") from exc
        x = t_mark[i]
        xp = t_mark[ip]
        back_a = original_index[(i, ip)]
        back_b = original_index[(ip, i)]
        for p, neigh in enumerate(adj):
            vp = back_a[p]
            for q in neigh:
                edges.append((vp, back_b[q - 1], x, xp))

    try:
        return EdgeListGraph(n=n, sigma_v=sigma_v, sigma_e=sigma_e,
                             theta=tuple(theta[1:]), edges=tuple(edges))
    except GraphFormatError as exc:
        raise CodecError(f"decoded graph is invalid: {exc}") from exc
