"""Full marked-graph codec: header, type tables, star channels, vertex
types, and one ranking codec per partition graph.

Wire layout (MSB-first bits):

  magic "LWCG", version byte 0x03,
  ED(n) ED(|xi|) ED(|theta|) ED(delta),
  ED(1+TCount), then per label its mark (1..|xi|) in width(|xi|) bits,
  star-vertex bitmap            (sequence codec),
  star edges, if any star vertex: ED(1+m), a block of |xi|^2 * |stars|
      + m bits (a 1 per record, a 0 closing each slot), m offsets,
  vertex types: K in width(n) bits, K sizes, all signatures' elements,
      then the id sequence                    (sequence codec),
  per declared label pair (i, i'), i <= i', in increasing order:
      i < i':  ED(1+f)                        (bipartite rank)
      i == i': ED(1+f) ED(1+len) ED(1+cp_m)   (simple rank + checkpoints)
  zero bits to a byte boundary, then the CRC-32 of all bytes before it
  in 32 bits.  The stream ends there.

ED is the Elias delta code; width(x) = 1 + floor(log2(max(x, 1))).

A vertex's type is its signature: its mark, then its degree profile as
one (label, mirror label, count) triple per label pair, pairs increasing.
Both sides hold the types as the int64 columns that cross the wire: the
sorted distinct signatures' sizes and elements, and one id per vertex.
From them they build the partition tables, keys included, with one
grouping; the stream carries only the ranks and each simple graph's
checkpoints.  Every side channel is a column, written by one bulk call,
read by one and checked with numpy.  The decoder builds all partition
records in one pass after the ranks.
"""

from __future__ import annotations

import functools
import gc
import itertools
import zlib

import numpy as np

from .bipartite import BipartiteInstance, b_decode, b_encode
from .bits import BitReader, BitWriter, CodecError, width
from .edge_types import EdgeTypeTable, extract_types, number_rows
from .graph_model import EdgeListGraph, GraphFormatError, NeighborListGraph, preprocess
from .sequences import decode_sequence, encode_sequence
from .simple_graph import SimpleInstance, s_decode, s_encode

MAGIC = b"LWCG"
VERSION = 3


def find_star_vertices(g: NeighborListGraph, table: EdgeTypeTable) -> list:
    """Bitmap (1-based) of vertices incident to at least one star edge."""
    s = np.zeros(g.n + 1, dtype=np.int64)
    s[g.owner[table.star]] = 1
    return s.tolist()


def encode_star_edges(g: NeighborListGraph, table: EdgeTypeTable, s, out: BitWriter) -> None:
    """Star-edge channel: the record count, the slot block, the offsets.

    A record is a star edge sent from its lower endpoint v, in slot (mark
    pair row, v's position i among the stars): record k sits at bit
    row * stars + i + k of the block.  By symmetrization the far endpoint
    is a star vertex too.
    """
    rank = np.cumsum(s) - 1  # a star vertex's position among the stars
    stars = int(rank[-1]) + 1
    if not stars:  # every slot would be zero-width
        return
    e = np.flatnonzero(table.star & (g.nbr > g.owner))
    row = (g.mark[e] - 1) * g.sigma_e + g.mark[g.mirror[e]] - 1
    # e runs in (v, w) order, so a stable sort by row gives stream order;
    # the narrowest type that holds the rows lets numpy sort by radix.
    order = np.argsort(row.astype(np.min_scalar_type(g.sigma_e ** 2)), kind="stable")
    e, row = e[order], row[order]
    i = rank[g.owner[e]]
    out.write_elias_delta(1 + len(e))
    out.write_bitmap(row * stars + i + np.arange(len(e)), g.sigma_e ** 2 * stars + len(e))
    c = stars - 1 - i  # star vertices after v; frexp gives width(c - 1)
    out.write_fields(rank[g.nbr[e]] - i - 1, np.frexp(np.maximum(c - 1, 1))[1])


def decode_star_edges(reader: BitReader, s, sigma_e: int) -> np.ndarray:
    """Inverse of encode_star_edges; returns the (v, w, x, xp) records as
    an (m, 4) int64 array.  A record's slot gives its mark pair and v, and
    its offset, below the c star vertices after v, gives w."""
    star = np.flatnonzero(s)
    if not len(star):
        return np.empty((0, 4), dtype=np.int64)
    m = reader.read_elias_delta() - 1
    size = sigma_e * sigma_e * len(star) + m
    ones = reader.read_bitmap(size)
    if len(ones) != m:
        raise CodecError(f"star-edge block holds {len(ones)} records, its count says {m}")
    if m and ones[-1] == size - 1:
        raise CodecError("star-edge block ends in a record, not a closing 0 bit")
    row, i = np.divmod(ones - np.arange(m), len(star))
    c = len(star) - 1 - i
    offset = reader.read_fields(np.frexp(np.maximum(c - 1, 1))[1])
    bad = np.flatnonzero(offset >= c)  # before the int64 cast: it may not fit
    if len(bad):  # a record in the last star's slot has c = 0
        raise CodecError(f"star-edge offset {offset[bad[0]]} not below {c[bad[0]]}, the later stars")
    w = star[i + 1 + offset.astype(np.int64)]
    return np.column_stack((star[i], w, row // sigma_e + 1, row % sigma_e + 1))


def find_deg(g: NeighborListGraph, table: EdgeTypeTable):
    """Vertex types as (dictionary, ids): the distinct signatures in tuple
    order as (sizes, elements) int64 columns, and per vertex its 1-based
    position there.  One np.unique over packed (vertex, label pair) keys,
    the pairs numbered in sorted order first, gives each vertex's triples."""
    e = np.flatnonzero(~table.star)
    t = table.tcount + 1
    codes, pair = np.unique(table.label[e] * t + table.label[g.mirror[e]], return_inverse=True)
    keys, counts = np.unique(g.owner[e] * len(codes) + pair, return_counts=True)
    del e, pair  # half-edge arrays: free them before the rows are built
    code = codes[keys % len(codes)]
    flat = np.column_stack((code // t, code % t, counts)).ravel()
    k = np.bincount(keys // len(codes), minlength=g.n + 1)[1:]  # triples per vertex
    at, theta = 3 * (np.cumsum(k) - k), np.array(g.theta[1:], dtype=np.int64)
    # Equal signatures share a number, size by size.  The distinct ones,
    # padded with -1 so that a signature sorts before any longer one it
    # prefixes, are put in tuple order by one lexsort.
    number, rows = np.empty(g.n, dtype=np.int64), []
    for w in np.flatnonzero(np.bincount(k)).tolist():  # the sizes that occur
        v = np.flatnonzero(k == w)
        group = np.column_stack((theta[v], flat[at[v, None] + np.arange(3 * w)]))
        local = number_rows(group)
        number[v] = local + sum(map(len, rows))
        rows.append(group[np.unique(local, return_index=True)[1]])
    sizes = np.repeat([r.shape[1] for r in rows], list(map(len, rows)))
    padded = np.full((len(sizes), sizes[-1]), -1, dtype=np.int64)  # groups grow in size
    for r, lo in zip(rows, np.cumsum([0, *map(len, rows)]).tolist()):
        padded[lo:lo + len(r), :r.shape[1]] = r
    del rows
    order = np.lexsort(padded.T[::-1])  # the rows are distinct
    padded = padded[order]
    return (sizes[order], padded[padded >= 0]), np.argsort(order)[number] + 1


def encode_vertex_types(dictionary, ids, n, delta, sigma_e, sigma_v, tcount, out: BitWriter):
    """Joint coding of vertex marks and degree profiles: the dictionary's
    columns, its size K, the K signature sizes, then every signature's
    elements, in one write_fields call; then the ids by the sequence codec."""
    sizes, elements = dictionary
    w_size = width(1 + 3 * delta)
    # Vertex marks can exceed the other alphabets, so the field width
    # must cover them too or the first signature entry would not fit.
    w_elem = width(max(sigma_e, sigma_v, tcount, delta))
    out.write_fields(np.concatenate(([len(sizes)], sizes, elements)),
                     np.repeat([width(n), w_size, w_elem], [1, len(sizes), len(elements)]))
    encode_sequence(ids.tolist(), out)


def decode_vertex_types(reader: BitReader, n, delta, sigma_e, sigma_v, tcount):
    """Inverse of encode_vertex_types; returns the ((sizes, elements), ids)
    columns it read, refusing any signature the encoder never writes.
    Each column is read in one call and checked with numpy."""
    w_size = width(1 + 3 * delta)
    w_elem = width(max(sigma_e, sigma_v, tcount, delta))
    count = reader.read_fixed(width(n))
    if count * w_size > reader.remaining():
        raise CodecError(f"vertex-type dictionary of {count} signatures exceeds remaining stream")
    size = reader.read_fields(np.full(count, w_size))
    total = size.sum(dtype=float)  # a uint64 sum could wrap
    if total * w_elem > reader.remaining():
        raise CodecError(f"vertex-type signature sizes {total:.0f} exceed remaining stream")
    size = size.astype(np.int64)
    if not size.all() or ((size - 1) % 3).any():
        raise CodecError("malformed vertex-type signature")
    col = reader.read_fields(np.full(int(total), w_elem))  # uint64 until checked
    ends = np.cumsum(size)
    first = ends - size  # each signature's mark

    def signature(k):  # as the refusals print it
        return tuple(col[first[k]:ends[k]].tolist())
    # Strict tuple order: at the first column where neighbors differ the
    # later one is larger; where none differs the earlier is a prefix.
    shared = np.minimum(size[:-1], size[1:])
    pair = np.repeat(np.arange(len(shared)), shared)
    at = np.arange(len(pair)) - (np.cumsum(shared) - shared)[pair]
    a, b = col[first[pair] + at], col[first[pair + 1] + at]
    where, i = np.unique(pair[a != b], return_index=True)
    increasing = size[:-1] < size[1:]
    increasing[where] = (b > a)[a != b][i]
    if not increasing.all():
        raise CodecError("vertex-type dictionary is not strictly increasing")
    top = min(sigma_v, 2**63 - 1)  # the decoded marks are int64
    bad = np.flatnonzero((col[first] < 1) | (col[first] > top))
    if len(bad):
        raise CodecError(f"vertex mark {signature(bad[0])[0]} outside 1..{top}")
    label, mirror, counts = np.delete(col, first).reshape(-1, 3).T
    of = np.repeat(np.arange(count), size // 3)  # each triple's signature
    # Label pairs lie in 1..tcount and increase strictly within a signature.
    pair = np.minimum((label, mirror), tcount + 1).astype(np.int64)
    after = np.diff(pair[0] * (tcount + 2) + pair[1], prepend=0) > 0
    wrong = (pair.min(0) < 1) | (pair.max(0) > tcount) | ~after & (np.diff(of, prepend=-1) == 0)
    bad = np.flatnonzero(np.bincount(of, wrong, count))
    if len(bad):
        sig = signature(bad[0])
        raise CodecError(f"degree profile labels {list(zip(sig[1::3], sig[2::3]))} "
                         f"out of order or outside 1..{tcount}")
    # A non-star vertex has at most delta edges, and at most n - 1.
    cap = min(delta, n - 1)
    bad = np.flatnonzero(np.bincount(of, counts < 1, count) + (np.bincount(of, counts, count) > cap))
    if len(bad):
        raise CodecError(f"degree counts {signature(bad[0])[3::3]} below 1 or above {cap}")
    ids = decode_sequence(n, reader)
    if not 1 <= min(ids) <= max(ids) <= count:
        raise CodecError("vertex type id out of range")
    return (size, col.astype(np.int64)), np.array(ids, dtype=np.int64)


def _partition_tables(dictionary, ids):
    """Degree lists and member vertex arrays per label pair, both in vertex
    order, from the vertex types as they cross the wire: every vertex's
    triples, in vertex order, grouped by one stable sort on label pair."""
    size, flat = dictionary
    y = ids - 1
    count = (size // 3)[y]  # triples per vertex
    # A vertex's k-th triple starts 3k past its signature's mark, plus 1.
    shift = (np.cumsum(size) - size + 1)[y] - 3 * (np.cumsum(count) - count)
    at = np.repeat(shift, count) + 3 * np.arange(count.sum())
    base = int(flat[at + 1].max(initial=0)) + 1
    code = flat[at] * base + flat[at + 1]
    # The narrowest type that holds the keys lets numpy sort by radix.
    order = np.argsort(code.astype(np.min_scalar_type(code.max(initial=0))), kind="stable")
    code, d = code[order], flat[at + 2][order].tolist()
    vertex = np.repeat(np.arange(1, len(ids) + 1), count)[order]
    cut = np.flatnonzero(np.diff(code, prepend=-1)).tolist() + [len(d)]
    partition_deg, members = {}, {}
    for lo, hi in zip(cut, cut[1:]):
        key = divmod(int(code[lo]), base)
        partition_deg[key], members[key] = d[lo:hi], vertex[lo:hi]
    return partition_deg, members


def find_partition_graphs(g: NeighborListGraph, table: EdgeTypeTable, dictionary, ids):
    """Group non-star edges by type pair.

    Returns (partition_deg, partition_adj): degree arrays keyed by ordered
    label pairs, and adjacency lists keyed by pairs with i <= i'
    (bipartite lists for i < i', forward lists for i == i').  A vertex's
    rank in group (i, i') is its 1-based position among the group's
    members, the grouping the decoder builds from the same vertex types.
    """
    # Called by its private name, so a tracer that wraps
    # decode_partition_structures times only the decoder's call.
    partition_deg, members = _partition_tables(dictionary, ids)
    # Each edge is listed once, from the endpoint on the i side of its key
    # (i, i'), i <= i'; within a simple partition graph (i == i') ranks
    # follow vertex order, so the lower endpoint lists it.  A stable sort
    # by key keeps the (owner, neighbor) order inside each group.
    label, far_label = table.label, table.label[g.mirror]
    listed = (label < far_label) | (label == far_label) & (g.nbr > g.owner)
    e = np.flatnonzero(listed & ~table.star)
    t = table.tcount + 1
    key = label[e] * t + far_label[e]
    order = np.argsort(key, kind="stable")
    e, key = e[order], key[order]
    partition_adj = {}
    for i, ip in sorted(k for k in members if k[0] <= k[1]):
        lo, hi = np.searchsorted(key, (i * t + ip, i * t + ip + 1)).tolist()
        near, far = members[(i, ip)], members[(ip, i)]
        rows = np.searchsorted(near, g.owner[e[lo:hi]])
        ranks = (np.searchsorted(far, g.nbr[e[lo:hi]]) + 1).tolist()
        b = np.searchsorted(rows, np.arange(len(near) + 1)).tolist()
        partition_adj[(i, ip)] = tuple(tuple(ranks[x:y]) for x, y in zip(b, b[1:]))
    return partition_deg, partition_adj


# The decoder's tables; member arrays map ranks back to original vertices.
decode_partition_structures = _partition_tables


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
    if max(g.theta) > 2**63 - 1:  # the stages hold vertex marks in int64
        v = next(v for v, mark in enumerate(g.theta, 1) if mark > 2**63 - 1)
        raise ValueError(f"vertex {v}: mark {g.theta[v - 1]} beyond 64 bits")
    nl = preprocess(g)
    table = extract_types(nl, h, delta)

    out = BitWriter()
    out.write_fields(list(MAGIC) + [VERSION], [8] * 5)
    for value in (g.n, g.sigma_e, g.sigma_v, delta):
        out.write_elias_delta(value)

    out.write_elias_delta(1 + table.tcount)
    out.write_fields(table.t_mark[1:], [width(g.sigma_e)] * table.tcount)

    s = find_star_vertices(nl, table)
    encode_sequence(s[1:], out)
    encode_star_edges(nl, table, s, out)

    dictionary, ids = find_deg(nl, table)
    encode_vertex_types(dictionary, ids, g.n, delta, g.sigma_e, g.sigma_v,
                        table.tcount, out)

    partition_deg, partition_adj = find_partition_graphs(nl, table, dictionary, ids)
    # The ranks need only the partition graphs; drop the per-vertex tables
    # so the big-int work below runs in a smaller heap.
    del nl, table, dictionary, ids, s
    for (i, ip), adj in sorted(partition_adj.items()):
        if i < ip:
            inst = BipartiteInstance(a=tuple(partition_deg[(i, ip)]),
                                     b=tuple(partition_deg[(ip, i)]),
                                     adj=adj)
            out.write_elias_delta(1 + b_encode(inst))
        else:
            inst = SimpleInstance(a=tuple(partition_deg[(i, i)]), fwd=adj)
            f, cps = s_encode(inst)
            out.write_elias_delta(1 + f)
            out.write_elias_delta(len(cps))
            for c in cps[1:]:
                out.write_elias_delta(1 + c)
    out.write_fixed(0, -out.bit_length % 8)
    out.write_fixed(zlib.crc32(out.to_bytes()), 32)
    return out.to_bytes()


@_cycle_collector_paused
def decode_marked_graph(data: bytes) -> EdgeListGraph:
    """Inverse of encode_marked_graph (canonical edge order may differ)."""
    reader = BitReader(data)
    head = reader.read_fields([8] * 5).astype(np.uint8).tobytes()
    if head[:4] != MAGIC:
        raise CodecError(f"bad magic {head[:4]!r}")
    if head[4] != VERSION:
        raise CodecError(f"unsupported version {head[4]}")
    if zlib.crc32(data[:-4]).to_bytes(4, "big") != data[-4:]:
        raise CodecError("CRC-32 mismatch")
    n, sigma_e, sigma_v, delta = (reader.read_elias_delta() for _ in range(4))

    tcount = reader.read_elias_delta() - 1
    w_mark = width(sigma_e)
    if tcount * w_mark > reader.remaining():
        raise CodecError(f"type count {tcount} exceeds remaining stream")
    t_mark = reader.read_fields(np.full(tcount, w_mark))
    top = min(sigma_e, 2**63 - 1)  # the decoded records are int64
    bad = np.flatnonzero((t_mark < 1) | (t_mark > top))
    if len(bad):
        raise CodecError(f"type-table mark {t_mark[bad[0]]} outside 1..{top}")

    s = [0] + decode_sequence(n, reader)
    if any(bit not in (0, 1) for bit in s):
        raise CodecError("star bitmap is not binary")
    star_block = decode_star_edges(reader, s, sigma_e)

    dictionary, ids = decode_vertex_types(reader, n, delta, sigma_e, sigma_v, tcount)
    partition_deg, original_index = decode_partition_structures(dictionary, ids)

    # The encoder codes one partition graph per declared pair i <= i', in
    # increasing order; a pair's edges need its mirror's degrees too.
    if any((ip, i) not in partition_deg for i, ip in partition_deg):
        raise CodecError("a degree profile declares a label pair without its mirror")
    keys = sorted(key for key in partition_deg if key[0] <= key[1])
    rows, ranks = [], []  # per near member its edge count; per edge its far rank
    for i, ip in keys:
        f = reader.read_elias_delta() - 1
        if i == ip:
            # At most pn - 1 split nodes; s_decode checks the exact count.
            ln = reader.read_elias_delta() - 1
            pn = len(partition_deg[(i, i)])
            if pn < 2 or ln >= pn:
                raise CodecError(f"partition ({i},{i}): {ln} checkpoints for {pn} vertices")
            cps = [0] + [reader.read_elias_delta() - 1 for _ in range(ln)]
        try:
            if i < ip:
                adj = b_decode(f, tuple(partition_deg[(i, ip)]),
                               tuple(partition_deg[(ip, i)]))
            else:
                adj = s_decode(f, cps, tuple(partition_deg[(i, i)]))
        except ValueError as exc:
            raise CodecError(f"partition ({i},{ip}) rank: {exc}") from exc
        # adj[p]: the ranks, among the (ip, i) members, of (i, ip) member p's neighbors.
        rows += map(len, adj)
        ranks += itertools.chain.from_iterable(adj)
    # The partition records in one pass: each (i, i') member repeated over
    # its row, each far rank looked up among the (i', i) members.
    empty = [np.empty(0, np.int64)]  # np.concatenate needs one array at least
    near = [original_index[key] for key in keys]
    far = [original_index[key[::-1]] for key in keys]
    rows = np.array(rows, np.int64)
    graph = np.repeat(np.repeat(np.arange(len(keys)), list(map(len, near))), rows)  # per edge
    at = np.cumsum([0, *map(len, far)])[graph] + np.fromiter(ranks, np.int64, len(ranks)) - 1
    marks = t_mark.astype(np.int64)[np.array(keys, np.int64).reshape(-1, 2) - 1]
    records = np.column_stack((np.repeat(np.concatenate(near + empty), rows),
                               np.concatenate(far + empty)[at], marks[graph]))
    pad = reader.read_fixed(-reader.position % 8)
    reader.read_fixed(32)  # the CRC-32, checked above
    if pad or reader.remaining():
        raise CodecError("stream does not end with a zero pad and its CRC-32")

    sizes, elements = dictionary
    theta = elements[np.cumsum(sizes) - sizes][ids - 1]  # a signature starts with its mark
    try:
        return EdgeListGraph(n=n, sigma_v=sigma_v, sigma_e=sigma_e, theta=tuple(theta.tolist()),
                             edges=np.concatenate((star_block, records)))
    except GraphFormatError as exc:
        raise CodecError(f"decoded graph is invalid: {exc}") from exc
