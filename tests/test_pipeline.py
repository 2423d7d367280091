import functools
import hashlib
import itertools
import random
import time
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_marked_graph, same_graph, vertex_profiles
from lwcg.bits import BitReader, BitWriter, TruncatedStreamError, width
from lwcg.edge_types import extract_types
from lwcg.graph_model import EdgeListGraph, canonical_edges, preprocess
from lwcg.pipeline import (
    VERSION,
    CodecError,
    decode_marked_graph,
    decode_partition_structures,
    decode_star_edges,
    decode_vertex_types,
    encode_marked_graph,
    encode_star_edges,
    encode_vertex_types,
    find_deg,
    find_partition_graphs,
    find_star_vertices,
)
from lwcg.sequences import decode_sequence, encode_sequence
from lwcg.synthetic import gen_synthetic


def fig_tables(fig_graph, h=2, delta=4):
    nl = preprocess(fig_graph)
    table = extract_types(nl, h, delta)
    return nl, table


def test_fig_star_vertices(fig_graph):
    nl, table = fig_tables(fig_graph)
    s = find_star_vertices(nl, table)
    assert [v for v in range(1, 17) if s[v]] == [1, 2, 3, 4, 5, 6]


def test_triangle_no_stars():
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1),
                      edges=((1, 2, 1, 1), (2, 3, 1, 1), (1, 3, 1, 1)))
    nl = preprocess(g)
    s = find_star_vertices(nl, extract_types(nl, 1, 2))
    assert sum(s[1:]) == 0


def test_path_low_cap_all_stars():
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1),
                      edges=((1, 2, 1, 1), (2, 3, 1, 1)))
    nl = preprocess(g)
    s = find_star_vertices(nl, extract_types(nl, 1, 1))
    assert s[1:] == [1, 1, 1]


def test_fig_star_edge_channel_wire_form(fig_graph):
    # Stars 1..6 and two edge marks: 4 * 6 slots.  Only vertex 1's slot in
    # the (x, xp) = (2, 1) row, the 13th, holds records: the five spokes,
    # at offsets 0..4 among the five stars after vertex 1, 3 bits each.
    nl, table = fig_tables(fig_graph)
    s = find_star_vertices(nl, table)
    out = BitWriter()
    encode_star_edges(nl, table, s, out)
    r = BitReader(out.to_bytes())
    assert r.read_elias_delta() == 1 + 5
    assert r.read_fixed(24 + 5) == 0b11111 << 12  # 12 slots closed before them
    assert r.read_fields([width(5 - 1)] * 5).tolist() == [0, 1, 2, 3, 4]
    assert r.position == len(out) == 5 + 29 + 15
    records = decode_star_edges(BitReader(out.to_bytes()), s, 16, 2)
    assert records.tolist() == [[1, w, 2, 1] for w in range(2, 7)]


def test_star_edges_empty_channel():
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1),
                      edges=((1, 2, 1, 1), (2, 3, 1, 1), (1, 3, 1, 1)))
    nl = preprocess(g)
    table = extract_types(nl, 1, 2)
    s = find_star_vertices(nl, table)
    out = BitWriter()
    encode_star_edges(nl, table, s, out)
    assert len(out) == 0


def test_star_edge_channel_without_star_vertices_skips_the_mark_pairs(monkeypatch):
    # Without star vertices every one of the sigma_e**2 rows is zero-width;
    # neither side may write or read anything, not even the record count.
    sigma_e = 3000
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=sigma_e, theta=(1, 1, 1),
                      edges=((1, 2, sigma_e, 1),))
    nl = preprocess(g)
    table = extract_types(nl, 1, 4)
    s = find_star_vertices(nl, table)
    assert s == [0, 0, 0, 0]
    out = BitWriter()
    encode_star_edges(nl, table, s, out)
    assert len(out) == 0
    calls = []
    monkeypatch.setattr(BitReader, "read_fixed", lambda self, nbits: calls.append(nbits) or 0)
    assert decode_star_edges(BitReader(b""), s, 3, sigma_e).shape == (0, 4)
    assert calls == []


def star_channel(m, ones, slots, offsets):
    """A star channel of m records: ED(1 + m), a block of slots + m bits
    with 1 bits at `ones`, the (value, width) offsets, then a 1 bit the
    channel must not read."""
    w = BitWriter()
    w.write_elias_delta(1 + m)
    w.write_fixed(sum(1 << (slots + m - 1 - k) for k in ones), slots + m)
    for value, nbits in offsets:
        w.write_fixed(value, nbits)
    end = len(w)
    w.write_fixed(1, 1)
    return w.to_bytes(), end


# n = 4, stars 1, 3 and 4, two edge marks: 4 rows of 3 slots.  A record
# from star 1 has c = 2 later stars and a 1-bit offset (width(1)), one
# from star 3 has c = 1 and a 1-bit offset (width(0)).
STARS = [0, 1, 0, 1, 1]


def test_star_edge_channel_rows_endpoints_and_end():
    # Row (1, 1): edge 1-3 in star 1's slot, edge 3-4 in star 3's; row
    # (2, 1): edge 1-4 in star 1's slot.  Ones at closed + k.
    data, end = star_channel(3, [0, 2, 3 * 2 + 2], 12, [(0, 1), (0, 1), (1, 1)])
    r = BitReader(data)
    assert decode_star_edges(r, STARS, 4, 2).tolist() == [[1, 3, 1, 1], [3, 4, 1, 1], [1, 4, 2, 1]]
    assert r.position == end


@pytest.mark.parametrize("m, ones, offsets, message", [
    (1, [2], [(0, 1)], "offset 0 not below 0"),  # a record in star 4's slot, the last
    (1, [1], [(1, 1)], "offset 1 not below 1"),  # star 3's offset past star 4
    (2, [0], [(0, 1)] * 2, "holds 1 records, its count says 2"),
    (1, [12], [(0, 1)], "ends in a record"),  # after the last slot closed
])
def test_star_edge_channel_refusals(m, ones, offsets, message):
    data, _ = star_channel(m, ones, 12, offsets)
    with pytest.raises(CodecError, match=message):
        decode_star_edges(BitReader(data), STARS, 4, 2)


@st.composite
def star_channels(draw):
    """A star bitmap on n <= 8 vertices, an edge-mark alphabet, and a star
    channel whose record count matches its block: records in random
    slots, then random bits for the offsets."""
    n = draw(st.integers(1, 8))
    bitmap = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n).filter(any))
    sigma_e = draw(st.integers(1, 3))
    m = draw(st.integers(0, 6))
    slots = sigma_e ** 2 * sum(bitmap)
    ones = draw(st.lists(st.integers(0, slots + m - 1), min_size=m, max_size=m, unique=True))
    bits = draw(st.integers(0, (1 << 24) - 1))  # enough for six offsets
    return [0, *bitmap], n, sigma_e, star_channel(m, ones, slots, [(bits, 24)])[0]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(star_channels())
def test_decoded_star_edges_join_star_vertices(channel):
    # A record's far endpoint is a star vertex above its near one, by
    # construction of the offsets; anything else is refused.
    s, n, sigma_e, data = channel
    try:
        records = decode_star_edges(BitReader(data), s, n, sigma_e)
    except CodecError:
        return
    for v, w, x, xp in records.tolist():
        assert v < w and s[v] == s[w] == 1
        assert 1 <= x <= sigma_e and 1 <= xp <= sigma_e


def test_star_edge_channel_truncated():
    # The channel cut inside its count or its block (bits 5..19), and a
    # record count whose block is longer than the stream.
    data, _ = star_channel(3, [0, 2, 8], 12, [(0, 1), (0, 1), (1, 1)])
    for nbytes in (0, 1, 2):
        with pytest.raises(TruncatedStreamError):
            decode_star_edges(BitReader(data[:nbytes]), STARS, 4, 2)
    w = BitWriter()
    w.write_elias_delta(1 + 1000)
    w.write_fixed(0, 64)
    with pytest.raises(TruncatedStreamError, match="need 1012 bits"):
        decode_star_edges(BitReader(w.to_bytes()), STARS, 4, 2)


def test_huge_edge_mark_alphabet_without_stars_roundtrips():
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1 << 16, theta=(1, 1, 1),
                      edges=((1, 2, 1, 1),))
    data = encode_marked_graph(g, 1, 4)
    assert len(data) == 32
    decoded = decode_marked_graph(data)
    assert decoded.sigma_e == 1 << 16
    assert canonical_edges(decoded) == canonical_edges(g)


def test_star_edges_roundtrip_random():
    rng = random.Random(51)
    for _ in range(60):
        n = rng.randint(2, 25)
        g = random_marked_graph(rng, n, rng.random() * 0.5, 2, 2)
        nl = preprocess(g)
        table = extract_types(nl, rng.randint(1, 2), 1)  # tiny cap: many stars
        s = find_star_vertices(nl, table)
        out = BitWriter()
        encode_star_edges(nl, table, s, out)
        got = [tuple(r) for r in decode_star_edges(BitReader(out.to_bytes()), s, n, 2).tolist()]
        expect = set()
        for v in range(1, n + 1):
            for i in range(nl.deg[v]):
                if table.star[nl.start[v] + i] and nl.gamma[v][i] > v:
                    expect.add((v, nl.gamma[v][i], nl.x[v][i], nl.xp[v][i]))
        assert set(got) == expect and len(got) == len(expect)


def test_fig_deg_profiles(fig_graph):
    nl, table = fig_tables(fig_graph)
    dictionary, ids = find_deg(nl, table)
    assert dictionary == [(1, 3, 4, 2), (2,), (2, 4, 3, 1, 5, 5, 1)]
    assert ids == [2] + [1] * 5 + [3] * 10
    deg = vertex_profiles(dictionary, ids)
    assert deg[1] == {}
    # Each spoke holds two type-(3,4) edges, matching the partition degree
    # table below (profiles and partition degrees must agree by construction).
    assert deg[2] == {(3, 4): 2}
    assert deg[7] == {(4, 3): 1, (5, 5): 1}
    for v in range(2, 7):
        assert deg[v] == deg[2]
    for v in range(7, 17):
        assert deg[v] == deg[7]


def test_deg_sums_bounded_by_delta():
    rng = random.Random(52)
    for _ in range(50):
        n = rng.randint(1, 30)
        g = random_marked_graph(rng, n, rng.random() * 0.5, 2, 2)
        delta = rng.randint(1, 6)
        nl = preprocess(g)
        table = extract_types(nl, rng.randint(1, 3), delta)
        dictionary, ids = find_deg(nl, table)
        assert len(ids) == n and set(ids) == set(range(1, len(dictionary) + 1))
        deg = vertex_profiles(dictionary, ids)
        for v in range(1, n + 1):
            total = sum(deg[v].values())
            assert total <= delta
            assert all(1 <= c <= delta for c in deg[v].values())


def test_fig_vertex_type_dictionary_and_y(fig_graph):
    nl, table = fig_tables(fig_graph)
    dictionary, ids = find_deg(nl, table)
    out = BitWriter()
    encode_vertex_types(dictionary, ids, 16, 4, 2, 2, table.tcount, out)
    r = BitReader(out.to_bytes())
    assert r.read_fixed(width(16)) == 3  # three distinct vertex types
    sizes = r.read_fields([width(1 + 12)] * 3).tolist()  # then their elements, a column each
    assert sizes == [4, 1, 7]
    flat = r.read_fields([width(max(2, 2, table.tcount, 4))] * sum(sizes)).tolist()
    entries = [tuple(flat[:4]), tuple(flat[4:5]), tuple(flat[5:])]
    # Signatures per the worked example, with the spoke count forced to 2,
    # sorted; an id is its signature's position, and no id is written.
    assert entries == [(1, 3, 4, 2), (2,), (2, 4, 3, 1, 5, 5, 1)]
    assert decode_sequence(16, r) == [2] + [1] * 5 + [3] * 10
    assert r.remaining() < 8
    assert decode_vertex_types(BitReader(out.to_bytes()), 16, 4, 2, 2,
                               table.tcount) == (dictionary, ids)


def emitted_ids(monkeypatch, fig_graph):
    """The vertex-type ids encode_vertex_types hands to the sequence codec
    for the worked example."""
    import lwcg.pipeline as pipeline
    nl, table = fig_tables(fig_graph)
    dictionary, ids = find_deg(nl, table)
    sent = []
    monkeypatch.setattr(pipeline, "encode_sequence", lambda y, out: sent.append(list(y)))
    encode_vertex_types(dictionary, ids, 16, 4, 2, 2, table.tcount, BitWriter())
    monkeypatch.undo()
    return sent


def test_vertex_types_y_sequence(monkeypatch, fig_graph):
    # Ids are sorted signature positions: the spokes' (1, 3, 4, 2) sorts
    # before the hub's (2,), and the leaves' (2, 4, 3, ...) comes last.
    assert emitted_ids(monkeypatch, fig_graph) == [[2] + [1] * 5 + [3] * 10]


def test_vertex_types_roundtrip_random():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(1, 40)
        g = random_marked_graph(rng, n, rng.random() * 0.4,
                                rng.randint(1, 3), rng.randint(1, 3))
        delta = rng.randint(1, 6)
        nl = preprocess(g)
        table = extract_types(nl, rng.randint(1, 3), delta)
        dictionary, ids = find_deg(nl, table)
        out = BitWriter()
        encode_vertex_types(dictionary, ids, n, delta, g.sigma_e, g.sigma_v,
                            table.tcount, out)
        assert decode_vertex_types(BitReader(out.to_bytes()), n, delta, g.sigma_e,
                                   g.sigma_v, table.tcount) == (dictionary, ids)
        assert [dictionary[vid - 1][0] for vid in ids] == list(g.theta)


def vertex_type_block(entries, y):
    """A hand-built vertex-type block for n=4, delta=2, sigma_e=1,
    sigma_v=2 and tcount 1 or 2 (2-bit elements either way): the
    dictionary's signatures laid out as encode_vertex_types writes them,
    then the id sequence y."""
    out = BitWriter()
    w_size, w_elem = width(1 + 3 * 2), width(2)
    out.write_fixed(len(entries), width(4))
    out.write_fields([len(sig) for sig in entries], [w_size] * len(entries))
    flat = [x for sig in entries for x in sig]
    out.write_fields(flat, [w_elem] * len(flat))
    encode_sequence(y, out)
    return BitReader(out.to_bytes())


def test_decoded_vertices_of_one_type_share_one_profile():
    # A vertex's profile is its dictionary entry, so vertices with one id
    # share one signature.
    reader = vertex_type_block([(1,), (2, 1, 1, 2)], [2, 1, 2, 2])
    dictionary, ids = decode_vertex_types(reader, 4, 2, 1, 2, 1)
    assert dictionary == [(1,), (2, 1, 1, 2)] and ids == [2, 1, 2, 2]
    assert [dictionary[vid - 1][0] for vid in ids] == [2, 1, 2, 2]  # theta
    deg = vertex_profiles(dictionary, ids)
    assert deg[1:] == [{(1, 1): 2}, {}, {(1, 1): 2}, {(1, 1): 2}]


@pytest.mark.parametrize("entries, y, message", [
    ([(1, 1, 3, 1)], [1, 1, 1, 1], "profile label"),  # label 3 > tcount = 2
    ([(1, 1)], [1, 1, 1, 1], "malformed"),  # 1 + 3k elements required
    ([()], [1, 1, 1, 1], "malformed"),  # no mark
    ([(1,)], [1, 2, 1, 1], "id out of range"),  # id symbol count + 1
    # A label pair twice: a grouping would list the vertex twice.
    ([(1, 1, 1, 1, 1, 1, 1)], [1, 1, 1, 1], "out of order"),
    ([(1, 1, 1, 2, 1, 1, 1)], [1, 1, 1, 1], "out of order"),
    ([(1, 2, 2, 1, 1, 1, 1)], [1, 1, 1, 1], "out of order"),
    ([(1, 1, 1, 0)], [1, 1, 1, 1], r"counts \(0,\) below 1"),
    ([(1, 1, 1, 3)], [1, 1, 1, 1], r"counts \(3,\) .* above 2"),
    # Each count fits, but a non-star vertex has at most delta edges.
    ([(1, 1, 1, 1, 2, 2, 2)], [1, 1, 1, 1], r"counts \(1, 2\) .* above 2"),
])
def test_bad_vertex_type_blocks_raise_codec_error(entries, y, message):
    with pytest.raises(CodecError, match=message):
        decode_vertex_types(vertex_type_block(entries, y), 4, 2, 1, 2, 2)


def signatures_accepted(entries, n, delta, sigma_v, tcount):
    """The per-signature checks, one signature at a time: the reference
    for the decoder's checks over the dictionary's columns."""
    for k, sig in enumerate(entries):
        if not sig or (len(sig) - 1) % 3 or k and sig <= entries[k - 1]:
            return False
        pairs, counts = list(zip(sig[1::3], sig[2::3])), sig[3::3]
        if not 1 <= sig[0] <= sigma_v or pairs != sorted(set(pairs)):
            return False
        if not all(1 <= x <= tcount for p in pairs for x in p):
            return False
        if min(counts, default=1) < 1 or sum(counts) > min(delta, n - 1):
            return False
    return True


ELEMENT = st.sampled_from([1, 2] * 3 + [0, 3])  # mostly inside 1..2
SIGNATURE = st.builds(lambda mark, triples: (mark, *itertools.chain(*triples)),
                      ELEMENT, st.lists(st.tuples(ELEMENT, ELEMENT, ELEMENT), max_size=2))


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(SIGNATURE, min_size=1, max_size=6), st.booleans())
def test_dictionary_checks_match_per_signature_checks(entries, in_order):
    # n = 4, delta = 2, sigma_v = 2 and tcount = 2, as vertex_type_block.
    if in_order:
        entries = sorted(set(entries))
    try:
        decode_vertex_types(vertex_type_block(entries, [1] * 4), 4, 2, 1, 2, 2)
    except CodecError:
        assert not signatures_accepted(entries, 4, 2, 2, 2)
    else:
        assert signatures_accepted(entries, 4, 2, 2, 2)


def test_huge_signature_size_raises_codec_error_before_allocating():
    # delta = 2**20 gives 22-bit size fields; a size of 2**22 - 1 must be
    # refused against the stream left, not read as that many fields.
    delta = 1 << 20
    out = BitWriter()
    w_size = width(1 + 3 * delta)
    out.write_fixed(1, width(4))
    out.write_fixed((1 << w_size) - 1, w_size)
    out.write_fixed(0, 64)
    with pytest.raises(CodecError, match="signature size"):
        decode_vertex_types(BitReader(out.to_bytes()), 4, delta, 1, 2, 1)


def test_vertex_marks_wider_than_other_alphabets():
    # |theta| = 3 exceeds max(|xi|, tcount, delta) = 1; the field width must
    # still carry the mark.
    g = EdgeListGraph(n=2, sigma_v=3, sigma_e=1, theta=(3, 2),
                      edges=((1, 2, 1, 1),))
    data = encode_marked_graph(g, 1, 1)
    assert decode_marked_graph(data).theta == (3, 2)


def test_fig_partition_tables(fig_graph):
    nl, table = fig_tables(fig_graph)
    pdeg, padj = find_partition_graphs(nl, table, *find_deg(nl, table))
    assert {k: tuple(v) for k, v in pdeg.items()} == {
        (3, 4): (2,) * 5,
        (4, 3): (1,) * 10,
        (5, 5): (1,) * 10,
    }
    assert sorted(padj) == [(3, 4), (5, 5)]
    assert [tuple(r) for r in padj[(3, 4)]] == [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
    assert [tuple(r) for r in padj[(5, 5)]] == [(2,), (), (4,), (), (6,), (),
                                                (8,), (), (10,), ()]


def test_fig_original_index(fig_graph):
    nl, table = fig_tables(fig_graph)
    dictionary, ids = find_deg(nl, table)
    pdeg_enc, _ = find_partition_graphs(nl, table, dictionary, ids)
    pdeg_dec, oi = decode_partition_structures(dictionary, ids)
    assert {k: tuple(v) for k, v in pdeg_dec.items()} == \
        {k: tuple(v) for k, v in pdeg_enc.items()}
    assert {k: tuple(v) for k, v in oi.items()} == {
        (3, 4): tuple(range(2, 7)),
        (4, 3): tuple(range(7, 17)),
        (5, 5): tuple(range(7, 17)),
    }


def test_partition_structures_empty():
    # Five vertices over two edgeless types: no label pair, no table.
    pdeg, oi = decode_partition_structures([(1,), (2,)], [1, 2, 2, 1, 2])
    assert pdeg == {} and oi == {}


def test_partition_tables_match_across_sides_random():
    # The decoder's tables come from the vertex-type block as read back
    # from the bits the encoder wrote, not from the encoder's own values.
    rng = random.Random(54)
    for _ in range(40):
        n = rng.randint(1, 30)
        g = random_marked_graph(rng, n, rng.random() * 0.4, 2, 2)
        delta = rng.randint(1, 6)
        nl = preprocess(g)
        table = extract_types(nl, rng.randint(1, 3), delta)
        dictionary, ids = find_deg(nl, table)
        pdeg_enc, padj = find_partition_graphs(nl, table, dictionary, ids)
        out = BitWriter()
        encode_vertex_types(dictionary, ids, n, delta, 2, 2, table.tcount, out)
        read = decode_vertex_types(BitReader(out.to_bytes()), n, delta, 2, 2, table.tcount)
        pdeg_dec, oi = decode_partition_structures(*read)
        assert {k: tuple(v) for k, v in pdeg_enc.items()} == \
            {k: tuple(v) for k, v in pdeg_dec.items()}
        # Against a per-vertex loop: members are the vertices whose
        # profile holds the pair, in order, and the degrees their counts.
        deg = vertex_profiles(dictionary, ids)
        assert {k: v.tolist() for k, v in oi.items()} == \
            {k: [v for v in range(1, n + 1) if k in deg[v]] for k in pdeg_enc}
        assert pdeg_dec == {k: [deg[v][k] for v in oi[k]] for k in pdeg_enc}
        # Every non-star edge lands in exactly one partition graph.
        non_star = sum(
            1 for v in range(1, n + 1) for i in range(nl.deg[v])
            if not table.star[nl.start[v] + i] and nl.gamma[v][i] > v)
        listed = sum(len(row) for adj in padj.values() for row in adj)
        assert listed == non_star


def test_fig_roundtrip_and_partition_count(fig_graph):
    data = encode_marked_graph(fig_graph, 2, 4)
    decoded = decode_marked_graph(data)
    assert decoded.theta == fig_graph.theta
    assert canonical_edges(decoded) == canonical_edges(fig_graph)
    # Two partition graphs, keys (3,4) and (5,5).
    nl, table = fig_tables(fig_graph)
    _, padj = find_partition_graphs(nl, table, *find_deg(nl, table))
    assert sorted(padj) == [(3, 4), (5, 5)]


def test_edgeless_graph_roundtrip():
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1), edges=())
    data = encode_marked_graph(g, 2, 3)
    assert same_graph(decode_marked_graph(data), g)


def test_edgeless_graph_wire_fields():
    # No h in the header, TCount 0, all-zero star bitmap, a single vertex
    # type with no id field, no partition graph, then the pad and the CRC.
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1), edges=())
    data = encode_marked_graph(g, 2, 3)
    r = BitReader(data)
    assert bytes(r.read_fixed(8) for _ in range(4)) == b"LWCG"
    assert r.read_fixed(8) == VERSION == 3
    assert [r.read_elias_delta() for _ in range(4)] == [3, 1, 1, 3]
    assert r.read_elias_delta() == 1  # 1 + TCount
    assert decode_sequence(3, r) == [0, 0, 0]  # star bitmap
    # no star edges, then the vertex-type block: one dictionary entry
    assert r.read_fixed(width(3)) == 1
    size = r.read_fixed(width(1 + 9))
    assert size == 1
    assert r.read_fixed(width(max(1, 1, 0, 3))) == 1  # the lone mark
    assert decode_sequence(3, r) == [1, 1, 1]          # y
    assert r.read_fixed(-r.position % 8) == 0          # pad
    assert r.read_fixed(32) == zlib.crc32(data[:-4])
    assert r.remaining() == 0


def test_identical_isolated_vertices_single_type():
    g = EdgeListGraph(n=5, sigma_v=2, sigma_e=1, theta=(2,) * 5, edges=())
    nl = preprocess(g)
    table = extract_types(nl, 1, 1)
    dictionary, ids = find_deg(nl, table)
    assert dictionary == [(2,)] and ids == [1] * 5
    out = BitWriter()
    encode_vertex_types(dictionary, ids, 5, 1, 1, 2, table.tcount, out)
    r = BitReader(out.to_bytes())
    assert r.read_fixed(width(5)) == 1  # one dictionary entry


def test_all_star_graph_has_empty_partition_tables():
    # A 3-path with cap 1 turns both edges into stars.
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1),
                      edges=((1, 2, 1, 1), (2, 3, 1, 1)))
    nl = preprocess(g)
    table = extract_types(nl, 1, 1)
    pdeg, padj = find_partition_graphs(nl, table, *find_deg(nl, table))
    assert pdeg == {} and padj == {}
    assert decode_marked_graph(encode_marked_graph(g, 1, 1)) is not None
    decoded = decode_marked_graph(encode_marked_graph(g, 1, 1))
    assert canonical_edges(decoded) == canonical_edges(g)


def test_deterministic_output(fig_graph):
    assert encode_marked_graph(fig_graph, 2, 4) == encode_marked_graph(fig_graph, 2, 4)


def test_corrupted_magic_rejected(fig_graph):
    data = bytearray(encode_marked_graph(fig_graph, 2, 4))
    data[0] ^= 0xFF
    with pytest.raises(CodecError):
        decode_marked_graph(bytes(data))


def test_unsupported_version_rejected(fig_graph):
    data = bytearray(encode_marked_graph(fig_graph, 2, 4))
    data[4] = 9
    with pytest.raises(CodecError):
        decode_marked_graph(bytes(data))


def test_version_1_stream_rejected_before_its_checksum():
    # The triangle of test_triangle_no_stars at h=1, delta=2 in format 1,
    # which has no CRC trailer, and in format 2 with its CRC damaged.
    v1 = bytes.fromhex("4c574347015e88d962b296534322bfffffffff")
    with pytest.raises(CodecError, match="unsupported version 1"):
        decode_marked_graph(v1)
    v2 = bytes.fromhex("4c574347025d13658ac96516a0c9f77e06")
    for data in (v2, v2[:-1] + bytes([v2[-1] ^ 1])):
        with pytest.raises(CodecError, match="unsupported version 2"):
            decode_marked_graph(data)


def resealed(body):
    """body with a CRC-32 trailer of its own: a mutated or cut stream that
    passes the checksum, so the checks behind it see the damage."""
    return bytes(body) + zlib.crc32(body).to_bytes(4, "big")


@pytest.mark.parametrize("h, delta", [(1, 20), (2, 4)])
def test_every_single_bit_flip_raises_codec_error(h, delta):
    # CRC-32 detects every single-bit error; a flip in the magic or the
    # version byte fails before the checksum is looked at.
    data = encode_marked_graph(gen_synthetic(300, 3.0, 2, 2, 71), h, delta)
    mutated = bytearray(data)
    for pos in range(8 * len(data)):
        mutated[pos // 8] ^= 1 << (7 - pos % 8)
        with pytest.raises(CodecError):
            decode_marked_graph(bytes(mutated))
        mutated[pos // 8] ^= 1 << (7 - pos % 8)


def test_trailing_bytes_raise_codec_error():
    # Appended junk fails the checksum; resealed, it follows a complete
    # stream and fails the end-of-stream check.
    g = gen_synthetic(300, 3.0, 2, 2, 71)
    data = encode_marked_graph(g, 2, 4)
    assert canonical_edges(decode_marked_graph(data)) == canonical_edges(g)
    with pytest.raises(CodecError, match="CRC-32 mismatch"):
        decode_marked_graph(data + bytes(70))
    with pytest.raises(CodecError, match="does not end"):
        decode_marked_graph(resealed(data + bytes(70)))


def test_corrupted_streams_never_return_silently_wrong_header(fig_graph):
    # Bit flips anywhere must either raise CodecError or still produce some
    # graph object; truncations must raise CodecError.
    rng = random.Random(57)
    data = encode_marked_graph(fig_graph, 2, 4)
    for _ in range(200):
        mutated = bytearray(data)
        pos = rng.randrange(len(mutated) * 8)
        mutated[pos // 8] ^= 1 << (7 - pos % 8)
        try:
            decode_marked_graph(bytes(mutated))
        except CodecError:
            pass
    for cut in range(0, len(data), 7):
        with pytest.raises(CodecError):
            decode_marked_graph(data[:cut])


@pytest.mark.parametrize("h, delta", [(1, 20), (2, 4)])
def test_corrupted_synthetic_streams_raise_only_codec_error(h, delta):
    # Bit flips and truncations of a larger stream reach the sequence codec,
    # the vertex-type dictionary and the final graph check: whatever fails
    # must fail as CodecError.
    # Each mutated body gets a valid CRC, so the decoder parses it.
    rng = random.Random(58)
    body = encode_marked_graph(gen_synthetic(300, 3.0, 2, 2, 71), h, delta)[:-4]
    for t in range(200):
        mutated = bytearray(body)
        if t % 2:
            del mutated[rng.randrange(len(mutated)):]
        else:
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(mutated) * 8)
                mutated[pos // 8] ^= 1 << (7 - pos % 8)
        try:
            decode_marked_graph(resealed(mutated))
        except CodecError as exc:
            assert "CRC-32" not in str(exc)


def test_roundtrip_random_parameters():
    rng = random.Random(55)
    for _ in range(150):
        n = rng.randint(1, 40)
        g = random_marked_graph(rng, n, rng.random() * 0.4,
                                rng.randint(1, 3), rng.randint(1, 3))
        h = rng.randint(1, 3)
        delta = rng.randint(1, 8)
        decoded = decode_marked_graph(encode_marked_graph(g, h, delta))
        assert decoded.n == g.n
        assert decoded.theta == g.theta
        assert canonical_edges(decoded) == canonical_edges(g)


def test_edge_count_conservation():
    # Non-star edges across partition graphs plus star edges account for m:
    # sum of partition S values is twice the non-star count.
    rng = random.Random(56)
    for _ in range(40):
        n = rng.randint(2, 30)
        g = random_marked_graph(rng, n, rng.random() * 0.5, 2, 2)
        nl = preprocess(g)
        table = extract_types(nl, rng.randint(1, 2), rng.randint(1, 4))
        deg = vertex_profiles(*find_deg(nl, table))
        m_star = sum(
            1 for v in range(1, n + 1) for i in range(nl.deg[v])
            if table.star[nl.start[v] + i] and nl.gamma[v][i] > v)
        total_deg = sum(sum(d.values()) for d in deg[1:])
        assert total_deg == 2 * (g.m - m_star)


def test_stage_outputs_pinned():
    # One hash over the star bitmap, the star channel's bits, the degree
    # profiles and the partition tables of a fixed family of graphs pins
    # the four stages between extract_types and the ranks.  Hubs above
    # delta and mean degrees near it give star vertices and star edges.
    # The profiles are listed per vertex, pairs sorted, as read from the
    # signatures.
    rng = random.Random(23)
    digest = hashlib.sha256()
    for trial in range(200):
        n = rng.randint(1, 40)
        delta = rng.randint(1, 6)
        g = random_marked_graph(rng, n, min(1.0, delta * rng.uniform(0.5, 1.5) / n),
                                rng.randint(1, 4), rng.randint(1, 3))
        if trial % 5 == 0 and n > 2:  # vertex 1 becomes a hub above delta
            hub = [(1, w, rng.randint(1, g.sigma_e), rng.randint(1, g.sigma_e))
                   for w in range(2, n + 1)]
            rest = tuple(e for e in g.edges if 1 not in e[:2])
            g = EdgeListGraph(n=n, sigma_v=g.sigma_v, sigma_e=g.sigma_e,
                              theta=g.theta, edges=tuple(hub) + rest)
        nl = preprocess(g)
        table = extract_types(nl, 1 + trial % 3, delta)
        s = find_star_vertices(nl, table)
        out = BitWriter()
        encode_star_edges(nl, table, s, out)
        dictionary, ids = find_deg(nl, table)
        deg = vertex_profiles(dictionary, ids)
        pdeg, padj = find_partition_graphs(nl, table, dictionary, ids)
        digest.update(repr((
            [int(b) for b in s], out.bit_length, out.to_bytes(),
            [sorted(d.items()) for d in deg[1:]],
            sorted((k, [int(d) for d in v]) for k, v in pdeg.items()),
            sorted((k, [[int(q) for q in row] for row in rows]) for k, rows in padj.items()),
        )).encode())
    assert digest.hexdigest() == (
        "a45fa8d63c9fe2b8a2b431a38fcd3476ea7dc0f9d6890d9ee4fda32787fb6a4a")


@pytest.mark.parametrize("sigma, shift", [(1, 1000), (2, 100)])
def test_out_of_range_partition_rank_raises_codec_error(monkeypatch, sigma, shift):
    # Write a stream whose partition ranks lie past their counts; the rank
    # decoders' ValueError must reach the caller as CodecError.
    import lwcg.pipeline as pipeline
    g = gen_synthetic(300, 3.0, sigma, sigma, 71)
    s_encode, b_encode = pipeline.s_encode, pipeline.b_encode

    def bad_s_encode(inst):
        f, cps = s_encode(inst)
        return f + (1 << shift) + 7, cps

    monkeypatch.setattr(pipeline, "s_encode", bad_s_encode)
    monkeypatch.setattr(pipeline, "b_encode", lambda inst: b_encode(inst) + (1 << shift) + 7)
    data = encode_marked_graph(g, 1, 20)
    monkeypatch.undo()
    with pytest.raises(CodecError) as info:
        decode_marked_graph(data)
    assert isinstance(info.value.__cause__, ValueError)


def test_huge_checkpoint_raises_codec_error(monkeypatch):
    # A checkpoint of 2**40 costs a few bytes of stream; the decoder must
    # refuse it before building any product from it.
    import lwcg.pipeline as pipeline
    g = gen_synthetic(300, 3.0, 1, 1, 71)  # one simple partition graph
    s_encode = pipeline.s_encode

    def bad_s_encode(inst):
        f, cps = s_encode(inst)
        assert len(cps) > 1 and cps[1]  # the root split stores a checkpoint
        return f, [0, 1 << 40] + list(cps[2:])

    monkeypatch.setattr(pipeline, "s_encode", bad_s_encode)
    data = encode_marked_graph(g, 1, 20)
    monkeypatch.undo()
    with pytest.raises(CodecError, match="checkpoint 1 "):
        decode_marked_graph(data)


@pytest.mark.parametrize("variant", ["drop last", "append 0", "append 5, 7"])
def test_checkpoint_arrays_the_encoder_never_writes_raise_codec_error(monkeypatch, variant):
    # One checkpoint short, one zero too many, or two nonzero ones too
    # many: the count no longer matches the split nodes.
    import lwcg.pipeline as pipeline
    g = gen_synthetic(300, 3.0, 1, 1, 71)  # one simple partition graph
    s_encode = pipeline.s_encode
    change = {"drop last": lambda cps: cps[:-1], "append 0": lambda cps: cps + [0],
              "append 5, 7": lambda cps: cps + [5, 7]}[variant]

    def bad_s_encode(inst):
        f, cps = s_encode(inst)
        return f, change(list(cps))

    monkeypatch.setattr(pipeline, "s_encode", bad_s_encode)
    data = encode_marked_graph(g, 1, 20)
    monkeypatch.undo()
    with pytest.raises(CodecError, match="checkpoints for"):
        decode_marked_graph(data)


def channel_spans(monkeypatch, g, h, delta):
    """Encode g; return the stream and the bit spans [start, end) of its
    type table, its star-edge channel and its vertex-type dictionary."""
    import lwcg.pipeline as pipeline
    marks = []  # writer positions before and after each call below

    def mark(fn):
        def call(*args):
            out = next(a for a in args if isinstance(a, BitWriter))
            marks.append(out.bit_length)
            fn(*args)
            marks.append(out.bit_length)
        return call

    for name in ("encode_sequence", "encode_star_edges", "encode_vertex_types"):
        monkeypatch.setattr(pipeline, name, mark(getattr(pipeline, name)))
    data = encode_marked_graph(g, h, delta)
    monkeypatch.undo()
    # star bitmap, star edges, then vertex types around the id sequence.
    bitmap0, _, star0, star1, dict0, dict1, _, _ = marks
    r = BitReader(data)
    r.read_fixed(40)  # magic and version
    for _ in range(4):  # n, sigma_e, sigma_v, delta
        r.read_elias_delta()
    return data, {"type_table": (r.position, bitmap0), "star_edges": (star0, star1),
                  "dictionary": (dict0, dict1)}


@pytest.mark.parametrize("h, delta", [(1, 20), (2, 4)])
def test_stream_without_its_partition_graphs_raises_codec_error(monkeypatch, h, delta):
    # The stream up to the end of the vertex-type block, zero-padded and
    # resealed: no partition graph, while the degree profiles still
    # declare them.
    import lwcg.pipeline as pipeline
    ends = []
    encode = pipeline.encode_vertex_types

    def encode_and_mark(*args):
        encode(*args)
        ends.append(args[-1].bit_length)

    monkeypatch.setattr(pipeline, "encode_vertex_types", encode_and_mark)
    data = encode_marked_graph(gen_synthetic(300, 3.0, 2, 2, 71), h, delta)
    monkeypatch.undo()
    with pytest.raises(CodecError) as info:
        decode_marked_graph(resealed(cut(data, ends[0])))
    assert "CRC-32 mismatch" not in str(info.value)


def cut(data, nbits):
    """The first nbits bits of data, zero-padded to a byte boundary."""
    head = data[:nbits // 8]
    if nbits % 8:
        head += bytes([data[nbits // 8] & (0xFF << (8 - nbits % 8)) & 0xFF])
    return head


@pytest.mark.parametrize("h, delta", [(2, 4), (1, 20)])
def test_streams_cut_inside_star_edges_or_dictionary_raise_codec_error(monkeypatch, h, delta):
    # About 100 evenly spaced cuts per channel, every bit of a shorter one.
    # The star-edge channel is empty at h=1, delta=20.
    data, spans = channel_spans(monkeypatch, gen_synthetic(300, 3.0, 2, 2, 71), h, delta)
    cuts = set()
    for start, end in spans.values():
        cuts.update(range(start, end, max(1, (end - start) // 100)))
    assert len(cuts) >= 100
    for nbits in sorted(cuts):
        with pytest.raises(CodecError) as info:
            decode_marked_graph(resealed(cut(data, nbits)))
        assert "CRC-32 mismatch" not in str(info.value)


@functools.lru_cache(maxsize=None)
def fuzz_stream(h, delta):
    """The seed-71 n = 300 stream and its channel spans, computed once."""
    with pytest.MonkeyPatch.context() as mp:
        return channel_spans(mp, gen_synthetic(300, 3.0, 2, 2, 71), h, delta)


def mutated_body(draw, data, start, end):
    """data without its CRC, with bits flipped in [start, end), cut inside
    it, or a piece of it replaced by up to 64 random bits."""
    nbits, body = 8 * len(data) - 32, int.from_bytes(data[:-4], "big")
    kind = draw(st.sampled_from(["flip", "cut", "splice"]))
    if kind == "flip":
        for pos in draw(st.lists(st.integers(start, end - 1), min_size=1, max_size=3)):
            body ^= 1 << (nbits - 1 - pos)
        return body.to_bytes(nbits // 8, "big")
    if kind == "cut":
        return cut(data, draw(st.integers(start, end - 1)))
    a = draw(st.integers(start, end - 1))
    b = draw(st.integers(a, end))
    k = draw(st.integers(0, 64))
    spliced = (body >> (nbits - a) << k | draw(st.integers(0, (1 << k) - 1))) << (nbits - b)
    total = nbits - (b - a) + k
    value = (spliced | body & ((1 << (nbits - b)) - 1)) << (-total % 8)
    return value.to_bytes(-(-total // 8), "big")


@settings(derandomize=True, max_examples=200, deadline=None)
@given(st.sampled_from([(2, 4, "star_edges"), (2, 4, "dictionary"), (1, 20, "dictionary"),
                        (2, 4, "type_table"), (1, 20, "type_table")]),
       st.data())
def test_fuzzed_side_channels_raise_only_codec_error(channel, data):
    # Bit flips, cuts and splices inside the type table, the star channel
    # or the vertex-type dictionary, resealed so the parsers behind the
    # CRC see them: each case decodes to some graph or raises CodecError,
    # fast.  (The star channel is empty at h = 1, delta = 20.)
    h, delta, name = channel
    stream, spans = fuzz_stream(h, delta)
    body = mutated_body(data.draw, stream, *spans[name])
    t0 = time.perf_counter()
    try:
        decode_marked_graph(resealed(body))
    except CodecError as exc:
        assert "CRC-32" not in str(exc)
    assert time.perf_counter() - t0 < 2.0


def spliced_dictionary(monkeypatch, change):
    """The seed-71 n = 300 stream at h = 1, delta = 20 with its vertex-type
    dictionary entries replaced by change(entries), resealed.  The changes
    below keep the dictionary's length in bits, so the rest of the stream
    stays put."""
    g = gen_synthetic(300, 3.0, 2, 2, 71)
    data, spans = channel_spans(monkeypatch, g, 1, 20)
    start, end = spans["dictionary"]
    tcount = extract_types(preprocess(g), 1, 20).tcount
    w_count, w_size, w_elem = width(g.n), width(1 + 3 * 20), width(max(2, 2, tcount, 20))
    r = BitReader(data)
    head, count = r.read_fixed(start), r.read_fixed(w_count)
    sizes = r.read_fields([w_size] * count).tolist()
    flat = r.read_fields([w_elem] * sum(sizes)).tolist()
    assert r.position == end
    ends = list(itertools.accumulate(sizes))
    entries = change([flat[b - k:b] for k, b in zip(sizes, ends)])
    tail = r.read_fixed(8 * len(data) - 32 - end)
    out = BitWriter()
    out.write_fixed(head, start)
    out.write_fixed(count, w_count)
    out.write_fields([len(sig) for sig in entries], [w_size] * count)
    out.write_fields([x for sig in entries for x in sig], [w_elem] * sum(sizes))
    out.write_fixed(tail, 8 * len(data) - 32 - end)
    body = out.to_bytes()
    assert len(body) == len(data) - 4
    return resealed(body)


def swap_first_two(entries):
    return [entries[1], entries[0], *entries[2:]]


def repeat_one(entries):
    k = next(k for k in range(len(entries) - 1) if len(entries[k]) == len(entries[k + 1]))
    return entries[:k + 1] + [entries[k]] + entries[k + 2:]


@pytest.mark.parametrize("change", [swap_first_two, repeat_one])
def test_dictionary_out_of_order_raises_codec_error(monkeypatch, change):
    # No encoder writes an unsorted dictionary or one signature twice.
    with pytest.raises(CodecError, match="not strictly increasing"):
        decode_marked_graph(spliced_dictionary(monkeypatch, change))


def test_type_table_mark_beyond_int64_raises_codec_error():
    # A 65-bit alphabet: the lone type's mark, 1 on the wire, replaced by
    # one inside the alphabet but beyond the int64 records, resealed.
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1 << 64, theta=(1, 1, 1),
                      edges=((1, 2, 1, 1),))
    data = encode_marked_graph(g, 1, 4)
    r = BitReader(data)
    r.read_fields([8] * 5)
    assert [r.read_elias_delta() for _ in range(5)] == [3, 1 << 64, 1, 4, 2]
    shift = 8 * (len(data) - 4) - r.position - 65
    body = int.from_bytes(data[:-4], "big")
    assert body >> shift & (1 << 65) - 1 == 1
    mark = (1 << 63) + 1
    body |= mark - 1 << shift
    with pytest.raises(CodecError, match=f"^type-table mark {mark} outside 1..{2**63 - 1}$"):
        decode_marked_graph(resealed(body.to_bytes(len(data) - 4, "big")))


@pytest.mark.parametrize("top_bit", [0, 1])
def test_dictionary_field_beyond_64_bits_raises_codec_error(monkeypatch, top_bit):
    # A vertex-mark alphabet of 2**64 makes every dictionary element a
    # 65-bit field.  The encoder leaves its top bit 0; the stream with the
    # first element's top bit set, resealed, declares a vertex mark of
    # 2**64 + 1, which no uint64 column holds.
    g = EdgeListGraph(n=3, sigma_v=1 << 64, sigma_e=1, theta=(1, 1, 1),
                      edges=((1, 2, 1, 1),))
    data, spans = channel_spans(monkeypatch, g, 1, 4)
    start, end = spans["dictionary"]
    count_and_sizes = width(3) + 2 * width(1 + 3 * 4)  # two signatures
    assert end - start == count_and_sizes + 5 * 65  # (1,) and (1, 1, 1, 1)
    body = int.from_bytes(data[:-4], "big") | top_bit << (8 * len(data) - 33 - start
                                                          - count_and_sizes)
    stream = resealed(body.to_bytes(len(data) - 4, "big"))
    if top_bit:
        with pytest.raises(CodecError, match="field beyond 64 bits"):
            decode_marked_graph(stream)
    else:
        assert stream == data
        assert same_graph(decode_marked_graph(stream), g)


@pytest.mark.parametrize("mark", [0, 3])
def test_type_table_mark_outside_alphabet_raises_codec_error(mark):
    # The seed-71 n = 300 stream (sigma_e = 2, two-bit marks) with its
    # first type-table mark replaced, resealed: refused as it is read, not
    # once the ranks have decoded an invalid graph.
    data = encode_marked_graph(gen_synthetic(300, 3.0, 2, 2, 71), 1, 20)
    r = BitReader(data)
    r.read_fields([8] * 5)
    for _ in range(5):  # n, sigma_e, sigma_v, delta, 1 + tcount
        r.read_elias_delta()
    shift = 8 * (len(data) - 4) - r.position - width(2)
    body = int.from_bytes(data[:-4], "big")
    assert body >> shift & 3 in (1, 2)
    body = body & ~(3 << shift) | mark << shift
    with pytest.raises(CodecError, match=f"^type-table mark {mark} outside 1..2$"):
        decode_marked_graph(resealed(body.to_bytes(len(data) - 4, "big")))
