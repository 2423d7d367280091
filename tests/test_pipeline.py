import random

import pytest

from conftest import random_marked_graph
from lwcg.bits import BitReader, BitWriter, width
from lwcg.edge_types import extract_types
from lwcg.graph_model import EdgeListGraph, canonical_edges, preprocess
from lwcg.pipeline import (
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
    # Only the (x, xp) = (2, 1) row carries records: vertex 1 emits five
    # 1+index records (5-bit indices), vertices 2..6 lone zeros; the three
    # other rows emit six zeros total each.
    nl, table = fig_tables(fig_graph)
    s = find_star_vertices(nl, table)
    out = BitWriter()
    encode_star_edges(nl, table, s, out)
    assert width(16) == 5
    expected_bits = 4 * 6 + 5 * (1 + 5)  # 24 flag-0 rows + five records + 0
    assert len(out) == expected_bits
    r = BitReader(out.to_bytes())
    records = decode_star_edges(r, s, 16, 2)
    assert records == [(1, w, 2, 1) for w in range(2, 7)]


def test_star_edges_empty_channel():
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1),
                      edges=((1, 2, 1, 1), (2, 3, 1, 1), (1, 3, 1, 1)))
    nl = preprocess(g)
    table = extract_types(nl, 1, 2)
    s = find_star_vertices(nl, table)
    out = BitWriter()
    encode_star_edges(nl, table, s, out)
    assert len(out) == 0


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
        got = decode_star_edges(BitReader(out.to_bytes()), s, n, 2)
        expect = set()
        for v in range(1, n + 1):
            for i in range(nl.deg[v]):
                if table.is_star_edge(v, i) and nl.gamma[v][i] > v:
                    expect.add((v, nl.gamma[v][i], nl.x[v][i], nl.xp[v][i]))
        assert set(got) == expect and len(got) == len(expect)


def test_fig_deg_profiles(fig_graph):
    nl, table = fig_tables(fig_graph)
    deg = find_deg(nl, table)
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
        deg = find_deg(nl, table)
        for v in range(1, n + 1):
            total = sum(deg[v].values())
            assert total <= delta
            assert all(1 <= c <= delta for c in deg[v].values())


def test_fig_vertex_type_dictionary_and_y(fig_graph):
    nl, table = fig_tables(fig_graph)
    deg = find_deg(nl, table)
    out = BitWriter()
    encode_vertex_types(deg, nl.theta, 16, 4, 2, 2, table.tcount, out)
    r = BitReader(out.to_bytes())
    w_id = width(16)
    assert r.read_fixed(w_id) == 3  # three distinct vertex types
    entries = {}
    w_size = width(1 + 12)
    w_elem = width(max(2, 2, table.tcount, 4))
    for _ in range(3):
        size = r.read_fixed(w_size)
        sig = tuple(r.read_fixed(w_elem) for _ in range(size))
        entries[sig] = r.read_fixed(w_id)
    # Signatures per the worked example, with the spoke count forced to 2.
    assert entries == {(2,): 1, (1, 3, 4, 2): 2, (2, 4, 3, 1, 5, 5, 1): 3}
    theta, deg2 = decode_vertex_types(BitReader(out.to_bytes()), 16, 4, 2, 2,
                                      table.tcount)
    assert theta[1:] == list(nl.theta[1:])
    assert deg2[1:] == deg[1:]


def test_vertex_types_y_sequence(fig_graph):
    nl, table = fig_tables(fig_graph)
    deg = find_deg(nl, table)
    sigs = []
    for v in range(1, 17):
        sig = [nl.theta[v]]
        for key in sorted(deg[v]):
            sig.extend(key)
            sig.append(deg[v][key])
        sigs.append(tuple(sig))
    ids = {}
    y = []
    for sig in sigs:
        ids.setdefault(sig, len(ids) + 1)
        y.append(ids[sig])
    assert y == [1] + [2] * 5 + [3] * 10


def test_vertex_types_roundtrip_random():
    rng = random.Random(53)
    for _ in range(60):
        n = rng.randint(1, 40)
        g = random_marked_graph(rng, n, rng.random() * 0.4,
                                rng.randint(1, 3), rng.randint(1, 3))
        delta = rng.randint(1, 6)
        nl = preprocess(g)
        table = extract_types(nl, rng.randint(1, 3), delta)
        deg = find_deg(nl, table)
        out = BitWriter()
        encode_vertex_types(deg, nl.theta, n, delta, g.sigma_e, g.sigma_v,
                            table.tcount, out)
        theta, deg2 = decode_vertex_types(BitReader(out.to_bytes()), n, delta,
                                          g.sigma_e, g.sigma_v, table.tcount)
        assert theta[1:] == list(nl.theta[1:])
        assert deg2[1:] == deg[1:]


def test_vertex_marks_wider_than_other_alphabets():
    # |theta| = 3 exceeds max(|xi|, tcount, delta) = 1; the field width must
    # still carry the mark.
    g = EdgeListGraph(n=2, sigma_v=3, sigma_e=1, theta=(3, 2),
                      edges=((1, 2, 1, 1),))
    data = encode_marked_graph(g, 1, 1)
    assert decode_marked_graph(data).theta == (3, 2)


def test_fig_partition_tables(fig_graph):
    nl, table = fig_tables(fig_graph)
    deg = find_deg(nl, table)
    pdeg, padj, pidx = find_partition_graphs(nl, table, deg)
    assert {k: tuple(v) for k, v in pdeg.items()} == {
        (3, 4): (2,) * 5,
        (4, 3): (1,) * 10,
        (5, 5): (1,) * 10,
    }
    assert sorted(padj) == [(3, 4), (5, 5)]
    assert [tuple(r) for r in padj[(3, 4)]] == [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]
    assert [tuple(r) for r in padj[(5, 5)]] == [(2,), (), (4,), (), (6,), (),
                                                (8,), (), (10,), ()]
    assert pidx[7] == {(4, 3): 1, (5, 5): 1}
    assert pidx[3] == {(3, 4): 2}


def test_fig_original_index(fig_graph):
    nl, table = fig_tables(fig_graph)
    deg = find_deg(nl, table)
    pdeg_enc, _, _ = find_partition_graphs(nl, table, deg)
    pdeg_dec, oi = decode_partition_structures(deg, 16)
    assert {k: tuple(v) for k, v in pdeg_dec.items()} == \
        {k: tuple(v) for k, v in pdeg_enc.items()}
    assert {k: tuple(v) for k, v in oi.items()} == {
        (3, 4): tuple(range(2, 7)),
        (4, 3): tuple(range(7, 17)),
        (5, 5): tuple(range(7, 17)),
    }


def test_partition_structures_empty():
    deg = [None] + [{} for _ in range(5)]
    pdeg, oi = decode_partition_structures(deg, 5)
    assert pdeg == {} and oi == {}


def test_partition_tables_match_across_sides_random():
    rng = random.Random(54)
    for _ in range(40):
        n = rng.randint(1, 30)
        g = random_marked_graph(rng, n, rng.random() * 0.4, 2, 2)
        nl = preprocess(g)
        table = extract_types(nl, rng.randint(1, 3), rng.randint(1, 6))
        deg = find_deg(nl, table)
        pdeg_enc, padj, _ = find_partition_graphs(nl, table, deg)
        pdeg_dec, oi = decode_partition_structures(deg, n)
        assert {k: tuple(v) for k, v in pdeg_enc.items()} == \
            {k: tuple(v) for k, v in pdeg_dec.items()}
        # Every non-star edge lands in exactly one partition graph.
        non_star = sum(
            1 for v in range(1, n + 1) for i in range(nl.deg[v])
            if not table.is_star_edge(v, i) and nl.gamma[v][i] > v)
        listed = sum(len(row) for adj in padj.values() for row in adj)
        assert listed == non_star


def test_fig_roundtrip_and_partition_count(fig_graph):
    data = encode_marked_graph(fig_graph, 2, 4)
    decoded = decode_marked_graph(data)
    assert decoded.theta == fig_graph.theta
    assert canonical_edges(decoded) == canonical_edges(fig_graph)
    # Two partition graphs, keys (3,4) and (5,5).
    nl, table = fig_tables(fig_graph)
    deg = find_deg(nl, table)
    _, padj, _ = find_partition_graphs(nl, table, deg)
    assert sorted(padj) == [(3, 4), (5, 5)]


def test_edgeless_graph_roundtrip():
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1), edges=())
    data = encode_marked_graph(g, 2, 3)
    assert decode_marked_graph(data) == g


def test_edgeless_graph_wire_fields():
    # TCount 0, all-zero star bitmap, a single vertex type, and a
    # partition-count field of ED(1).
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1), edges=())
    data = encode_marked_graph(g, 2, 3)
    r = BitReader(data)
    assert bytes(r.read_fixed(8) for _ in range(4)) == b"LWCG"
    assert r.read_fixed(8) == 1
    assert [r.read_elias_delta() for _ in range(5)] == [3, 1, 1, 2, 3]
    assert r.read_elias_delta() == 1  # 1 + TCount
    from lwcg.sequences import decode_sequence
    assert decode_sequence(3, r) == [0, 0, 0]  # star bitmap
    # no star edges, then the vertex-type block: one dictionary entry
    assert r.read_fixed(width(3)) == 1
    size = r.read_fixed(width(1 + 9))
    assert size == 1
    assert r.read_fixed(width(max(1, 1, 0, 3))) == 1  # the lone mark
    assert r.read_fixed(width(3)) == 1                # its id
    assert decode_sequence(3, r) == [1, 1, 1]          # y
    assert r.read_elias_delta() == 1                   # no partition graphs


def test_identical_isolated_vertices_single_type():
    g = EdgeListGraph(n=5, sigma_v=2, sigma_e=1, theta=(2,) * 5, edges=())
    nl = preprocess(g)
    table = extract_types(nl, 1, 1)
    deg = find_deg(nl, table)
    out = BitWriter()
    encode_vertex_types(deg, nl.theta, 5, 1, 1, 2, table.tcount, out)
    r = BitReader(out.to_bytes())
    assert r.read_fixed(width(5)) == 1  # one dictionary entry


def test_all_star_graph_has_empty_partition_tables():
    # A 3-path with cap 1 turns both edges into stars.
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1),
                      edges=((1, 2, 1, 1), (2, 3, 1, 1)))
    nl = preprocess(g)
    table = extract_types(nl, 1, 1)
    deg = find_deg(nl, table)
    pdeg, padj, pidx = find_partition_graphs(nl, table, deg)
    assert pdeg == {} and padj == {}
    assert all(d == {} for d in pidx[1:])
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
    rng = random.Random(58)
    data = encode_marked_graph(gen_synthetic(300, 3.0, 2, 2, 71), h, delta)
    for t in range(200):
        mutated = bytearray(data)
        if t % 2:
            del mutated[rng.randrange(len(mutated)):]
        else:
            for _ in range(rng.randint(1, 3)):
                pos = rng.randrange(len(mutated) * 8)
                mutated[pos // 8] ^= 1 << (7 - pos % 8)
        try:
            decode_marked_graph(bytes(mutated))
        except CodecError:
            pass


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
        deg = find_deg(nl, table)
        m_star = sum(
            1 for v in range(1, n + 1) for i in range(nl.deg[v])
            if table.is_star_edge(v, i) and nl.gamma[v][i] > v)
        total_deg = sum(sum(d.values()) for d in deg[1:])
        assert total_deg == 2 * (g.m - m_star)


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


def channel_spans(monkeypatch, g, h, delta):
    """Encode g; return the stream and the bit spans [start, end) of its
    star-edge channel and of its vertex-type dictionary."""
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
    _, _, star0, star1, dict0, dict1, _, _ = marks
    return data, {"star_edges": (star0, star1), "dictionary": (dict0, dict1)}


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
        with pytest.raises(CodecError):
            decode_marked_graph(cut(data, nbits))
