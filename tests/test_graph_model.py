import random

import numpy as np
import pytest

from conftest import random_marked_graph, same_graph, sample_graph
from lwcg.graph_model import (
    EdgeListGraph,
    GraphFormatError,
    canonical_edges,
    format_edge_list,
    parse_edge_list,
    preprocess,
)


def test_parse_smallest_graph():
    g = parse_edge_list("2 1 1 1\n1 1\n1 2 1 1\n")
    assert g.n == 2 and g.m == 1
    assert g.edges.tolist() == [[1, 2, 1, 1]]


def test_parse_sample_graph_text(fig_graph):
    text = format_edge_list(fig_graph)
    g = parse_edge_list(text)
    assert g.n == 16
    assert g.m == 20
    assert g.sigma_e == 2 and g.sigma_v == 2
    assert canonical_edges(g) == canonical_edges(fig_graph)


def test_parse_comments_and_blank_lines():
    text = "# a comment\n\n2 1 2 2\n# marks\n1 2\n\n2 1 2 1\n"
    g = parse_edge_list(text)
    assert g.theta == (1, 2)
    assert g.edges.tolist() == [[2, 1, 2, 1]]


@pytest.mark.parametrize("text,bad_line", [
    ("2 1 1 1\n1 1\n1 1 1 1\n", 3),        # self loop
    ("2 2 1 1\n1 1\n1 2 1 1\n2 1 1 1\n", 4),  # duplicate other orientation
    ("2 1 1 1\n1 3\n1 2 1 1\n", 2),        # vertex mark out of range
    ("2 1 1 1\n1 1\n1 2 2 1\n", 3),        # edge mark out of range
    ("2 1 1 1\n1 1\n1 3 1 1\n", 3),        # endpoint out of range
    ("2 1 1 1\n1 1\nx 2 1 1\n", 3),        # non-integer
])
def test_parse_errors_carry_line_numbers(text, bad_line):
    with pytest.raises(GraphFormatError) as exc:
        parse_edge_list(text)
    assert exc.value.line == bad_line


BIG = 2**70
OK = ((1, 2, 1, 1), (3, 4, 2, 1))


# Each message and record is the one the per-record loop gave before the
# checks were vectorised (n = 4, two vertex and two edge marks), except
# that the loop let a record of other than 4 fields raise its unpacking
# error.
@pytest.mark.parametrize("theta, edges, message, record", [
    ((1, 3, 1, 2), OK, "vertex 2: mark 3 outside 1..2", 0),
    ((1, 2, 0, 2), OK, "vertex 3: mark 0 outside 1..2", 0),
    ((BIG, 2, 1, 2), OK, f"vertex 1: mark {BIG} outside 1..2", 0),
    ((1, 2, 1, 2), OK + ((0, 3, 1, 1),), "edge (0,3): endpoint out of range", 3),
    ((1, 2, 1, 2), OK + ((5, 1, 1, 1),), "edge (5,1): endpoint out of range", 3),
    ((1, 2, 1, 2), OK + ((1, BIG, 1, 1),), f"edge (1,{BIG}): endpoint out of range", 3),
    ((1, 2, 1, 2), OK + ((-BIG, 2, 1, 1),), f"edge ({-BIG},2): endpoint out of range", 3),
    ((1, 2, 1, 2), OK + ((3, 3, 1, 1),), "self loop at vertex 3", 3),
    ((1, 2, 1, 2), OK + ((1, 3, 3, 1),), "edge (1,3): mark outside 1..2", 3),
    ((1, 2, 1, 2), OK + ((1, 3, 1, 0),), "edge (1,3): mark outside 1..2", 3),
    ((1, 2, 1, 2), OK + ((1, 3, 1, BIG),), "edge (1,3): mark outside 1..2", 3),
    ((1, 2, 1, 2), OK + ((1, 2, 2, 2),), "duplicate edge {1,2}", 3),
    ((1, 2, 1, 2), OK + ((4, 3, 1, 1),), "duplicate edge {3,4}", 3),
    # The first failing record wins, whatever fails after it.
    ((1, 2, 1, 2), OK + ((2, 1, 1, 1), (3, 3, 1, 1), (0, 1, 1, 1)), "duplicate edge {1,2}", 3),
    ((1, 2, 1, 2), OK + ((3, 3, 1, 1), (2, 1, 1, 1), (1, BIG, 1, 1)), "self loop at vertex 3", 3),
    ((1, 2, 1, 2), OK + ((1, BIG, 1, 1), (3, 3, 1, 1), (2, 1, 1, 1)),
     f"edge (1,{BIG}): endpoint out of range", 3),
    ((1, 2, 1, 2), ((1, 2, 1, 1), (2, 3, 1, 9), (1, 2, 1, 1)), "edge (2,3): mark outside 1..2", 2),
    # (0, 7) packs to the same pair key as (1, 2) but fails on its own.
    ((1, 2, 1, 2), ((0, 7, 1, 1),) + OK, "edge (0,7): endpoint out of range", 1),
    ((1, 2, 1, 2), OK + ((0, 7, 1, 1),), "edge (0,7): endpoint out of range", 3),
    # A record of other than 4 fields fails where it stands.
    ((1, 2, 1, 2), OK + ((1, 3, 1, 1, 1), (2, 4, 1, 1)), "edge record (1, 3, 1, 1, 1): expected 4 fields", 3),
    ((1, 2, 1, 2), OK + ((4, 3, 1, 1), (1, 3, 1)), "duplicate edge {3,4}", 3),
    # Vertex marks are checked before any edge.
    ((1, 2, 1, 9), ((3, 3, 1, 1),), "vertex 4: mark 9 outside 1..2", 0),
])
def test_validation_errors_name_the_first_failing_record(theta, edges, message, record):
    # Records of 4 fields inside int64 fail the same way as an int64
    # (m, 4) array, which the constructor keeps without converting.
    forms = [edges]
    if all(len(r) == 4 and all(-2**63 <= f < 2**63 for f in r) for r in edges):
        forms.append(np.array(edges, dtype=np.int64).reshape(-1, 4))
    for form in forms:
        with pytest.raises(GraphFormatError) as exc:
            EdgeListGraph(n=4, sigma_v=2, sigma_e=2, theta=theta, edges=form)
        assert (exc.value.message, exc.value.record) == (message, record)


def test_records_are_read_only():
    # A validated graph stays valid: its record array, the caller's own
    # when an int64 array was passed, cannot be written.
    a = np.array([[1, 2, 1, 1], [2, 3, 1, 1]], dtype=np.int64)
    for edges in (a.tolist(), a):
        g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1), edges=edges)
        with pytest.raises(ValueError, match="read-only"):
            g.edges[1, 1] = 1
    assert g.edges is a


def test_validation_beyond_int64():
    # Vertex marks stay Python ints; a huge alphabet admits huge ones.
    g = EdgeListGraph(n=2, sigma_v=BIG, sigma_e=1, theta=(BIG - 1, 1), edges=((1, 2, 1, 1),))
    assert g.theta[0] == BIG - 1
    # Edge fields become int64 half-edge arrays, so a wider mark fails
    # even inside its alphabet.
    with pytest.raises(GraphFormatError) as exc:
        EdgeListGraph(n=2, sigma_v=1, sigma_e=BIG, theta=(1, 1), edges=((1, 2, 1, BIG - 1),))
    assert (exc.value.message, exc.value.record) == ("edge (1,2): mark beyond 64 bits", 1)


def test_parse_wrong_edge_count():
    with pytest.raises(GraphFormatError):
        parse_edge_list("2 2 1 1\n1 1\n1 2 1 1\n")


def test_preprocess_sample_vertex_5(fig_graph):
    nl = preprocess(fig_graph)
    assert nl.gamma[5] == (1, 13, 14)
    assert nl.x[5] == (1, 1, 1)
    assert nl.xp[5] == (2, 1, 1)
    assert nl.gammat[5] == (4, 1, 1)


def test_preprocess_edgeless_and_plain_ints():
    g = EdgeListGraph(n=3, sigma_v=2, sigma_e=1, theta=(2, 1, 2), edges=())
    nl = preprocess(g)
    assert nl.deg == (0, 0, 0, 0)
    assert nl.gamma == nl.gammat == nl.x == nl.xp == ((),) * 4
    assert nl.theta == (0, 2, 1, 2)
    rng = random.Random(5)
    nl = preprocess(random_marked_graph(rng, 15, 0.4, 2, 2))
    for rows in (nl.gamma, nl.gammat, nl.x, nl.xp):
        assert all(type(e) is int for row in rows for e in row)
    assert all(type(d) is int for d in nl.deg)


def same_layout(a, b) -> bool:
    """Whether two neighbor-list graphs hold the same header and arrays."""
    return ((a.n, a.sigma_v, a.sigma_e, a.theta) == (b.n, b.sigma_v, b.sigma_e, b.theta)
            and all(np.array_equal(getattr(a, f), getattr(b, f))
                    for f in ("start", "owner", "nbr", "mark", "mirror")))


def test_preprocess_orientation_free():
    a = EdgeListGraph(n=2, sigma_v=1, sigma_e=2, theta=(1, 1),
                      edges=((1, 2, 1, 2),))
    b = EdgeListGraph(n=2, sigma_v=1, sigma_e=2, theta=(1, 1),
                      edges=((2, 1, 2, 1),))
    assert same_layout(preprocess(a), preprocess(b))


def test_preprocess_record_shuffle_invariant():
    rng = random.Random(3)
    g = random_marked_graph(rng, 20, 0.3, 2, 2)
    edges = list(g.edges)
    rng.shuffle(edges)
    flipped = tuple((w, v, xp, x) if rng.random() < 0.5 else (v, w, x, xp)
                    for v, w, x, xp in edges)
    g2 = EdgeListGraph(n=g.n, sigma_v=g.sigma_v, sigma_e=g.sigma_e,
                       theta=g.theta, edges=flipped)
    assert same_layout(preprocess(g), preprocess(g2))


def test_preprocess_symmetry_invariants():
    rng = random.Random(7)
    for _ in range(20):
        g = random_marked_graph(rng, 30, rng.random() * 0.4, 3, 2)
        nl = preprocess(g)
        assert sum(nl.deg[1:]) == 2 * g.m
        # Adjacency-matrix oracle: record (v, w, x, xp) sets the mark
        # toward v to x and the mark toward w to xp.
        adj = {}
        for v, w, x, xp in g.edges:
            adj[(w, v)] = x
            adj[(v, w)] = xp
        for v in range(1, g.n + 1):
            assert list(nl.gamma[v]) == sorted(nl.gamma[v])
            assert len(set(nl.gamma[v])) == nl.deg[v]
            for i in range(nl.deg[v]):
                w = nl.gamma[v][i]
                j = nl.gammat[v][i] - 1
                assert nl.gamma[w][j] == v
                assert nl.x[v][i] == adj[(w, v)]
                assert nl.xp[v][i] == adj[(v, w)]
                assert nl.x[v][i] == nl.xp[w][j]


def record_loop_canonical_edges(g):
    """canonical_edges as a loop over the records, the reference."""
    out = []
    for v, w, x, xp in g.edges.tolist():
        if v > w:
            v, w, x, xp = w, v, xp, x
        out.append((v, w, x, xp))
    out.sort()
    return tuple(out)


def test_canonical_edges_matches_the_record_loop():
    rng = random.Random(29)
    for _ in range(40):
        g = random_marked_graph(rng, rng.randint(1, 25), rng.random() * 0.5, 3, 2)
        edges = g.edges.tolist()
        rng.shuffle(edges)
        flipped = [(w, v, xp, x) if rng.random() < 0.5 else (v, w, x, xp)
                   for v, w, x, xp in edges]
        g2 = EdgeListGraph(n=g.n, sigma_v=g.sigma_v, sigma_e=g.sigma_e,
                           theta=g.theta, edges=flipped)
        got = canonical_edges(g2)
        assert got == record_loop_canonical_edges(g2) == record_loop_canonical_edges(g)
        assert type(got) is tuple and all(type(r) is tuple and len(r) == 4 for r in got)
        assert all(type(f) is int for r in got for f in r)


def test_roundtrip_to_text():
    rng = random.Random(13)
    for _ in range(10):
        g = random_marked_graph(rng, 15, 0.3, 3, 3)
        assert canonical_edges(parse_edge_list(format_edge_list(g))) == canonical_edges(g)


def test_sample_graph_matches_module_fixture(fig_graph):
    assert same_graph(fig_graph, sample_graph())
