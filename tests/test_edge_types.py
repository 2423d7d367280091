import hashlib
import random

import numpy as np

from conftest import random_marked_graph
from lwcg.edge_types import (
    MarkedTree,
    extract_types,
    lambda_canonical,
    oracle_directed_type,
)
from lwcg.graph_model import EdgeListGraph, preprocess


def test_sample_graph_labels(fig_graph):
    # Non-star types sit at labels 3 < 4 and 5; hub edges are stars.
    nl = preprocess(fig_graph)
    table = extract_types(nl, h=2, delta=4)
    assert table.c[2][1] == (3, 4)      # spoke -> leaf
    assert table.c[7][0] == (4, 3)      # leaf -> spoke
    assert table.c[7][1] == (5, 5)      # leaf -> sibling leaf
    for i in range(5):                  # hub edges (1, i), 2 <= i <= 6
        t, tp = table.c[1][i]
        assert table.t_is_star[t] == 1 and table.t_is_star[tp] == 1
    assert table.tcount <= 4 * fig_graph.m


def test_isolated_vertex():
    g = EdgeListGraph(n=1, sigma_v=2, sigma_e=2, theta=(2,), edges=())
    table = extract_types(preprocess(g), h=3, delta=2)
    assert table.tcount == 0
    assert table.c[1] == ()


def test_path_single_type():
    g = EdgeListGraph(n=3, sigma_v=1, sigma_e=1, theta=(1, 1, 1),
                      edges=((1, 2, 1, 1), (2, 3, 1, 1)))
    table = extract_types(preprocess(g), h=1, delta=2)
    assert table.tcount == 1
    for v in range(1, 4):
        assert all(pair == (1, 1) for pair in table.c[v])
    assert table.t_is_star[1] == 0


def test_label_state_assignment():
    from lwcg.edge_types import _LabelState
    state = _LabelState()
    assert state.send((1, 0, 1)) == 1
    assert state.is_star[1:] == [0] and state.mark[1:] == [1]
    assert state.send((1, 0, 1)) == 1
    assert state.count == 1
    assert state.send((0, 2)) == 2
    assert state.is_star[1:] == [0, 1] and state.mark[1:] == [1, 2]


def test_lambda_base_case():
    assert lambda_canonical(0, 1, MarkedTree(mark=2), delta=5) == (2, 0, 1)


def test_lambda_degree_cap():
    leaf = MarkedTree(mark=1)
    root = MarkedTree(mark=1, children=((1, 1, leaf), (1, 1, leaf)))
    assert lambda_canonical(1, 2, root, delta=2) == (0, 2)


def test_lambda_one_child():
    child = MarkedTree(mark=1)
    root = MarkedTree(mark=2, children=((2, 1, child),))
    assert lambda_canonical(1, 1, root, delta=3) == (2, 1, 1, 0, 2, 1, 1)


def test_lambda_child_order_irrelevant():
    c1 = MarkedTree(mark=1)
    c2 = MarkedTree(mark=2)
    r1 = MarkedTree(mark=1, children=((1, 2, c1), (2, 1, c2)))
    r2 = MarkedTree(mark=1, children=((2, 1, c2), (1, 2, c1)))
    assert lambda_canonical(1, 1, r1, 5) == lambda_canonical(1, 1, r2, 5)


def test_lambda_prefix_free_on_random_trees():
    rng = random.Random(6)

    def rand_tree(depth):
        if depth == 0 or rng.random() < 0.3:
            return MarkedTree(mark=rng.randint(1, 2))
        kids = tuple((rng.randint(1, 2), rng.randint(1, 2), rand_tree(depth - 1))
                     for _ in range(rng.randint(1, 3)))
        return MarkedTree(mark=rng.randint(1, 2), children=kids)

    codes = set()
    for _ in range(200):
        codes.add(lambda_canonical(2, rng.randint(1, 2), rand_tree(2), delta=4))
    codes = sorted(codes)
    for a, b in zip(codes, codes[1:]):
        assert not (len(a) < len(b) and b[: len(a)] == a), (a, b)


def test_universal_cover_oracle_equivalence():
    # Label equality must match canonical-type equality edge by edge, the
    # star flags must agree, and marks must be the mark toward the near
    # endpoint.  Graphs are small but include cycles.
    rng = random.Random(17)
    checked = 0
    for _ in range(150):
        n = rng.randint(1, 12)
        g = random_marked_graph(rng, n, rng.random() * 0.6,
                                rng.randint(1, 2), rng.randint(1, 2))
        h = rng.randint(1, 3)
        delta = rng.randint(1, 4)
        nl = preprocess(g)
        table = extract_types(nl, h, delta)
        label_to_type = {}
        type_to_label = {}
        for v in range(1, n + 1):
            for i in range(nl.deg[v]):
                lab = table.c[v][i][0]
                ref = oracle_directed_type(nl, v, i, h, delta)
                assert label_to_type.setdefault(lab, ref) == ref
                assert type_to_label.setdefault(ref, lab) == lab
                assert (table.t_is_star[lab] == 1) == (ref[0] == "star")
                expected_mark = ref[1] if ref[0] == "star" else ref[1][-1]
                assert table.t_mark[lab] == expected_mark
                checked += 1
    assert checked > 500


def test_symmetrization_and_mirror_consistency():
    rng = random.Random(18)
    for _ in range(60):
        n = rng.randint(2, 25)
        g = random_marked_graph(rng, n, rng.random() * 0.5, 2, 2)
        nl = preprocess(g)
        table = extract_types(nl, rng.randint(1, 3), rng.randint(1, 5))
        for v in range(1, n + 1):
            for i in range(nl.deg[v]):
                w = nl.gamma[v][i]
                j = nl.gammat[v][i] - 1
                t, tp = table.c[v][i]
                assert table.c[w][j] == (tp, t)
                # Post-symmetrization: star on either side means both.
                if table.t_is_star[t] or table.t_is_star[tp]:
                    assert table.t_is_star[t] and table.t_is_star[tp]


def test_determinism():
    rng = random.Random(19)
    g = random_marked_graph(rng, 20, 0.3, 2, 2)
    nl = preprocess(g)
    a, b = extract_types(nl, 2, 3), extract_types(nl, 2, 3)
    assert (a.tcount, a.t_is_star, a.t_mark) == (b.tcount, b.t_is_star, b.t_mark)
    assert np.array_equal(a.label, b.label) and np.array_equal(a.star, b.star)


def test_tcount_bound():
    rng = random.Random(20)
    for _ in range(40):
        n = rng.randint(1, 30)
        g = random_marked_graph(rng, n, rng.random() * 0.4, 3, 3)
        table = extract_types(preprocess(g), rng.randint(1, 3), rng.randint(1, 6))
        assert table.tcount <= 4 * max(g.m, 0) + (0 if g.m else 0)
        if g.m == 0:
            assert table.tcount == 0


def test_label_numbering_pinned():
    # The codec writes labels, their first-seen numbering, the star flags
    # and marks, so one hash over a fixed family of graphs pins them all.
    # Mean degrees near delta give vertices with exactly one star neighbor,
    # where the send order inside a vertex decides the numbering.
    rng = random.Random(21)
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
        t = extract_types(preprocess(g), 1 + trial % 4, delta)
        digest.update(repr((t.tcount, t.t_is_star, t.t_mark, t.c)).encode())
    assert digest.hexdigest() == (
        "e404930615daa30761d62776aac1acc7cf0f1dbc0779e416a6664625ddc56623")


def test_label_numbering_pinned_star_order():
    # Vertex 5 has one star neighbor (the hub 6, above delta = 3) and sends
    # the stars (0, a) and (0, b) of its other sides, new in that round, in
    # sorted-message order: vertex 4's message repeats leaf 1's and so
    # sorts before vertex 3's, against index order.  Random marks and a
    # random tail on the vertices past 10 vary the rest.
    rng = random.Random(22)
    digest = hashlib.sha256()

    def mark():
        return rng.randint(1, 3)

    for trial in range(24):
        a, b = rng.sample(range(1, 4), 2)
        c = mark()
        edges = [(1, 2, c, mark()), (2, 3, mark(), mark()), (3, 5, mark(), a),
                 (4, 5, c, b), (5, 6, mark(), mark())]
        edges += [(6, w, mark(), mark()) for w in range(7, 11)]
        tail = random_marked_graph(rng, rng.randint(1, 12), 0.3, 3, 1)
        edges += [(10 + v, 10 + w, x, xp) for v, w, x, xp in tail.edges]
        n = 10 + len(tail.theta)
        g = EdgeListGraph(n=n, sigma_v=1, sigma_e=3, theta=(1,) * n, edges=tuple(edges))
        t = extract_types(preprocess(g), 3 + trial % 2, 3)
        digest.update(repr((t.tcount, t.t_is_star, t.t_mark, t.c)).encode())
    assert digest.hexdigest() == (
        "7db2bb28a0804be0e858b0e5bb0c883002e68f0afb4bee39eb256c87e791839d")
