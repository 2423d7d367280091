import random
from itertools import combinations

import pytest

import lwcg.simple_graph as simple_graph
from lwcg.fenwick import SuffixFenwick
from lwcg.intmath import ceil_div, double_factorial_ratio, prod_factorial
from lwcg.ranking import split_nodes
from lwcg.simple_graph import (
    SimpleInstance,
    checkpoint_tree,
    s_configuration_count,
    s_count_oracle,
    s_decode,
    s_encode,
    split_threshold,
)


def instance_from_edges(pn, edges):
    fwd = [[] for _ in range(pn)]
    deg = [0] * (pn + 1)
    for v, w in edges:
        if v > w:
            v, w = w, v
        fwd[v - 1].append(w)
        deg[v] += 1
        deg[w] += 1
    return SimpleInstance(a=tuple(deg[1:]),
                          fwd=tuple(tuple(sorted(x)) for x in fwd))


def all_simple_instances(max_n=5, max_deg=2):
    for pn in range(2, max_n + 1):
        pairs = list(combinations(range(1, pn + 1), 2))
        for r in range(len(pairs) + 1):
            for chosen in combinations(pairs, r):
                deg = [0] * (pn + 1)
                ok = True
                for v, w in chosen:
                    deg[v] += 1
                    deg[w] += 1
                    if deg[v] > max_deg or deg[w] > max_deg:
                        ok = False
                        break
                if ok:
                    yield instance_from_edges(pn, chosen)


def random_instance(rng, max_n=40, max_deg=6):
    pn = rng.randint(2, max_n)
    p = rng.random() * 0.5
    edges = []
    deg = [0] * (pn + 1)
    for v in range(1, pn + 1):
        for w in range(v + 1, pn + 1):
            if deg[v] < max_deg and deg[w] < max_deg and rng.random() < p:
                edges.append((v, w))
                deg[v] += 1
                deg[w] += 1
    return instance_from_edges(pn, edges)


def test_single_edge():
    inst = instance_from_edges(2, [(1, 2)])
    f, cps = s_encode(inst)
    assert f == 0
    assert cps == [0, 0]  # the one split stores S_2 = 2 - 2*1
    assert s_count_oracle(inst) == 0


def test_three_matchings_on_four_vertices():
    cases = {((2,), (), (4,), ()): 2,
             ((3,), (4,), (), ()): 1,
             ((4,), (3,), (), ()): 0}
    for fwd, expect in cases.items():
        inst = SimpleInstance(a=(1, 1, 1, 1), fwd=fwd)
        f, cps = s_encode(inst)
        assert f == expect
        assert s_count_oracle(inst) == expect
        assert s_decode(f, cps, (1, 1, 1, 1)) == fwd
        # bound: ceil(3!!/1) = 3
        assert 0 <= f <= 3


def test_recursion_matches_oracle_exhaustively():
    seen = 0
    for inst in all_simple_instances():
        assert s_configuration_count(inst) == s_count_oracle(inst), inst
        seen += 1
    assert seen > 100


def test_injectivity_within_degree_class():
    by_class = {}
    for inst in all_simple_instances():
        by_class.setdefault(inst.a, []).append(s_encode(inst)[0])
    for key, ranks in by_class.items():
        assert len(set(ranks)) == len(ranks), key


def test_roundtrip_random_instances():
    rng = random.Random(31)
    for _ in range(10**4):
        inst = random_instance(rng, max_n=40, max_deg=6)
        f, cps = s_encode(inst)
        assert s_decode(f, cps, inst.a) == inst.fwd


def test_small_vertex_counts_exercise_threshold():
    # For 2 and 3 vertices the threshold is 1, so every split stores or
    # consumes a checkpoint.
    for pn in (2, 3):
        assert split_threshold(pn) == 1
    inst = instance_from_edges(3, [(1, 2), (2, 3)])
    f, cps = s_encode(inst)
    assert cps[1] != 0 or cps[2] != 0
    assert s_decode(f, cps, inst.a) == inst.fwd


def test_rank_bound():
    rng = random.Random(32)
    for _ in range(300):
        inst = random_instance(rng, max_n=15, max_deg=4)
        f, _ = s_encode(inst)
        s = sum(inst.a)
        bound = ceil_div(double_factorial_ratio(s, 0),
                         prod_factorial(inst.a, 1, inst.pn))
        assert 0 <= f <= bound


def test_checkpoint_values_and_bounds():
    rng = random.Random(33)
    for _ in range(100):
        inst = random_instance(rng, max_n=30, max_deg=5)
        f, cps = s_encode(inst)
        s = sum(inst.a)
        assert all(0 <= v <= s for v in cps[1:])
        # Reference pass: recompute S at each split's midpoint directly, in
        # the recursion's own order (parents first, left before right).
        thr = split_threshold(inst.pn)
        ahat = [len(x) for x in inst.fwd]

        def s_at(i):  # S_i = sum of residual degrees from i on
            return s - 2 * sum(ahat[: i - 1])

        expected = [0]

        def walk(i, j):
            if j - i + 1 <= thr:
                return
            k = (i + j) // 2
            expected.append(s_at(k + 1))
            walk(i, k)
            walk(k + 1, j)

        walk(1, inst.pn)
        assert list(cps) == expected


def test_interval_invariants():
    rng = random.Random(34)
    for _ in range(200):
        inst = random_instance(rng, max_n=12, max_deg=4)
        trace = []
        s_configuration_count(inst, trace=trace)
        for i, j, n_ij, l_ij, r_ij in trace:
            assert n_ij + l_ij <= r_ij, (inst, i, j)
        full = [t for t in trace if t[0] == 1 and t[1] == inst.pn]
        assert full[0][3] == prod_factorial(inst.a, 1, inst.pn)
        # The ratio carried up to the root matches all S half-edges.
        assert full[0][4] == double_factorial_ratio(sum(inst.a), 0)


def test_s_values_follow_residual_identity():
    # S_{i+1} = S_i - 2 * (forward degree of i) along the encode order.
    rng = random.Random(35)
    inst = random_instance(rng, max_n=20, max_deg=5)
    s = sum(inst.a)
    for v in range(1, inst.pn + 1):
        nxt = s - 2 * len(inst.fwd[v - 1])
        assert nxt >= 0
        s = nxt
    assert s == 0


def test_rejects_tiny_and_inconsistent():
    with pytest.raises(ValueError):
        SimpleInstance(a=(2,), fwd=((),))
    with pytest.raises(ValueError):
        SimpleInstance(a=(1, 1), fwd=((), ()))
    with pytest.raises(ValueError):
        SimpleInstance(a=(1, 1), fwd=((1,), ()))


def sparse_instance(rng, pn, max_deg, m):
    """About m random edges, no vertex above max_deg: long chains of
    vertices and, for large pn, checkpoints several levels deep."""
    deg = [0] * (pn + 1)
    edges = set()
    for _ in range(m):
        v, w = rng.sample(range(1, pn + 1), 2)
        if deg[v] < max_deg and deg[w] < max_deg and (min(v, w), max(v, w)) not in edges:
            edges.add((min(v, w), max(v, w)))
            deg[v] += 1
            deg[w] += 1
    # A few hubs at the degree cap.
    for hub in rng.sample(range(1, pn + 1), 3):
        for w in rng.sample(range(1, pn + 1), pn // 2):
            if deg[hub] >= max_deg:
                break
            e = (min(hub, w), max(hub, w))
            if w != hub and deg[w] < max_deg and e not in edges:
                edges.add(e)
                deg[hub] += 1
                deg[w] += 1
    return instance_from_edges(pn, sorted(edges))


@pytest.mark.parametrize("pn, m", [(200, 900), (1500, 6000)])
def test_roundtrip_large_instances(pn, m):
    rng = random.Random(pn)
    for _ in range(3):
        inst = sparse_instance(rng, pn, 20, m)
        assert max(inst.a) == 20
        f, cps = s_encode(inst)
        assert s_decode(f, cps, inst.a) == inst.fwd


def test_out_of_range_ranks_fail_cleanly():
    # A rank past the count decodes to some graph with the same degrees or
    # raises ValueError; the decoder must not divide by zero or index past
    # the vertex set.
    rng = random.Random(36)
    outcomes = set()
    for _ in range(300):
        inst = random_instance(rng, max_n=25, max_deg=6)
        f, cps = s_encode(inst)
        bound = ceil_div(double_factorial_ratio(sum(inst.a), 0),
                         prod_factorial(inst.a, 1, inst.pn))
        bad = rng.choice((bound + 1 + rng.randrange(bound + 1),
                          rng.getrandbits(rng.randint(1, 400))))
        try:
            fwd = s_decode(bad, cps, inst.a)
        except ValueError:
            outcomes.add("ValueError")
            continue
        SimpleInstance(a=inst.a, fwd=fwd)  # increasing, in range, degrees match
        outcomes.add("graph")
    assert "ValueError" in outcomes


def test_bad_checkpoints_raise_value_error():
    rng = random.Random(37)
    inst = sparse_instance(rng, 200, 20, 900)
    f, cps = s_encode(inst)
    with pytest.raises(ValueError):
        s_decode(f, cps[:2], inst.a)  # too few checkpoints
    broken = list(cps)
    broken[1] += 1  # odd residual count
    with pytest.raises(ValueError):
        s_decode(f, broken, inst.a)


def test_checkpoint_in_a_slot_no_split_uses_raises_value_error():
    # There is one checkpoint per split node and no filler: a checkpoint
    # past the last split, zero or not, is refused.
    rng = random.Random(37)
    inst = sparse_instance(rng, 200, 20, 900)
    f, cps = s_encode(inst)
    assert len(cps) - 1 == len(list(split_nodes(inst.pn, split_threshold(inst.pn))))
    for broken in (list(cps) + [0], list(cps) + [5]):
        with pytest.raises(ValueError, match=f"{len(cps)} checkpoints for {len(cps) - 1} splits"):
            s_decode(f, broken, inst.a)


def checkpoint_nodes(pn, cps):
    """(x, m, s_{k+1}, s_{j+1}) for each split node x, k its split and
    cps[m] its checkpoint, in the order the encoder lists them."""
    thr = split_threshold(pn)
    out = []

    def walk(x, i, j, s_j1):
        if j - i + 1 <= thr:
            return
        k = (i + j) // 2
        m = len(out) + 1
        out.append((x, m, cps[m], s_j1))
        walk(2 * x, i, k, cps[m])
        walk(2 * x + 1, k + 1, j, s_j1)

    walk(1, 1, pn, 0)
    return out


@pytest.mark.parametrize("pn, m", [(1500, 6000), (3000, 9000)])
def test_checkpoint_ratios_match_double_factorial_ratio(pn, m):
    rng = random.Random(pn + 7)
    for _ in range(3):
        inst = sparse_instance(rng, pn, 20, m)
        _, cps = s_encode(inst)
        nodes = checkpoint_nodes(pn, cps)
        assert max(x for x, _, _, _ in nodes).bit_length() >= 4  # four levels or more
        _, tree = checkpoint_tree(cps, inst.a)
        for x, _, s_k1, s_j1 in nodes:
            assert tree[2 * x + 1] == double_factorial_ratio(s_k1, s_j1), x
        # The decoder reads right children only; the left spine is never built.
        assert all(tree[x] is None for x, _, _, _ in nodes if x & (x - 1) == 0)


def count_calls(monkeypatch, owner, name):
    """Count calls to owner.name; returns the list of argument tuples."""
    calls = []
    original = getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_decoder_asks_for_one_suffix_sum_per_chain(monkeypatch):
    # The neighbor search carries its residual sums forward; only each
    # chain head asks the Fenwick tree for one.
    rng = random.Random(38)
    cases = [sparse_instance(rng, pn, 20, 4 * pn) for pn in (200, 1500)]
    cases += [random_instance(rng) for _ in range(50)]
    for inst in cases:
        f, cps = s_encode(inst)
        calls = count_calls(monkeypatch, SuffixFenwick, "suffix_sum")
        assert s_decode(f, cps, inst.a) == inst.fwd
        monkeypatch.undo()
        thr = split_threshold(inst.pn)
        chains = len(checkpoint_nodes(inst.pn, cps)) + 1 if inst.pn > thr else 1
        assert len(calls) <= chains


@pytest.mark.parametrize("which", ["root", "deepest"])
def test_huge_checkpoint_raises_before_any_large_product(monkeypatch, which):
    # An Elias-delta checkpoint of 2**40 costs a few bytes; no product may
    # be built from it.  400 vertices, 1,690 half-edges.
    rng = random.Random(39)
    inst = sparse_instance(rng, 400, 20, 800)
    f, cps = s_encode(inst)
    nodes = checkpoint_nodes(inst.pn, cps)
    m = nodes[0][1] if which == "root" else max(nodes)[1]
    broken = list(cps)
    broken[m] = 1 << 40
    calls = count_calls(monkeypatch, simple_graph, "compute_product")
    with pytest.raises(ValueError) as info:
        s_decode(f, broken, inst.a)
    assert max((k for _, k, _ in calls), default=0) <= sum(inst.a)
    assert str(info.value).startswith(f"checkpoint {m} is {1 << 40}")
