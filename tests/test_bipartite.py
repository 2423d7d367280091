import random
from itertools import product

import pytest

from lwcg.bits import BitReader, BitWriter, CodecError
from lwcg.fenwick import SuffixFenwick
from lwcg.sequences import decode_sequence, encode_sequence
from lwcg.bipartite import (
    BipartiteInstance,
    b_configuration_count,
    b_count_oracle,
    b_decode,
    b_encode,
    ratio_tree,
)
from lwcg.intmath import ceil_div, compute_product, prod_factorial


def all_bipartite_instances(max_side=3, max_deg=2):
    """Every simple bipartite graph with side sizes and degrees bounded."""
    for n_l in range(1, max_side + 1):
        for n_r in range(1, max_side + 1):
            rights = list(range(1, n_r + 1))
            neighbor_sets = [()]
            for size in range(1, min(max_deg, n_r) + 1):
                neighbor_sets.extend(_combos(rights, size))
            for adj in product(neighbor_sets, repeat=n_l):
                b = [0] * n_r
                ok = True
                for neigh in adj:
                    for w in neigh:
                        b[w - 1] += 1
                        if b[w - 1] > max_deg:
                            ok = False
                if not ok:
                    continue
                a = tuple(len(nb) for nb in adj)
                yield BipartiteInstance(a=a, b=tuple(b), adj=adj)


def _combos(items, size):
    from itertools import combinations
    return [tuple(c) for c in combinations(items, size)]


def random_instance(rng, max_side=40, max_deg=6):
    n_l = rng.randint(1, max_side)
    n_r = rng.randint(1, max_side)
    adj = []
    b = [0] * (n_r + 1)
    for _ in range(n_l):
        size = rng.randint(0, min(max_deg, n_r))
        neigh = sorted(rng.sample(range(1, n_r + 1), size))
        for w in neigh:
            b[w] += 1
        adj.append(tuple(neigh))
    return BipartiteInstance(a=tuple(len(x) for x in adj), b=tuple(b[1:]),
                             adj=tuple(adj))


def test_single_vertex_pair():
    inst = BipartiteInstance(a=(1,), b=(1,), adj=((1,),))
    assert b_encode(inst) == 0
    assert b_count_oracle(inst) == 0


def test_two_by_two():
    ident = BipartiteInstance(a=(1, 1), b=(1, 1), adj=((1,), (2,)))
    crossed = BipartiteInstance(a=(1, 1), b=(1, 1), adj=((2,), (1,)))
    assert b_encode(ident) == 1
    assert b_encode(crossed) == 0
    assert b_count_oracle(ident) == 1
    assert b_count_oracle(crossed) == 0
    # bound: ceil(2!/1) = 2
    assert b_encode(ident) <= 2


def test_decode_examples():
    assert b_decode(1, (1, 1), (1, 1)) == ((1,), (2,))
    assert b_decode(0, (1, 1), (1, 1)) == ((2,), (1,))
    assert b_decode(0, (1,), (1,)) == ((1,),)


def test_decode_rejects_mismatched_sums():
    with pytest.raises(ValueError):
        b_decode(0, (1, 1), (1,))


def test_recursion_matches_oracle_exhaustively():
    seen = 0
    for inst in all_bipartite_instances():
        assert b_configuration_count(inst) == b_count_oracle(inst), inst
        seen += 1
    assert seen > 200


def test_injectivity_within_degree_class():
    by_class = {}
    for inst in all_bipartite_instances():
        by_class.setdefault((inst.a, inst.b), []).append(b_encode(inst))
    for key, ranks in by_class.items():
        assert len(set(ranks)) == len(ranks), key


def test_roundtrip_random_instances():
    rng = random.Random(21)
    for _ in range(10**4):
        inst = random_instance(rng, max_side=40, max_deg=6)
        f = b_encode(inst)
        assert b_decode(f, inst.a, inst.b) == inst.adj


def test_rank_bound():
    rng = random.Random(22)
    for _ in range(300):
        inst = random_instance(rng, max_side=15, max_deg=4)
        f = b_encode(inst)
        s = sum(inst.a)
        bound = ceil_div(compute_product(s, s, 1),
                         prod_factorial(inst.a + inst.b, 1, len(inst.a) + len(inst.b))
                         if inst.a or inst.b else 1)
        assert 0 <= f <= bound


def test_interval_invariants():
    # N_ij + l_ij <= r_ij on every interval the recursion visits, and the
    # full-range l equals the product of right-degree factorials.
    rng = random.Random(23)
    for _ in range(200):
        inst = random_instance(rng, max_side=12, max_deg=4)
        trace = []
        b_configuration_count(inst, trace=trace)
        for i, j, n_ij, l_ij, r_ij in trace:
            assert n_ij + l_ij <= r_ij, (inst, i, j)
        full = [t for t in trace if t[0] == 1 and t[1] == inst.n_l]
        assert len(full) == 1
        expect_l = prod_factorial(inst.b, 1, inst.n_r) if inst.n_r else 1
        assert full[0][3] == expect_l


def test_ratio_tree_matches_division():
    # Every node over [i, j] holds (s_i)_{s_i - s_{j+1}} / prod(a_p!), with
    # s_p the left degree sum from p on; without spine=True the internal
    # nodes of the left spine are None.
    rng = random.Random(26)
    seqs = [tuple(rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(rng.randint(1, 40)))
            for _ in range(60)]
    seqs += [(1,) * length for length in (1, 2, 3, 17, 40)]
    for a in seqs:
        full, lean = ratio_tree(a, spine=True), ratio_tree(a)
        suf = [0] * (len(a) + 2)
        for p in range(len(a), 0, -1):
            suf[p] = suf[p + 1] + a[p - 1]

        def walk(x, i, j, on_spine):
            s_i, s_j1 = suf[i], suf[j + 1]
            assert full[x] == compute_product(s_i, s_i - s_j1, 1) // prod_factorial(a, i, j)
            assert lean[x] == (None if on_spine and i < j else full[x])
            if i < j:
                k = (i + j) // 2
                walk(2 * x, i, k, on_spine)
                walk(2 * x + 1, k + 1, j, False)

        walk(1, 1, len(a), True)


def test_edgeless_instance():
    inst = BipartiteInstance(a=(0, 0), b=(0,), adj=((), ()))
    assert b_encode(inst) == 0
    assert b_decode(0, (0, 0), (0,)) == ((), ())


def test_validation_rejects_bad_adjacency():
    with pytest.raises(ValueError):
        BipartiteInstance(a=(2,), b=(1, 1), adj=((1, 1),))
    with pytest.raises(ValueError):
        BipartiteInstance(a=(1,), b=(1, 1), adj=((1,),))
    with pytest.raises(ValueError):
        BipartiteInstance(a=(1,), b=(0, 1), adj=((1,),))


def test_roundtrip_right_degrees_up_to_20():
    rng = random.Random(24)
    for n_l, n_r in ((300, 60), (1000, 150)):
        adj = []
        b = [0] * (n_r + 1)
        for _ in range(n_l):
            open_right = [w for w in range(1, n_r + 1) if b[w] < 20]
            neigh = sorted(rng.sample(open_right, min(rng.randint(0, 8), len(open_right))))
            for w in neigh:
                b[w] += 1
            adj.append(tuple(neigh))
        inst = BipartiteInstance(a=tuple(len(x) for x in adj), b=tuple(b[1:]),
                                 adj=tuple(adj))
        assert max(inst.b) == 20
        assert b_decode(b_encode(inst), inst.a, inst.b) == inst.adj


def test_out_of_range_ranks_fail_cleanly():
    # A rank past the count decodes to some graph with the same degrees or
    # raises ValueError, never ZeroDivisionError or IndexError.
    rng = random.Random(25)
    outcomes = set()
    for _ in range(300):
        inst = random_instance(rng, max_side=25, max_deg=6)
        bound = ceil_div(compute_product(sum(inst.a), sum(inst.a), 1),
                         prod_factorial(inst.b, 1, inst.n_r))
        bad = rng.choice((bound + 1 + rng.randrange(bound + 1),
                          rng.getrandbits(rng.randint(1, 400))))
        try:
            adj = b_decode(bad, inst.a, inst.b)
        except ValueError:
            outcomes.add("ValueError")
            continue
        BipartiteInstance(a=inst.a, b=inst.b, adj=adj)  # increasing, in range
        outcomes.add("graph")
    assert "ValueError" in outcomes


def test_decoder_asks_for_no_suffix_sum(monkeypatch):
    # Each left vertex starts from s_i, fixed by the left degrees, and the
    # neighbor search carries S_{lo+1} forward from there.
    calls = []
    original = SuffixFenwick.suffix_sum
    monkeypatch.setattr(SuffixFenwick, "suffix_sum",
                        lambda fen, k: calls.append(k) or original(fen, k))
    rng = random.Random(26)
    for _ in range(200):
        inst = random_instance(rng)
        assert b_decode(b_encode(inst), inst.a, inst.b) == inst.adj
    y = [rng.randrange(40) for _ in range(3000)]
    w = BitWriter()
    encode_sequence(y, w)
    calls.clear()  # the encoder still asks
    assert decode_sequence(len(y), BitReader(w.to_bytes())) == y
    assert calls == []


def test_one_right_vertex_has_rank_zero_only():
    a = (1, 0, 1, 1, 0)
    inst = BipartiteInstance(a=a, b=(3,), adj=((1,), (), (1,), (1,), ()))
    assert b_encode(inst) == 0
    assert b_decode(0, a, (3,)) == inst.adj
    for bad in (1, 7, 1 << 300):
        with pytest.raises(ValueError):
            b_decode(bad, a, (3,))
    with pytest.raises(ValueError):
        b_decode(0, (2, 1), (3,))  # two half-edges of one vertex to one right vertex
    # The sequence codec's all-zero sequence: K = 1, rank 0, and a stream
    # carrying another rank is refused.
    w = BitWriter()
    for value in (1, 1 + 4, 1 + 1):  # K, 1 + frequency, 1 + rank
        w.write_elias_delta(value)
    with pytest.raises(CodecError):
        decode_sequence(4, BitReader(w.to_bytes()))
