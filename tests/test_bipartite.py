import random
from itertools import product
from math import comb, factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from lwcg.bits import BitReader, BitWriter, CodecError
from lwcg.fenwick import SuffixFenwick
from lwcg.sequences import decode_sequence, encode_sequence
from lwcg.bipartite import (
    LEAF_RUN,
    BipartiteInstance,
    b_configuration_count,
    b_count_oracle,
    b_decode,
    b_encode,
    ratio_tree,
)
from lwcg.intmath import WIDE_SPAN, ceil_div, compute_product, prod_factorial
from lwcg.ranking import split_nodes


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


def closed_form_ratio(a, i, j):
    """prod C(s_p, a_p) over p in [i, j], s_p the left degree sum from p on."""
    return prod(comb(sum(a[p - 1:]), a[p - 1]) for p in range(i, j + 1))


def test_ratio_tree_matches_division():
    # Every node the decoder's tree holds, the split nodes over more than
    # LEAF_RUN left vertices off the left spine and every run, is over some
    # [i, j] and holds (s_i)_{s_i - s_{j+1}} / prod(a_p!), which is the
    # closed form prod C(s_p, a_p); the spine's split nodes are None.
    rng = random.Random(26)
    seqs = [tuple(rng.choice((0, 0, 1, 2, 3, 7)) for _ in range(rng.randint(1, 40)))
            for _ in range(60)]
    seqs += [tuple(rng.choice((0, 1, 1, 2)) for _ in range(n)) for n in (70, 129)]
    seqs += [(1,) * length for length in (1, 2, 3, 17, 40)]
    for a in seqs:
        tree = ratio_tree(a)
        inner = {x for x, _, _ in split_nodes(len(a), LEAF_RUN)}
        stack = [(1, 1, len(a))]
        while stack:
            x, i, j = stack.pop()
            if i == 1 and x in inner:
                assert tree[x] is None
            else:
                s_i, s_j1 = sum(a[i - 1:]), sum(a[j:])
                assert tree[x] == compute_product(s_i, s_i - s_j1, 1) // prod_factorial(a, i, j)
                assert tree[x] == closed_form_ratio(a, i, j)
            if x in inner:
                k = (i + j) // 2
                stack += [(2 * x, i, k), (2 * x + 1, k + 1, j)]


def test_traced_ratios_match_closed_form():
    # The encoder carries r_ij up the count recursion instead of building
    # a tree; traced, every interval's ratio is prod C(s_p, a_p) over it.
    rng = random.Random(27)
    instances = [random_instance(rng, max_side=12, max_deg=4) for _ in range(150)]
    instances += [random_instance(rng, max_side=70, max_deg=3) for _ in range(10)]
    for inst in instances:
        trace = []
        b_configuration_count(inst, trace=trace)
        assert len(trace) == 2 * len(list(split_nodes(inst.n_l, LEAF_RUN))) + 1
        for i, j, _, _, r_ij in trace:
            assert r_ij == closed_form_ratio(inst.a, i, j), (inst, i, j)


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


def reference_rank(a, b, adj):
    """ceil(N / l) by one sequential fold over the left vertices,
    N = N C(s_v, a_v) + l z_v and l = l l_v, with s_v the left degree sum
    from v on and (z_v, l_v) the terms of v's own step: plain lists, no
    tree and no Fenwick tree."""
    res = list(b)  # residual right degrees, 0-based
    s, n, l = sum(a), 0, 1
    for a_v, neigh in zip(a, adj):
        z, l_v, q = 0, 1, a_v
        for w in neigh:
            z += l_v * comb(sum(res[w:]), q)  # S_{w+1}: residual degrees past w
            l_v *= res[w - 1]
            res[w - 1] -= 1
            q -= 1
        n, l, s = n * comb(s, a_v) + l * z, l * l_v, s - a_v
    return -(-n // l)


@st.composite
def run_straddling_instances(draw):
    """Left sides around the run length and WIDE_SPAN; mixed left degrees
    0, 1 and above 1, or all ones (a sequence over K symbols, the last one
    used, as encode_sequence builds it)."""
    n_l = draw(st.sampled_from([1, LEAF_RUN - 1, LEAF_RUN, LEAF_RUN + 1, 3 * LEAF_RUN + 2,
                                WIDE_SPAN + 7]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(["mixed", "K=1", "K=2", "many"]))
    if shape == "mixed":
        n_r = draw(st.integers(1, 40))
        adj = tuple(tuple(sorted(rng.sample(range(1, n_r + 1), min(n_r, rng.choice((0, 1, 1, 2, 5))))))
                    for _ in range(n_l))
        b = tuple(sum(w in neigh for neigh in adj) for w in range(1, n_r + 1))
        return BipartiteInstance(a=tuple(map(len, adj)), b=b, adj=adj)
    k = {"K=1": 1, "K=2": 2}.get(shape) or draw(st.integers(3, 300))
    y = [rng.randrange(k) for _ in range(n_l - 1)] + [k - 1]
    rng.shuffle(y)
    return BipartiteInstance(a=(1,) * n_l, b=tuple(map(y.count, range(k))),
                             adj=tuple((1 + v,) for v in y))


@settings(derandomize=True, max_examples=120, deadline=None)
@given(run_straddling_instances(), st.integers(0, 1 << 70))
def test_rank_is_the_sequential_fold_across_runs(inst, extra):
    # Leaf runs and the recursion above them give the rank the plain fold
    # gives, and decode it back.  With all-ones left degrees and the last
    # right degree positive, as a sequence payload has them, a rank of
    # C = n! / prod(b_j!) or more raises, and so does the payload.
    f = b_encode(inst)
    assert f == reference_rank(inst.a, inst.b, inst.adj)
    assert b_decode(f, inst.a, inst.b) == inst.adj
    if set(inst.a) != {1} or not inst.b[-1]:
        return
    count = factorial(inst.n_l) // prod(map(factorial, inst.b))
    assert f < count
    with pytest.raises(ValueError):
        b_decode(count + extra, inst.a, inst.b)
    w = BitWriter()
    for value in (inst.n_r, *(1 + bj for bj in inst.b), 1 + count + extra):
        w.write_elias_delta(value)
    with pytest.raises(CodecError):
        decode_sequence(inst.n_l, BitReader(w.to_bytes()))
