import random
from math import comb, isqrt

import pytest
from hypothesis import given, settings, strategies as st

import lwcg.sequences as sequences
from lwcg.bipartite import BipartiteInstance, b_encode
from lwcg.bits import BitReader, BitWriter, CodecError
from lwcg.intmath import ceil_div, compute_product, prod_factorial
from lwcg.sequences import decode_sequence, encode_sequence


def encode_to_bits(y):
    w = BitWriter()
    encode_sequence(y, w)
    data = w.to_bytes()
    return "".join(str((data[i // 8] >> (7 - i % 8)) & 1) for i in range(len(w)))


def test_all_zero_sequence_wire_form():
    # K=1, one frequency 4, rank 0: ED(1) ED(5) ED(1) = 1 01101 1
    assert encode_to_bits([0, 0, 0, 0]) == "1011011"


def test_fig_sequence_bound():
    y = [0, 0, 1, 0, 2, 0, 1, 2]
    # frequencies (4, 2, 2); 1+f bounded by ceil(8!/(4!2!2!)) = 420
    w = BitWriter()
    encode_sequence(y, w)
    r = BitReader(w.to_bytes())
    assert r.read_elias_delta() == 3          # K
    assert [r.read_elias_delta() - 1 for _ in range(3)] == [4, 2, 2]
    f1 = r.read_elias_delta()
    assert 1 <= f1 <= 420
    r2 = BitReader(w.to_bytes())
    assert decode_sequence(8, r2) == y


def test_empty_rejected():
    with pytest.raises(ValueError):
        encode_sequence([], BitWriter())


def test_all_zero_lengths():
    for n in range(1, 21):
        w = BitWriter()
        encode_sequence([0] * n, w)
        assert decode_sequence(n, BitReader(w.to_bytes())) == [0] * n


def test_gap_in_symbol_range():
    y = [0, 2, 0, 2, 2]
    w = BitWriter()
    encode_sequence(y, w)
    assert decode_sequence(len(y), BitReader(w.to_bytes())) == y


def test_random_roundtrip_and_self_delimiting():
    rng = random.Random(41)
    for _ in range(1000):
        n = rng.randint(1, 200)
        y = [rng.randrange(8) for _ in range(n)]
        z = [rng.randrange(8) for _ in range(n)]
        w = BitWriter()
        encode_sequence(y, w)
        encode_sequence(z, w)
        r = BitReader(w.to_bytes())
        assert decode_sequence(n, r) == y
        assert decode_sequence(n, r) == z


def test_rank_respects_frequency_bound():
    rng = random.Random(42)
    for _ in range(200):
        n = rng.randint(1, 60)
        y = [rng.randrange(4) for _ in range(n)]
        k = 1 + max(y)
        freq = [y.count(j) for j in range(k)]
        w = BitWriter()
        encode_sequence(y, w)
        r = BitReader(w.to_bytes())
        r.read_elias_delta()
        for _ in range(k):
            r.read_elias_delta()
        f = r.read_elias_delta() - 1
        bound = ceil_div(compute_product(n, n, 1), prod_factorial(freq, 1, k))
        assert 0 <= f <= bound


def test_prod_factorial_calls_stay_linear_in_symbols(monkeypatch):
    # Interval ratios come from a product tree, so ranking a length-4000
    # sequence calls prod_factorial not at all, and unranking only for the
    # one product of symbol-frequency factorials (2 K - 1 calls with its
    # recursion, K the symbol count).
    import lwcg.bipartite as bipartite
    import lwcg.intmath as intmath
    calls = []
    original = intmath.prod_factorial

    def counted(*args):
        calls.append(args[1:])
        return original(*args)

    monkeypatch.setattr(intmath, "prod_factorial", counted)
    monkeypatch.setattr(bipartite, "prod_factorial", counted)
    rng = random.Random(43)
    y = [rng.randrange(10) for _ in range(4000)]
    w = BitWriter()
    encode_sequence(y, w)
    assert calls == []
    assert decode_sequence(len(y), BitReader(w.to_bytes())) == y
    assert 1 <= len(calls) <= 2 * 10 - 1


def bipartite_rank(y):
    """The rank of y by the auxiliary bipartite graph, whatever its K."""
    k = 1 + max(y)
    freq = tuple(y.count(v) for v in range(k))
    rows = [(1 + v,) for v in range(k)]
    return b_encode(BipartiteInstance(a=(1,) * len(y), b=freq, adj=tuple(rows[v] for v in y)))


def payload(k, freq, f):
    w = BitWriter()
    w.write_elias_delta(k)
    for bj in freq:
        w.write_elias_delta(1 + bj)
    w.write_elias_delta(1 + f)
    return BitReader(w.to_bytes())


@st.composite
def binary_sequences(draw, max_n=120):
    """0/1 sequences: sparse zeros, sparse ones, balanced or constant."""
    n = draw(st.integers(1, max_n))
    shape = draw(st.sampled_from(["sparse", "balanced", "constant"]))
    c = {"sparse": draw(st.integers(0, max(1, n // 10))),
         "balanced": n // 2,
         "constant": 0}[shape]
    rare = draw(st.sampled_from([0, 1]))
    at = draw(st.sets(st.integers(0, n - 1), min_size=min(c, n), max_size=min(c, n)))
    return [rare if p in at else 1 - rare for p in range(n)]


TWO_SYMBOLS = settings(derandomize=True, max_examples=200, deadline=None)


@TWO_SYMBOLS
@given(binary_sequences())
def test_combination_rank_is_the_bipartite_rank(y):
    n, zeros = len(y), y.count(0)
    f = sequences._combination_rank(y, n, zeros)
    assert f == bipartite_rank(y)
    assert sequences._combination_unrank(f, n, zeros) == y


@TWO_SYMBOLS
@given(binary_sequences(), st.integers(-1, 1), st.integers(1, 4))
def test_two_symbol_paths_write_the_same_bytes(y, side, sq):
    # With the selection constant at sq, n symbols switch paths at
    # c = isqrt(sq n) of the rarer one; move the sequence to c + side and
    # check it against the bipartite path's bytes on both sides.
    n = len(y)
    rare = 0 if 2 * y.count(0) <= n else 1
    c = min(n // 2, isqrt(sq * n) + side)
    y = [rare] * c + [1 - rare] * (n - c)
    random.Random(n).shuffle(y)

    def encoded(square):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sequences, "COMBINATION_SQ", square)
            ranks = []
            mp.setattr(sequences, "b_encode", lambda inst: ranks.append(1) or b_encode(inst))
            w = BitWriter()
            encode_sequence(y, w)
            encode_sequence([v + 2 for v in y], w)  # K = 4: never the combination path
            data = w.to_bytes()
            assert decode_sequence(n, BitReader(data)) == y
            return data, len(ranks)

    data, ranks = encoded(sq)
    by_combination = max(y) <= 1 and min(c, n - c) ** 2 <= sq * n
    assert ranks == 2 - by_combination
    assert data == encoded(-1)[0]


def test_selection_constant_boundary():
    # c * c <= COMBINATION_SQ * n: at n = 40,000 the cut falls at c = 10,000.
    assert sequences.COMBINATION_SQ == 2500
    assert sequences._by_combination(40_000, 10_000)
    assert sequences._by_combination(40_000, 30_000)  # 10,000 ones
    assert not sequences._by_combination(40_000, 10_001)
    assert not sequences._by_combination(40_000, 29_999)


@pytest.mark.parametrize("n,zeros", [(1, 0), (1, 1), (7, 3), (40, 2), (40, 38), (64, 32)])
def test_two_symbol_rank_out_of_range_raises(n, zeros):
    top = comb(n, zeros) - 1
    y = decode_sequence(n, payload(2, (zeros, n - zeros), top))
    assert y.count(0) == zeros
    with pytest.raises(CodecError):
        decode_sequence(n, payload(2, (zeros, n - zeros), top + 1))


def test_one_symbol_nonzero_rank_raises_before_any_tree(monkeypatch):
    import lwcg.bipartite as bipartite

    def no_tree(*args, **kwargs):
        raise AssertionError("ratio tree built for a one-symbol sequence")

    monkeypatch.setattr(bipartite, "ratio_tree", no_tree)
    assert decode_sequence(5000, payload(1, (5000,), 0)) == [0] * 5000
    with pytest.raises(CodecError):
        decode_sequence(5000, payload(1, (5000,), 1))
    w = BitWriter()
    encode_sequence([0] * 5000, w)
    assert decode_sequence(5000, BitReader(w.to_bytes())) == [0] * 5000
