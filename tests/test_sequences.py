import random

import pytest

from lwcg.bits import BitReader, BitWriter
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
