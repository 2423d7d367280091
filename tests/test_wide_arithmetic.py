"""The rank codecs' wide-level arithmetic on small instances.

At the default cutoffs only graphs of thousands of vertices reach the FFT
products and the recursive division.  With the cutoffs lowered to a few
hundred bits and WIDE_SPAN to a few vertices, small instances take those
paths, and every codec must give the same ranks and the same graphs as at
the default cutoffs, on out-of-range ranks too.
"""

import random
from collections import Counter

import lwcg.intmath as intmath
import lwcg.ranking as ranking
from lwcg.bipartite import BipartiteInstance, b_decode, b_encode
from lwcg.bits import BitReader, BitWriter
from lwcg.sequences import decode_sequence, encode_sequence
from lwcg.simple_graph import s_decode, s_encode
from test_simple_graph import sparse_instance


def _bipartite_instance(rng, n_l, n_r, max_deg):
    adj = []
    b = [0] * (n_r + 1)
    for _ in range(n_l):
        neigh = sorted(rng.sample(range(1, n_r + 1), rng.randint(0, max_deg)))
        for w in neigh:
            b[w] += 1
        adj.append(tuple(neigh))
    return BipartiteInstance(a=tuple(map(len, adj)), b=tuple(b[1:]), adj=tuple(adj))


def _sequence_stream(k_freq, f):
    """A sequence payload with symbol frequencies k_freq and rank f."""
    w = BitWriter()
    w.write_elias_delta(len(k_freq))
    for bj in k_freq:
        w.write_elias_delta(1 + bj)
    w.write_elias_delta(1 + f)
    return w.to_bytes()


def _stream_rank(data):
    r = BitReader(data)
    for _ in range(r.read_elias_delta()):
        r.read_elias_delta()
    return r.read_elias_delta() - 1


def _wrong_ranks(rng, f):
    """f with its low 16 bits scrambled, and random ranks as wide as f and
    8 bits wider."""
    return [f ^ rng.getrandbits(16)] + [rng.getrandbits(f.bit_length() + d) for d in (0, 8)]


def _outcome(decode, *args):
    """The decoded value, or the name of the ValueError it raised."""
    try:
        return decode(*args)
    except ValueError as exc:
        return type(exc).__name__


def _cases(rng):
    simple = [sparse_instance(rng, pn, 12, m) for pn, m in ((120, 400), (300, 1100))]
    bip = [_bipartite_instance(rng, n_l, n_r, 8) for n_l, n_r in ((60, 30), (250, 70))]
    seqs = [[rng.randrange(k) for _ in range(n)] for n, k in ((200, 3), (700, 12))]
    return simple, bip, seqs


def _encode(simple, bip, seqs):
    streams = []
    for y in seqs:
        w = BitWriter()
        encode_sequence(y, w)
        streams.append(w.to_bytes())
    return [s_encode(inst) for inst in simple], [b_encode(inst) for inst in bip], streams


def _decode(rng, simple, bip, seqs, codes):
    """Round trip every case, then decode wrong ranks; their outcomes."""
    s_codes, b_codes, streams = codes
    out = []
    for inst, (f, cps) in zip(simple, s_codes):
        assert s_decode(f, cps, inst.a) == inst.fwd
        out += [_outcome(s_decode, bad, cps, inst.a) for bad in _wrong_ranks(rng, f)]
    for inst, f in zip(bip, b_codes):
        assert b_decode(f, inst.a, inst.b) == inst.adj
        out += [_outcome(b_decode, bad, inst.a, inst.b) for bad in _wrong_ranks(rng, f)]
    for y, data in zip(seqs, streams):
        assert decode_sequence(len(y), BitReader(data)) == y
        freq = [y.count(v) for v in range(max(y) + 1)]
        out += [_outcome(decode_sequence, len(y), BitReader(_sequence_stream(freq, bad)))
                for bad in _wrong_ranks(rng, _stream_rank(data))]
    return out


def test_wide_paths_match_default_cutoffs(monkeypatch):
    simple, bip, seqs = _cases(random.Random(51))
    codes = _encode(simple, bip, seqs)
    want = _decode(random.Random(52), simple, bip, seqs, codes)

    monkeypatch.setattr(intmath, "_FFT_CUTOFF", 300)
    monkeypatch.setattr(intmath, "_DIV_CUTOFF", 200)
    monkeypatch.setattr(ranking, "WIDE_SPAN", 4)
    calls = Counter()
    for name in ("_fft_mul", "_div_3n_2n"):
        def counted(*args, _name=name, _original=getattr(intmath, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(intmath, name, counted)

    assert _encode(simple, bip, seqs) == codes
    calls.clear()
    assert _decode(random.Random(52), simple, bip, seqs, codes) == want
    # The decoders themselves took the FFT products and recursive division.
    assert calls["_fft_mul"] > 0 and calls["_div_3n_2n"] > 0
