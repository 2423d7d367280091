"""Micro-benchmarks of the sequence codec on the pipeline's two sequences.

The sequences are the ones encode_marked_graph hands to encode_sequence
for gen_synthetic(10_000, 3.0, 2, 2, seed=71) at h=2, delta=4: the star
bitmap (52 zeros among 10,000 symbols, the combination path) and the
vertex-type ids (the bipartite path).  Every run checks the round trip.
Tier-1 runs each benchmark once, as a plain test (pyproject.toml passes
--benchmark-disable); print the timings with

    PYTHONPATH=src python -m pytest tests/test_sequence_bench.py --benchmark-enable
"""

from functools import lru_cache

import pytest

import lwcg.pipeline as pipeline
from lwcg.bits import BitReader, BitWriter
from lwcg.sequences import decode_sequence, encode_sequence
from lwcg.synthetic import gen_synthetic

SEQUENCES = {"star_bitmap": 0, "vertex_ids": 1}


@lru_cache(maxsize=None)
def coded():
    """[(sequence, its encode_sequence bytes)] in pipeline order."""
    out = []
    with pytest.MonkeyPatch.context() as mp:
        def record(y, sink):
            w = BitWriter()
            encode_sequence(y, w)
            out.append((list(y), w.to_bytes()))
            return encode_sequence(y, sink)
        mp.setattr(pipeline, "encode_sequence", record)
        pipeline.encode_marked_graph(gen_synthetic(10_000, 3.0, 2, 2, 71), 2, 4)
    return out


def encode(y):
    w = BitWriter()
    encode_sequence(y, w)
    return w.to_bytes()


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_bench_encode_sequence(benchmark, name):
    y, data = coded()[SEQUENCES[name]]
    assert benchmark(encode, y) == data
    assert decode_sequence(len(y), BitReader(data)) == y


@pytest.mark.parametrize("name", sorted(SEQUENCES))
def test_bench_decode_sequence(benchmark, name):
    y, data = coded()[SEQUENCES[name]]
    assert benchmark(lambda: decode_sequence(len(y), BitReader(data))) == y


def test_star_bitmap_is_sparse():
    y = coded()[SEQUENCES["star_bitmap"]][0]
    assert (len(y), y.count(0)) == (10_000, 52)
