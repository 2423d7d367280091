"""Micro-benchmarks of the rank codecs on the pipeline's partition graphs.

The instances are the partition graphs that encode_marked_graph ranks for
gen_synthetic(10_000, 3.0, sigma, sigma, seed=71) at h=1, delta=20: with
sigma = 1 one simple graph, with sigma = 2 both bipartite and simple
ones.  Every run checks the round trip.  Tier-1 runs each benchmark once,
as a plain test (pyproject.toml passes --benchmark-disable); print the
timings with

    PYTHONPATH=src python -m pytest tests/test_rank_bench.py --benchmark-enable
"""

from functools import lru_cache

import pytest

import lwcg.pipeline as pipeline
from lwcg.bipartite import b_decode, b_encode
from lwcg.simple_graph import s_decode, s_encode
from lwcg.synthetic import gen_synthetic

MARKS = {"unmarked": 1, "marked": 2}


@lru_cache(maxsize=None)
def ranked(marks):
    """{"b": [(instance, rank)], "s": [(instance, (rank, checkpoints))]}."""
    out = {"b": [], "s": []}
    with pytest.MonkeyPatch.context() as mp:
        for kind in out:
            def record(inst, _kind=kind, _encode=getattr(pipeline, kind + "_encode")):
                code = _encode(inst)
                out[_kind].append((inst, code))
                return code
            mp.setattr(pipeline, kind + "_encode", record)
        sigma = MARKS[marks]
        pipeline.encode_marked_graph(gen_synthetic(10_000, 3.0, sigma, sigma, 71), 1, 20)
    return out


def encode_all(encode, cases):
    return [encode(inst) for inst, _ in cases]


def s_decode_all(cases):
    return [s_decode(f, cps, inst.a) for inst, (f, cps) in cases]


def b_decode_all(cases):
    return [b_decode(f, inst.a, inst.b) for inst, f in cases]


@pytest.mark.parametrize("marks", sorted(MARKS))
def test_bench_s_encode(benchmark, marks):
    cases = ranked(marks)["s"]
    assert cases
    codes = benchmark(encode_all, s_encode, cases)
    assert s_decode_all([(inst, code) for (inst, _), code in zip(cases, codes)]) == \
        [inst.fwd for inst, _ in cases]


@pytest.mark.parametrize("marks", sorted(MARKS))
def test_bench_s_decode(benchmark, marks):
    cases = ranked(marks)["s"]
    assert benchmark(s_decode_all, cases) == [inst.fwd for inst, _ in cases]


def test_bench_b_encode(benchmark):
    cases = ranked("marked")["b"]
    assert cases
    codes = benchmark(encode_all, b_encode, cases)
    assert b_decode_all([(inst, f) for (inst, _), f in zip(cases, codes)]) == \
        [inst.adj for inst, _ in cases]


def test_bench_b_decode(benchmark):
    cases = ranked("marked")["b"]
    assert benchmark(b_decode_all, cases) == [inst.adj for inst, _ in cases]
