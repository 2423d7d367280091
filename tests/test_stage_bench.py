"""Micro-benchmarks of the encoder stages before ranking.

The graphs are gen_synthetic(10_000, 3.0, sigma, sigma, seed=71) at the
three benchmark workload points: sigma = 2 at h=1, delta=20 and at h=2,
delta=4, and sigma = 1 at h=1, delta=20.  Each benchmark times one stage
on the outputs of the stages before it: preprocess, extract_types, the
star bitmap, the star channel, the vertex types (signature dictionary
and ids) and the partition graphs.  Tier-1 runs each benchmark once, as
a plain test (pyproject.toml passes --benchmark-disable); print the
timings with

    PYTHONPATH=src python -m pytest tests/test_stage_bench.py --benchmark-enable
"""

from functools import lru_cache

import pytest

from conftest import vertex_types
from lwcg.bits import BitWriter
from lwcg.edge_types import extract_types
from lwcg.graph_model import preprocess
from lwcg.pipeline import encode_star_edges, find_deg, find_partition_graphs, find_star_vertices
from lwcg.synthetic import gen_synthetic

# point -> (sigma, h, delta, star-channel bits)
POINTS = {"marked_h1_d20": (2, 1, 20, 0),
          "marked_h2_d4": (2, 2, 4, 454_018),
          "unmarked_h1_d20": (1, 1, 20, 0)}


@lru_cache(maxsize=None)
def stages(point):
    """(graph, h, delta, neighbor lists, type table, star bitmap,
    (dictionary, ids))."""
    sigma, h, delta, _ = POINTS[point]
    g = gen_synthetic(10_000, 3.0, sigma, sigma, 71)
    nl = preprocess(g)
    table = extract_types(nl, h, delta)
    return g, h, delta, nl, table, find_star_vertices(nl, table), find_deg(nl, table)


def star_channel_bits(nl, table, s):
    out = BitWriter()
    encode_star_edges(nl, table, s, out)
    return out.bit_length


@pytest.mark.parametrize("point", POINTS)
def test_bench_preprocess(benchmark, point):
    g = stages(point)[0]
    assert benchmark(preprocess, g).m == g.m


@pytest.mark.parametrize("point", POINTS)
def test_bench_extract_types(benchmark, point):
    _, h, delta, nl, table, _, _ = stages(point)
    assert benchmark(extract_types, nl, h, delta).tcount == table.tcount


@pytest.mark.parametrize("point", POINTS)
def test_bench_star_bitmap(benchmark, point):
    _, _, _, nl, table, s, _ = stages(point)
    assert benchmark(find_star_vertices, nl, table) == s


@pytest.mark.parametrize("point", POINTS)
def test_bench_star_channel(benchmark, point):
    _, _, _, nl, table, s, _ = stages(point)
    assert benchmark(star_channel_bits, nl, table, s) == POINTS[point][3]


@pytest.mark.parametrize("point", POINTS)
def test_bench_degree_profiles(benchmark, point):
    _, _, _, nl, table, _, types = stages(point)
    assert vertex_types(*benchmark(find_deg, nl, table)) == vertex_types(*types)


@pytest.mark.parametrize("point", POINTS)
def test_bench_partition_graphs(benchmark, point):
    # Every non-star edge is listed once, and the signatures count it
    # twice: each vertex's counts are every third entry after its mark.
    _, _, _, nl, table, _, (dictionary, ids) = stages(point)
    _, adj = benchmark(find_partition_graphs, nl, table, dictionary, ids)
    listed = sum(len(row) for rows in adj.values() for row in rows)
    signatures, y = vertex_types(dictionary, ids)
    assert 2 * listed == sum(sum(signatures[vid - 1][3::3]) for vid in y)
