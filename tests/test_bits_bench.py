"""Micro-benchmarks of per-field against bulk bit-field I/O.

The field mix is the vertex-type dictionary of gen_synthetic(2000, 3.0, 2,
2, seed=71) at h=1, delta=20.  Tier-1 runs each benchmark once, as a plain
test (pyproject.toml passes --benchmark-disable); print the timings with

    PYTHONPATH=src python -m pytest tests/test_bits_bench.py --benchmark-enable
"""

import numpy as np
import pytest

from lwcg.bits import BitReader, BitWriter
from lwcg.edge_types import extract_types
from lwcg.graph_model import preprocess
from lwcg.pipeline import encode_vertex_types, find_deg
from lwcg.synthetic import gen_synthetic


@pytest.fixture(scope="module")
def dictionary_fields():
    """(values, widths, stream) of the dictionary's single write_fields call."""
    g = gen_synthetic(2000, 3.0, 2, 2, 71)
    nl = preprocess(g)
    table = extract_types(nl, 1, 20)
    calls = []

    class Recorder(BitWriter):
        def write_fields(self, values, widths):
            calls.append((np.asarray(values).tolist(), np.asarray(widths).tolist()))
            super().write_fields(values, widths)

    encode_vertex_types(*find_deg(nl, table), g.n, 20, g.sigma_e, g.sigma_v,
                        table.tcount, Recorder())
    (values, widths), = calls
    out = BitWriter()
    out.write_fields(values, widths)
    return values, widths, out.to_bytes()


def write_one_by_one(values, widths):
    out = BitWriter()
    for value, nbits in zip(values, widths):
        out.write_fixed(value, nbits)
    return out.to_bytes()


def write_in_bulk(values, widths):
    out = BitWriter()
    out.write_fields(values, widths)
    return out.to_bytes()


def read_one_by_one(data, widths):
    reader = BitReader(data)
    return [reader.read_fixed(nbits) for nbits in widths]


def read_in_bulk(data, widths):
    return BitReader(data).read_fields(widths)


@pytest.mark.parametrize("write", [write_one_by_one, write_in_bulk])
def test_bench_write_dictionary(benchmark, dictionary_fields, write):
    values, widths, data = dictionary_fields
    assert len(widths) > 10000
    assert benchmark(write, values, widths) == data


@pytest.mark.parametrize("read", [read_one_by_one, read_in_bulk])
def test_bench_read_dictionary(benchmark, dictionary_fields, read):
    values, widths, data = dictionary_fields
    assert list(benchmark(read, data, widths)) == values  # read_fields gives an array
