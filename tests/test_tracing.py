"""The benchmark's stage tracer still finds every pipeline stage.

perfbench/tracing.py wraps pipeline functions by name; a refactor that
drops, renames or reroutes one of them breaks its ledger or its stage
counts, which only a traced benchmark run would otherwise notice.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from lwcg import pipeline
from lwcg.edge_types import extract_types
from lwcg.graph_model import canonical_edges, preprocess
from lwcg.synthetic import gen_synthetic

_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py")
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)


# (sigma_e, sigma_v, h, delta) of the benchmark's three workloads.
@pytest.mark.parametrize("sigma_e, sigma_v, h, delta",
                         [(2, 2, 1, 20), (2, 2, 2, 4), (1, 1, 1, 20)])
def test_traced_round_trip_accounts_for_every_stage(sigma_e, sigma_v, h, delta):
    g = gen_synthetic(300, 3.0, sigma_e, sigma_v, 71)
    plain = pipeline.encode_marked_graph(g, h, delta)
    enc, dec = tracing.Tracer(True), tracing.Tracer(False)
    with tracing.patched(tracing.trace_patches(enc, dec)):
        data = pipeline.encode_marked_graph(g, h, delta)
        decoded = pipeline.decode_marked_graph(data)
    assert data == plain
    assert canonical_edges(decoded) == canonical_edges(g)
    ledger = tracing.check_ledgers(enc, dec, data)
    # The benchmark prints these as JSON: a numpy scalar among them fails.
    json.dumps(tracing.layer_metrics(enc, dec, ledger))
    assert enc.count("partition_build") == dec.count("partition_build") == 1
    # find_deg and encode_vertex_types on one side, decode_vertex_types on
    # the other; pipeline.vertex_dict.signatures counts the dictionary.
    assert enc.count("vertex_types") == 2 and dec.count("vertex_types") == 1
    nl = preprocess(g)
    (sizes, _), _ = pipeline.find_deg(nl, extract_types(nl, h, delta))
    assert enc.notes["signatures"] == len(sizes)
