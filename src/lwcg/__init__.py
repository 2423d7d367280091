"""Lossless compression of sparse simple marked graphs.

The codec partitions the edges of a marked graph by local structure
(edge types), writes degenerate edges through a side channel, encodes
vertex types jointly, and turns every remaining partition graph into a
single big integer via configuration-model ranking.
"""

from .graph_model import (
    EdgeListGraph,
    NeighborListGraph,
    GraphFormatError,
    parse_edge_list,
    format_edge_list,
    canonical_edges,
    preprocess,
)
from .bits import BitWriter, BitReader, CodecError, TruncatedStreamError, width
from .fenwick import SuffixFenwick
from .intmath import compute_product, prod_factorial, double_factorial_ratio, binomial
from .edge_types import EdgeTypeTable, MarkedTree, extract_types, lambda_canonical
from .bipartite import BipartiteInstance, b_encode, b_decode, b_count_oracle
from .simple_graph import (
    SimpleInstance,
    s_encode,
    s_decode,
    s_count_oracle,
    split_threshold,
)
from .sequences import encode_sequence, decode_sequence
from .pipeline import encode_marked_graph, decode_marked_graph
from .synthetic import gen_synthetic, estimate_bc_entropy_h1

__all__ = [
    "EdgeListGraph",
    "NeighborListGraph",
    "GraphFormatError",
    "parse_edge_list",
    "format_edge_list",
    "canonical_edges",
    "preprocess",
    "BitWriter",
    "BitReader",
    "TruncatedStreamError",
    "width",
    "SuffixFenwick",
    "compute_product",
    "prod_factorial",
    "double_factorial_ratio",
    "binomial",
    "EdgeTypeTable",
    "MarkedTree",
    "extract_types",
    "lambda_canonical",
    "BipartiteInstance",
    "b_encode",
    "b_decode",
    "b_count_oracle",
    "SimpleInstance",
    "s_encode",
    "s_decode",
    "s_count_oracle",
    "split_threshold",
    "encode_sequence",
    "decode_sequence",
    "encode_marked_graph",
    "decode_marked_graph",
    "CodecError",
    "gen_synthetic",
    "estimate_bc_entropy_h1",
]
