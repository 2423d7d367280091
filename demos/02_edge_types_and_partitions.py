"""Peek inside the codec: edge-type labels, star channel, partition tables.

Every directed edge gets an integer label describing the depth-(h-1) tree
hanging off its near endpoint.  Edges whose neighborhoods blow past the
degree cap degenerate to "star" labels and are listed verbatim; the rest
are grouped by label pair into unmarked partition graphs that the ranking
codecs turn into single integers.
"""

from lwcg import EdgeListGraph, extract_types, preprocess
from lwcg.pipeline import find_deg, find_partition_graphs, find_star_vertices

# Same 16-vertex example as demo 01: hub 1, spokes 2..6, leaf pairs.
edges = []
for i in range(2, 7):
    edges.append((1, i, 2, 1))
    edges.append((i, 2 * i + 3, 1, 1))
    edges.append((i, 2 * i + 4, 1, 1))
    edges.append((2 * i + 3, 2 * i + 4, 2, 2))
graph = EdgeListGraph(n=16, sigma_v=2, sigma_e=2,
                      theta=(2,) + (1,) * 5 + (2,) * 10, edges=tuple(edges))

nl = preprocess(graph)
table = extract_types(nl, h=2, delta=4)

print(f"{table.tcount} labels; star flags {table.t_is_star[1:]}, "
      f"marks {table.t_mark[1:]}")
for v in (1, 2, 7):
    print(f"  labels at vertex {v}: {table.c[v]}")

stars = find_star_vertices(nl, table)
print("star vertices:", [v for v in range(1, graph.n + 1) if stars[v]])

# A signature is the vertex mark, then (label, mirror label, count) per
# label pair; the stream sends the distinct ones once and an id per vertex.
dictionary, ids = find_deg(nl, table)
print(f"{len(dictionary)} vertex types:  sig_2 = {dictionary[ids[1] - 1]}"
      f"  sig_7 = {dictionary[ids[6] - 1]}")

pdeg, padj = find_partition_graphs(nl, table, dictionary, ids)
for key in sorted(padj):
    kind = "bipartite" if key[0] != key[1] else "simple"
    print(f"partition graph {key} ({kind}): degrees {tuple(pdeg[key])}")
    print(f"   adjacency {[tuple(r) for r in padj[key]]}")
