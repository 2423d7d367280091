"""Traced and counted round trips for the codec benchmark.

The traced run replaces, for the length of one round trip, the names that
``lwcg.pipeline`` and ``lwcg.sequences`` look up (``preprocess``,
``encode_sequence``, ``b_decode`` ...) with wrappers that record a span
each, and swaps the pipeline's ``BitWriter``/``BitReader`` for subclasses
that log the bits of every field written or read.  Spans give seconds per
stage; field logs give bits per stage (the stage ledger).

The counted run wraps hot primitives with call counters.  The counters
cost more than much of the work they count, so that run's times are never
reported.
"""

from __future__ import annotations

import contextlib
import sys
import time
from collections import Counter


class TraceError(Exception):
    """A trace-run check failed: the stage ledger does not account for the
    stream, tracing changed the output, or counts did not repeat."""


@contextlib.contextmanager
def patched(replacements):
    """Set each (namespace, name, value) for the duration of the block."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in replacements]
    try:
        for obj, name, value in replacements:
            setattr(obj, name, value)
        yield
    finally:
        for obj, name, value in reversed(saved):
            setattr(obj, name, value)


def _stage(name: str, parent: str) -> str:
    """Ledger stage of a span named `name` opened inside stage `parent`.

    The sequence codec serves two stages: called by the pipeline itself it
    codes the star bitmap, called inside vertex types it codes the ids.
    """
    if parent == "header":
        return {"sequences": "star_bitmap", "vertex_types": "vertex_dict"}.get(name, name)
    if parent == "vertex_dict" and name == "sequences":
        return "vertex_ids"
    return parent


class Tracer:
    """Spans and stream fields of one encode or one decode call."""

    def __init__(self, encoding: bool):
        self.encoding = encoding
        self.spans = []      # [name, stage, start, end, parent index or -1]
        self._open = []      # indices of spans not yet closed
        self.fields = []     # [stage, kind, value, bits, tag] per field
        self.expected = []   # (field index, stage, values, tags) per rank call
        self.notes = Counter()
        self.stream = None   # the BitWriter or BitReader the pipeline made

    @property
    def stage(self) -> str:
        return self.spans[self._open[-1]][1] if self._open else "header"

    def span(self, name, fn, note=None):
        """Wrap fn so that each call records a span named `name`."""
        def traced(*args, **kwargs):
            span = [name, _stage(name, self.stage), 0.0, 0.0,
                    self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._open.pop()
            if note is not None:
                note(self, span[1], args, result)
            return result
        return traced

    def stream_class(self, base, prefix: str, position: str):
        """Subclass of base whose `prefix*` methods log one field per
        outermost call, with the bits it moved `position` by."""
        tracer = self
        writing = prefix == "write_"

        def logged(method, kind):
            def call(stream, *args):
                if stream._depth:
                    return method(stream, *args)
                stream._depth = 1
                before = getattr(stream, position)
                try:
                    result = method(stream, *args)
                finally:
                    stream._depth = 0
                tracer.fields.append([tracer.stage, kind,
                                      args[0] if writing else result,
                                      getattr(stream, position) - before, None])
                return result
            return call

        def init(stream, *args):
            base.__init__(stream, *args)
            tracer.stream = stream

        ns = {"_depth": 0, "__init__": init}
        for name in dir(base):
            if name.startswith(prefix):
                ns[name] = logged(getattr(base, name), name[len(prefix):])
        return type("Ledger" + base.__name__, (base,), ns)

    def expect(self, stage, values, tags):
        """A rank call made from `stage` sends `values` as Elias-delta
        fields of that stage."""
        self.expected.append((len(self.fields), stage, values, tags))

    def tag_ranks(self):
        """Tag the fields that carry each rank call's values.

        The encoder writes them after the call, the decoder reads them
        before it, so search forward when encoding and backward when
        decoding for a run of Elias-delta fields holding those values.
        """
        fields = self.fields
        for at, stage, values, tags in self.expected:
            k = len(values)
            starts = (range(at, len(fields) - k + 1) if self.encoding
                      else range(at - k, -1, -1))
            for s in starts:
                if all(fields[s + i][0] == stage and fields[s + i][1] == "elias_delta"
                       and fields[s + i][2] == v for i, v in enumerate(values)):
                    break
            else:
                raise TraceError(f"no {stage} fields carry the {tags[0]} values")
            for i, tag in enumerate(tags):
                fields[s + i][4] = tag

    def ledger(self) -> Counter:
        """Bits per stage; top-level rank fields count for their codec."""
        out = Counter()
        for stage, _, _, bits, tag in self.fields:
            out[tag if stage == "header" and tag else stage] += bits
        return out

    def times(self):
        """(seconds per span name, self seconds per stage).

        A stage's self time is the time of the spans that open it minus
        the time of spans of other stages nested inside them.
        """
        by_name = Counter()
        by_stage = Counter()
        root = []
        inner = Counter()
        for i, (name, stage, start, end, parent) in enumerate(self.spans):
            by_name[name] += end - start
            if parent >= 0 and self.spans[parent][1] == stage:
                root.append(root[parent])
                continue
            root.append(i)
            if parent >= 0:
                inner[root[parent]] += end - start
        for i, (name, stage, start, end, parent) in enumerate(self.spans):
            if root[i] == i:
                by_stage[stage] += end - start - inner[i]
        return by_name, by_stage

    def count(self, name) -> int:
        return sum(1 for span in self.spans if span[0] == name)


def _note_tcount(tracer, stage, args, table):
    tracer.notes["tcount"] = table.tcount


def _note_signatures(tracer, stage, args, result):
    if stage == "vertex_ids":
        tracer.notes["signatures"] = max(args[0])  # ids are 1..#signatures


def _note_star_edges(tracer, stage, args, edges):
    tracer.notes["star_edges"] = len(edges)


def _note_rank(tag):
    def note(tracer, stage, args, result):
        f = result if tracer.encoding else args[0]
        tracer.expect(tracer.stage, [1 + f], [tag])
    return note


def _note_simple_rank(tracer, stage, args, result):
    f, cps = result if tracer.encoding else args[:2]
    tracer.expect(tracer.stage, [1 + f, len(cps)] + [1 + c for c in cps[1:]],
                  ["simple_graph"] + ["simple_graph.checkpoint"] * len(cps))


def trace_patches(enc: Tracer, dec: Tracer):
    """Replacements that route one round trip's calls through the tracers."""
    pipeline = sys.modules["lwcg.pipeline"]
    sequences = sys.modules["lwcg.sequences"]
    spans = [
        (enc, pipeline, "preprocess", "preprocess", None),
        (enc, pipeline, "extract_types", "extract_types", _note_tcount),
        (enc, pipeline, "find_star_vertices", "star_bitmap", None),
        (enc, pipeline, "encode_sequence", "sequences", _note_signatures),
        (enc, pipeline, "encode_star_edges", "star_edges", None),
        (enc, pipeline, "find_deg", "vertex_types", None),
        (enc, pipeline, "encode_vertex_types", "vertex_types", None),
        (enc, pipeline, "find_partition_graphs", "partition_build", None),
        (enc, pipeline, "b_encode", "bipartite", _note_rank("bipartite")),
        (enc, pipeline, "s_encode", "simple_graph", _note_simple_rank),
        (enc, sequences, "b_encode", "bipartite", _note_rank("sequences.rank")),
        (dec, pipeline, "decode_sequence", "sequences", None),
        (dec, pipeline, "decode_star_edges", "star_edges", _note_star_edges),
        (dec, pipeline, "decode_vertex_types", "vertex_types", None),
        (dec, pipeline, "decode_partition_structures", "partition_build", None),
        (dec, pipeline, "b_decode", "bipartite", _note_rank("bipartite")),
        (dec, pipeline, "s_decode", "simple_graph", _note_simple_rank),
        (dec, sequences, "b_decode", "bipartite", _note_rank("sequences.rank")),
    ]
    out = [(module, attr, tracer.span(name, getattr(module, attr), note))
           for tracer, module, attr, name, note in spans]
    out.append((pipeline, "BitWriter",
                enc.stream_class(pipeline.BitWriter, "write_", "bit_length")))
    out.append((pipeline, "BitReader",
                dec.stream_class(pipeline.BitReader, "read_", "position")))
    return out


def check_ledgers(enc: Tracer, dec: Tracer, data: bytes) -> Counter:
    """Tag rank fields, then check that the encode ledger accounts for the
    whole stream and that decode read the same bits stage by stage."""
    enc.tag_ranks()
    dec.tag_ranks()
    ledger, read = enc.ledger(), dec.ledger()
    total = sum(ledger.values())
    if total != enc.stream.bit_length:
        raise TraceError(f"ledger has {total} bits, writer wrote {enc.stream.bit_length}")
    if not 0 <= 8 * len(data) - total < 8:
        raise TraceError(f"ledger has {total} bits for {len(data)} bytes")
    if +read != +ledger:
        raise TraceError(f"decode ledger {dict(read)} != encode ledger {dict(ledger)}")
    return ledger


def layer_metrics(enc: Tracer, dec: Tracer, ledger: Counter) -> dict:
    """Per-layer figures of one traced round trip, by metric name."""
    e_name, e_stage = enc.times()
    d_name, d_stage = dec.times()
    # The bipartite layer ranks both the partition graphs and, inside the
    # sequence codec, each sequence's auxiliary graph.
    tagged = Counter()
    max_rank = 0
    for _, _, _, bits, tag in enc.fields:
        tagged[tag] += bits
        if tag in ("bipartite", "sequences.rank"):
            max_rank = max(max_rank, bits)
    return {
        "graph_model.preprocess_s": e_name["preprocess"],
        "edge_types.extract_types_s": e_name["extract_types"],
        "edge_types.tcount": enc.notes["tcount"],
        "pipeline.star_bitmap.encode_s": e_stage["star_bitmap"],
        "pipeline.star_bitmap.decode_s": d_stage["star_bitmap"],
        "pipeline.star_bitmap.bits": ledger["star_bitmap"],
        "pipeline.star_edges.encode_s": e_name["star_edges"],
        "pipeline.star_edges.decode_s": d_name["star_edges"],
        "pipeline.star_edges.bits": ledger["star_edges"],
        "pipeline.star_edges.count": dec.notes["star_edges"],
        "pipeline.vertex_types.encode_s": e_stage["vertex_dict"],
        "pipeline.vertex_types.decode_s": d_stage["vertex_dict"],
        "pipeline.vertex_dict.bits": ledger["vertex_dict"],
        "pipeline.vertex_dict.signatures": enc.notes["signatures"],
        "pipeline.vertex_ids.bits": ledger["vertex_ids"],
        "pipeline.partition_build.encode_s": e_name["partition_build"],
        "pipeline.partition_build.decode_s": d_name["partition_build"],
        "pipeline.header.bits": ledger["header"],
        "sequences.encode_s": e_name["sequences"],
        "sequences.decode_s": d_name["sequences"],
        "sequences.rank_bits": tagged["sequences.rank"],
        "bipartite.encode_s": e_name["bipartite"],
        "bipartite.decode_s": d_name["bipartite"],
        "bipartite.instances": enc.count("bipartite"),
        "bipartite.rank_bits": tagged["bipartite"] + tagged["sequences.rank"],
        "bipartite.max_rank_bits": max_rank,
        "simple_graph.encode_s": e_name["simple_graph"],
        "simple_graph.decode_s": d_name["simple_graph"],
        "simple_graph.instances": enc.count("simple_graph"),
        "simple_graph.rank_bits": ledger["simple_graph"],
        "simple_graph.checkpoint_bits": ledger["simple_graph.checkpoint"],
    }


# Counted primitives: metric name -> (module, class or None, attribute,
# phases reported).
COUNTED = {
    "intmath.compute_product": ("intmath", None, "compute_product", ("encode", "decode")),
    "intmath.prod_factorial": ("intmath", None, "prod_factorial", ("encode", "decode")),
    "fenwick.suffix_sum": ("fenwick", "SuffixFenwick", "suffix_sum", ("encode", "decode")),
    "fenwick.add": ("fenwick", "SuffixFenwick", "add", ("encode", "decode")),
    "bits.write_fixed": ("bits", "BitWriter", "write_fixed", ("encode",)),
    "bits.read_fixed": ("bits", "BitReader", "read_fixed", ("decode",)),
}

# Rank decoders whose output neighbors the counted run tallies.
RANK_DECODERS = (("pipeline", "b_decode"), ("pipeline", "s_decode"),
                 ("sequences", "b_decode"))


class Counts:
    """Call counters on COUNTED, filed under the phase being run."""

    def __init__(self):
        self.phase = "encode"
        self.calls = Counter()

    def _counter(self, key, fn):
        def counted(*args, **kwargs):
            self.calls[key, self.phase] += 1
            return fn(*args, **kwargs)
        return counted

    def _tally(self, fn):
        def tallied(*args, **kwargs):
            adj = fn(*args, **kwargs)
            self.calls["neighbors", self.phase] += sum(len(neigh) for neigh in adj)
            return adj
        return tallied

    def patches(self):
        """Counting replacements.  A function is replaced under every name
        any lwcg module binds it to, so calls from every caller, recursion
        included, are counted; a method is replaced on its class."""
        modules = [m for name, m in sys.modules.items()
                   if name == "lwcg" or name.startswith("lwcg.")]
        out = []
        for key, (module, cls, attr, _) in COUNTED.items():
            holder = sys.modules["lwcg." + module]
            if cls is not None:
                holder = getattr(holder, cls)
                out.append((holder, attr, self._counter(key, getattr(holder, attr))))
                continue
            original = getattr(holder, attr)
            wrapper = self._counter(key, original)
            out += [(m, name, wrapper) for m in modules
                    for name, value in vars(m).items() if value is original]
        for module, attr in RANK_DECODERS:
            holder = sys.modules["lwcg." + module]
            out.append((holder, attr, self._tally(getattr(holder, attr))))
        return out

    def metrics(self) -> dict:
        out = {f"{key}.calls.{phase}": self.calls[key, phase]
               for key, (*_, phases) in COUNTED.items() for phase in phases}
        neighbors = self.calls["neighbors", "decode"]
        out["fenwick.suffix_sum_per_edge.decode"] = (
            self.calls["fenwick.suffix_sum", "decode"] / neighbors if neighbors else 0.0)
        return out
