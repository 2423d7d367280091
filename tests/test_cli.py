import csv

import pytest

from lwcg import cli, pipeline
from lwcg.graph_model import format_edge_list, parse_edge_list

from conftest import sample_graph


@pytest.fixture
def graph_file(tmp_path):
    path = tmp_path / "fig.txt"
    path.write_text(format_edge_list(sample_graph()), encoding="utf-8")
    return path


def test_compress_decompress_roundtrip(graph_file, tmp_path, capsys):
    out = tmp_path / "fig.lwcg"
    back = tmp_path / "back.txt"
    assert cli.main(["compress", "-i", str(graph_file), "-o", str(out),
                     "-H", "2", "-D", "4", "-v"]) == 0
    log = capsys.readouterr().out
    # The hub, the spokes and the leaves: three signatures.
    assert "vertex_types=3" in log
    assert "partition_graphs=2" in log
    assert "partition_keys=[(3, 4), (5, 5)]" in log
    assert cli.main(["decompress", "-i", str(out), "-o", str(back)]) == 0
    g = parse_edge_list(back.read_text(encoding="utf-8"))
    from lwcg.graph_model import canonical_edges
    assert canonical_edges(g) == canonical_edges(sample_graph())
    assert g.theta == sample_graph().theta


def test_compress_edgeless_reports_na(tmp_path, capsys):
    src = tmp_path / "empty.txt"
    src.write_text("3 0 1 1\n1 1 1\n", encoding="utf-8")
    assert cli.main(["compress", "-i", str(src), "-o", str(tmp_path / "e.lwcg"),
                     "-H", "1", "-D", "1"]) == 0
    assert "bpl=n/a" in capsys.readouterr().out


def test_verify_ok(graph_file, capsys):
    assert cli.main(["verify", "-i", str(graph_file), "-H", "2", "-D", "4"]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_many_seeds(tmp_path):
    from lwcg.synthetic import gen_synthetic
    for seed in range(100):
        path = tmp_path / f"g{seed}.txt"
        path.write_text(format_edge_list(gen_synthetic(40, 2.0, 2, 2, seed)),
                        encoding="utf-8")
        assert cli.main(["verify", "-i", str(path), "-H", "2", "-D", "5"]) == 0


def test_verify_detects_mutated_decode(graph_file, monkeypatch, capsys):
    real = pipeline.decode_marked_graph

    def corrupted(data):
        g = real(data)
        theta = (g.theta[0] % g.sigma_v + 1,) + g.theta[1:]
        return g.__class__(n=g.n, sigma_v=g.sigma_v, sigma_e=g.sigma_e,
                           theta=theta, edges=g.edges)

    monkeypatch.setattr(pipeline, "decode_marked_graph", corrupted)
    assert cli.main(["verify", "-i", str(graph_file), "-H", "2", "-D", "4"]) == 1
    assert "MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize("command", [
    ["verify", "-H", "2", "-D", "4"],
    ["sweep", "--sizes", "60", "--deltas", "4", "-H", "2"],
])
def test_round_trip_with_wrong_vertex_alphabet_fails(command, graph_file, monkeypatch):
    # The edges and vertex marks come back right; only sigma_v is wrong.
    real = pipeline.decode_marked_graph

    def wrong_sigma_v(data):
        g = real(data)
        return g.__class__(n=g.n, sigma_v=g.sigma_v + 1, sigma_e=g.sigma_e,
                           theta=g.theta, edges=g.edges)

    monkeypatch.setattr(pipeline, "decode_marked_graph", wrong_sigma_v)
    if command[0] == "verify":
        command = command + ["-i", str(graph_file)]
    assert cli.main(command) == 1


def test_gen_rejects_nonpositive_lambda(tmp_path):
    with pytest.raises(ValueError):
        cli.main(["gen", "-n", "2", "--lambda", "0.0",
                  "-o", str(tmp_path / "g.txt")])


def test_gen_same_seed_same_file(tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for p in (p1, p2):
        assert cli.main(["gen", "-n", "200", "--lambda", "3", "--xi", "2",
                         "--theta", "2", "--seed", "5", "-o", str(p)]) == 0
    assert p1.read_text() == p2.read_text()


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--sizes", "60,120", "--deltas", "2,4",
                     "-H", "1", "--lambda", "2", "--seed", "3",
                     "-o", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert [r["n"] for r in rows] == ["60", "60", "120", "120"]
    assert set(rows[0]) == {"n", "delta", "bpl", "l_n", "encode_s", "decode_s"}


def test_entropy_command(capsys):
    assert cli.main(["entropy", "--lambda", "3", "--xi", "2", "--theta", "2",
                     "--samples", "20000", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "J1 estimate:" in out and "stderr" in out
