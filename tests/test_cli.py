import json
import random
from itertools import combinations

import pytest

from domishold import Graph, complete, cycle, disjoint_union, forbidden_graph, path
from domishold.cli import main
from domishold.fileio import parse_graph, write_graph, write_hypergraph
from domishold import Hypergraph


@pytest.fixture
def write(tmp_path):
    def _write(name, text):
        p = tmp_path / name
        p.write_text(text, encoding="utf-8")
        return str(p)

    return _write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


def test_recognize_td_k4(write, capsys):
    f = write("k4.g", write_graph(complete(4)))
    code, report = run_json(capsys, "recognize-td", f)
    assert code == 0
    assert report["verdict"] is True
    assert report["structure"]["weights"] == [1, 1, 1, 1]
    assert report["structure"]["t"] == 2
    assert report["version"]


def test_recognize_td_c4_witness(write, capsys):
    f = write("c4.g", write_graph(cycle(4)))
    code, report = run_json(capsys, "recognize-td", f)
    assert code == 1
    assert report["verdict"] is False
    assert report["witness"]["kind"] == "summability"
    assert len(report["witness"]["false_points"]) == 2


def test_recognize_td_malformed_file(write, capsys):
    f = write("bad.g", "p graph x y\n")
    code = main(["recognize-td", f])
    assert code == 2


def test_recognize_htd_exit_codes(write, capsys):
    p4 = write("p4.g", write_graph(path(4)))
    assert run(capsys, "recognize-htd", p4) == (0, "hereditary total domishold: True (route: split)\n")
    two_p3 = write("2p3.g", write_graph(disjoint_union(path(3), path(3))))
    code, report = run_json(capsys, "recognize-htd", two_p3)
    assert code == 1 and report["witness"]["index"] == 5
    f13 = write("f13.g", write_graph(forbidden_graph(13)))
    code, report = run_json(capsys, "recognize-htd", f13)
    assert code == 1 and report["witness"]["index"] == 13
    assert report["witness"]["name"] == "F13"


def test_solve_commands(write, capsys):
    k4 = write("k4.g", write_graph(complete(4)))
    code, report = run_json(capsys, "solve", k4, "--tds")
    assert code == 0 and report["solution"]["size"] == 2
    assert report["structure"] == {"weights": [1, 1, 1, 1], "t": 2}
    star = write("star.g", "p graph 4 3\ne 1 2\ne 1 3\ne 1 4\n")
    code, report = run_json(capsys, "solve", star, "--ds")
    assert code == 0 and report["solution"]["size"] <= 2
    c4 = write("c4.g", write_graph(cycle(4)))
    assert run(capsys, "solve", c4, "--tds")[0] == 1


def test_hypergraph_commands(write, capsys):
    h = write("h.h", write_hypergraph(Hypergraph.make(3, [[0, 1], [0, 2]])))
    code, report = run_json(capsys, "hypergraph", h, "--threshold")
    assert code == 0 and report["structure"] is not None
    bad = write("bad.h", write_hypergraph(Hypergraph.make(4, [[0, 1], [2, 3]])))
    code, report = run_json(capsys, "hypergraph", bad, "--dually-sperner")
    assert code == 1
    assert sorted(report["witness"]["edges"]) == [[1, 2], [3, 4]]
    good = write("good.h", write_hypergraph(Hypergraph.make(3, [[0, 1], [0, 2], [1, 2]])))
    assert run(capsys, "hypergraph", good, "--dually-sperner")[0] == 0
    degenerate = write("deg.h", "p hgraph 1 1\nh\n")
    assert run(capsys, "hypergraph", degenerate, "--threshold")[0] == 0


def test_generate_round_trip(tmp_path, capsys):
    out = tmp_path / "g.txt"
    assert main(["generate", "complete", "5", "--out", str(out)]) == 0
    assert parse_graph(out.read_text()) == complete(5)
    assert main(["generate", "forbidden", "9", "--out", str(out)]) == 0
    assert parse_graph(out.read_text()) == forbidden_graph(9)
    assert main(["generate", "threshold_from_sequence", "i u i u", "--out", str(out)]) == 0
    assert parse_graph(out.read_text()).n == 4
    code, text = run(capsys, "generate", "random_threshold", "6", "--seed", "3")
    assert code == 0 and parse_graph(text).n == 6
    # deterministic given the seed
    code2, text2 = run(capsys, "generate", "random_threshold", "6", "--seed", "3")
    assert text2 == text


def test_generate_random_threshold_of_order_zero_and_negative(capsys):
    code, text = run(capsys, "generate", "random_threshold", "0", "--seed", "3")
    assert code == 0 and text == "p graph 0 0\n"
    assert main(["generate", "random_threshold", "-1", "--seed", "3"]) == 2
    assert capsys.readouterr().err.startswith("error:")


def test_generate_checks_the_number_of_parameters(write, capsys):
    p3 = write("p3.g", write_graph(path(3)))
    for family, params in [
        ("complete", ["3"]),
        ("path", ["3"]),
        ("cycle", ["3"]),
        ("star", ["3"]),
        ("forbidden", ["3"]),
        ("threshold_from_sequence", ["iu"]),
        ("random_threshold", ["3"]),
        ("add_universal", [p3]),
        ("add_isolated", [p3]),
        ("add_pendant", [p3]),
        ("disjoint_union", [p3, p3]),
        ("join", [p3, p3]),
    ]:
        assert run(capsys, "generate", family, *params, "--seed", "1")[0] == 0, family
        for wrong in (params[:-1], params + params[:1]):
            assert main(["generate", family, *wrong, "--seed", "1"]) == 2, (family, wrong)
            captured = capsys.readouterr()
            assert captured.err.startswith("error:") and captured.out == "", (family, wrong)


def test_equivalence_census_rejects_a_negative_order(capsys):
    for order in ("-1", "-4"):
        assert main(["equivalence", "--census", order]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and captured.out == ""
    code, text = run(capsys, "equivalence", "--census", "0")
    assert code == 0 and text.startswith("census n<=0: 1 graphs, 0 disagreements")


def test_generate_from_files(write, capsys, tmp_path):
    p3 = write("p3.g", write_graph(path(3)))
    code, text = run(capsys, "generate", "add_universal", p3)
    assert code == 0 and parse_graph(text).n == 4
    code, text = run(capsys, "generate", "disjoint_union", p3, p3)
    assert code == 0 and parse_graph(text) == disjoint_union(path(3), path(3))


def test_equivalence_command(write, capsys):
    p4 = write("p4.g", write_graph(path(4)))
    code, report = run_json(capsys, "equivalence", p4)
    assert code == 0 and all(report["legs"].values())
    assert list(report["legs"]) == ["graph", "split-incidence"]
    c4 = write("c4.g", write_graph(cycle(4)))
    code, report = run_json(capsys, "equivalence", c4)
    assert code == 0 and not any(report["legs"].values())


def test_equivalence_census_sweep(capsys):
    code, report = run_json(capsys, "equivalence", "--census", "4")
    assert code == 0
    assert report["legs"]["census_graphs"] == 1 + 1 + 2 + 8 + 64
    assert report["legs"]["disagreements"] == 0


def test_verify_round_trip(write, capsys, tmp_path):
    k4 = write("k4.g", write_graph(complete(4)))
    rep = tmp_path / "r.json"
    assert main(["recognize-td", k4, "--json", "--out", str(rep)]) == 0
    assert main(["verify", k4, str(rep)]) == 0
    c4 = write("c4.g", write_graph(cycle(4)))
    rep2 = tmp_path / "r2.json"
    assert main(["recognize-td", c4, "--json", "--out", str(rep2)]) == 1
    assert main(["verify", c4, str(rep2)]) == 0
    f13 = write("f13.g", write_graph(forbidden_graph(13)))
    rep3 = tmp_path / "r3.json"
    assert main(["recognize-htd", f13, "--json", "--out", str(rep3)]) == 1
    assert main(["verify", f13, str(rep3)]) == 0
    capsys.readouterr()


def test_verify_rejects_a_verdict_that_contradicts_its_certificate(write, capsys, tmp_path):
    k4 = write("k4.g", write_graph(complete(4)))
    c4 = write("c4.g", write_graph(cycle(4)))
    rep = tmp_path / "r.json"
    for graph, code, flipped, line in [
        (k4, 0, False, "total domishold structure: ok"),
        (c4, 1, True, "summability witness: ok"),
    ]:
        assert main(["recognize-td", graph, "--json", "--out", str(rep)]) == code
        report = json.loads(rep.read_text())
        assert report["verdict"] is not flipped
        report["verdict"] = flipped
        rep.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["verify", graph, str(rep)]) == 2, graph
        out = capsys.readouterr().out.splitlines()
        assert out[0] == line and out[1].endswith(": FAILED"), out
        report["verdict"] = "yes"
        rep.write_text(json.dumps(report))
        assert main(["verify", graph, str(rep)]) == 2
        assert capsys.readouterr().err.startswith("error: malformed report")


def test_verify_catches_tampering(write, capsys, tmp_path):
    k4 = write("k4.g", write_graph(complete(4)))
    rep = tmp_path / "r.json"
    main(["recognize-td", k4, "--json", "--out", str(rep)])
    doctored = json.loads(rep.read_text())
    doctored["structure"]["t"] = 3
    rep.write_text(json.dumps(doctored))
    assert main(["verify", k4, str(rep)]) == 2
    capsys.readouterr()


def test_hypergraph_verify_round_trip(write, capsys, tmp_path):
    h = write("h.h", write_hypergraph(Hypergraph.make(3, [[0, 1], [0, 2]])))
    # an empty edge makes the function constant 1: threshold with t = -1
    degenerate = write("deg.h", "p hgraph 2 2\nh\nh 1 2\n")
    rep = tmp_path / "r.json"
    for f in (h, degenerate):
        assert main(["hypergraph", f, "--threshold", "--json", "--out", str(rep)]) == 0
        assert main(["verify", f, str(rep)]) == 0
    assert json.loads(rep.read_text())["structure"] == {"weights": [0, 0], "t": -1}
    capsys.readouterr()


def test_verify_malformed_report_is_an_error(write, capsys, tmp_path):
    k4 = write("k4.g", write_graph(complete(4)))
    h = write("h.h", write_hypergraph(Hypergraph.make(3, [[0, 1], [0, 2]])))
    rep = tmp_path / "r.json"
    cases = [
        (k4, {"structure": {"weights": 5}}),
        (h, {"structure": {"weights": 5}}),
        (k4, {"witness": {"kind": "summability"}}),
        (h, {"witness": {"kind": "summability"}}),
        (k4, {"witness": {"kind": "forbidden_subgraph", "index": 0, "embedding": [1, 2, 3, 4]}}),
    ]
    for path, content in cases:
        rep.write_text(json.dumps(content))
        assert main(["verify", path, str(rep)]) == 2, content
        assert capsys.readouterr().err.startswith("error: malformed report"), content


def test_seed_env_variable_is_default(write, capsys, monkeypatch):
    monkeypatch.setenv("DOMISHOLD_SEED", "77")
    code, text = run(capsys, "generate", "random_threshold", "5")
    code2, text2 = run(capsys, "generate", "random_threshold", "5", "--seed", "77")
    assert code == code2 == 0 and text == text2
    # the default is resolved per call, not when the shared parser is built
    monkeypatch.setenv("DOMISHOLD_SEED", "78")
    code3, text3 = run(capsys, "generate", "random_threshold", "5")
    code4, text4 = run(capsys, "generate", "random_threshold", "5", "--seed", "78")
    assert code3 == code4 == 0 and text3 == text4 != text
    monkeypatch.setenv("DOMISHOLD_SEED", "abc")
    assert main(["generate", "random_threshold", "5"]) == 2
    assert capsys.readouterr().err.startswith("error:")
    monkeypatch.delenv("DOMISHOLD_SEED")
    code5, text5 = run(capsys, "generate", "random_threshold", "5")
    code6, text6 = run(capsys, "generate", "random_threshold", "5", "--seed", "20130919")
    assert code5 == code6 == 0 and text5 == text6


def test_a_malformed_seed_only_matters_to_random_threshold(write, capsys, tmp_path, monkeypatch):
    k4 = write("k4.g", write_graph(complete(4)))
    h = write("h.h", write_hypergraph(Hypergraph.make(3, [[0, 1], [0, 2]])))
    rep = str(tmp_path / "r.json")
    calls = [
        ["recognize-td", k4, "--json", "--out", rep],
        ["verify", k4, rep],
        ["recognize-htd", k4],
        ["solve", k4, "--tds"],
        ["hypergraph", h, "--threshold"],
        ["equivalence", k4],
        ["generate", "complete", "3"],
        ["generate", "random_threshold", "5", "--seed", "4"],
    ]
    plain = [run(capsys, *argv) for argv in calls]
    monkeypatch.setenv("DOMISHOLD_SEED", "abc")
    assert [run(capsys, *argv) for argv in calls] == plain
    assert [code for code, _ in plain] == [0] * len(calls)
    assert main(["generate", "random_threshold", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: DOMISHOLD_SEED")


def _call_outputs(capsys, tmp_path, argv):
    """Exit code, stdout, stderr and written files of one call, with the
    timing field dropped from JSON reports."""

    def normalize(text):
        try:
            report = json.loads(text)
        except ValueError:
            return text
        report.pop("elapsed_ms", None)
        return report

    code = main(list(argv))
    captured = capsys.readouterr()
    files = {p.name: normalize(p.read_text()) for p in sorted(tmp_path.glob("*.out"))}
    for p in tmp_path.glob("*.out"):
        p.unlink()
    return code, normalize(captured.out), captured.err, files


def test_calls_do_not_depend_on_earlier_calls(write, capsys, tmp_path):
    k4 = write("k4.g", write_graph(complete(4)))
    c4 = write("c4.g", write_graph(cycle(4)))
    p4 = write("p4.g", write_graph(path(4)))
    star = write("star.g", "p graph 4 3\ne 1 2\ne 1 3\ne 1 4\n")
    h = write("h.h", write_hypergraph(Hypergraph.make(3, [[0, 1], [0, 2]])))
    bad = write("bad.g", "p graph 2 1\ne 1 3\n")
    out = str(tmp_path / "report.out")
    calls = [
        ["recognize-td", k4, "--json", "--out", out],
        ["recognize-td", k4],
        ["recognize-td", c4],
        ["recognize-td", c4, "--json"],
        ["solve", k4, "--tds", "--json"],
        ["solve", star, "--ds"],
        ["solve", c4, "--tds", "--out", out],
        ["solve", bad, "--ds"],
        ["equivalence", p4, "--json"],
        ["equivalence", "--census", "3"],
        ["equivalence", "--census", "3", "--json", "--out", out],
        ["equivalence", c4],
        ["hypergraph", h, "--threshold", "--json"],
        ["hypergraph", h, "--dually-sperner"],
        ["recognize-htd", p4, "--json", "--out", out],
        ["generate", "random_threshold", "6", "--seed", "5"],
        ["generate", "random_threshold", "6"],
    ]
    forward = [_call_outputs(capsys, tmp_path, argv) for argv in calls]
    backward = [_call_outputs(capsys, tmp_path, argv) for argv in reversed(calls)]
    for argv, one, other in zip(calls, forward, reversed(backward)):
        assert one == other, argv
    assert [code for code, *_ in forward] == [0, 0, 1, 1, 0, 0, 1, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0]


def test_usage_errors_exit_2_after_earlier_calls(write, capsys):
    k4 = write("k4.g", write_graph(complete(4)))
    for argv in (["mystery", k4], ["solve", k4], ["equivalence"], ["equivalence", k4, "--census", "3"]):
        assert main(["recognize-td", k4]) == 0
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert "usage:" in capsys.readouterr().err, argv


def _only_exact_json_numbers(node):
    if isinstance(node, bool) or node is None or isinstance(node, (int, str)):
        return True
    if isinstance(node, float):
        return False
    if isinstance(node, list):
        return all(_only_exact_json_numbers(x) for x in node)
    if isinstance(node, dict):
        return all(_only_exact_json_numbers(v) for v in node.values())
    return False


def test_json_reports_contain_no_floats(write, capsys):
    for name, graph in [("k4.g", complete(4)), ("c4.g", cycle(4))]:
        f = write(name, write_graph(graph))
        for cmd in (["recognize-td", f], ["recognize-htd", f], ["equivalence", f]):
            main(cmd + ["--json"])
            report = json.loads(capsys.readouterr().out)
            assert _only_exact_json_numbers(report), cmd


def test_verify_dually_sperner_violation(write, capsys, tmp_path):
    bad = write("bad.h", write_hypergraph(Hypergraph.make(4, [[0, 1], [2, 3]])))
    rep = tmp_path / "r.json"
    assert main(["hypergraph", bad, "--dually-sperner", "--json", "--out", str(rep)]) == 1
    assert main(["verify", bad, str(rep)]) == 0
    doctored = json.loads(rep.read_text())
    doctored["witness"]["edges"][0] = [1, 3]
    rep.write_text(json.dumps(doctored))
    assert main(["verify", bad, str(rep)]) == 2
    capsys.readouterr()


def test_verify_rejects_vertex_numbers_that_are_not_integers(write, capsys, tmp_path):
    c4 = write("c4.g", write_graph(cycle(4)))
    h = write("h.h", "p hgraph 4 2\nh 1 2\nh 3 4\n")
    rep = tmp_path / "r.json"
    for path, witness, good in [
        (c4, {"kind": "forbidden_subgraph", "index": True, "embedding": [1, 2, 4, 3]}, {"index": 1}),
        (c4, {"kind": "forbidden_subgraph", "index": 1, "embedding": [True, 2, 4, 3]}, {"embedding": [1, 2, 4, 3]}),
        (h, {"kind": "dually_sperner_violation", "edges": [[1.0, 2.0], [3.0, 4.0]]}, {"edges": [[1, 2], [3, 4]]}),
        (h, {"kind": "dually_sperner_violation", "edges": [[True, 2], [3, 4]]}, {"edges": [[1, 2], [3, 4]]}),
    ]:
        rep.write_text(json.dumps({"verdict": False, "witness": witness}))
        assert main(["verify", path, str(rep)]) == 2, witness
        assert capsys.readouterr().err.startswith("error: malformed report"), witness
        rep.write_text(json.dumps({"verdict": False, "witness": {**witness, **good}}))
        assert main(["verify", path, str(rep)]) == 0, good
        capsys.readouterr()


def split_incidence_of_weights(seed, k):
    """The split-incidence graph of the minimal sets reaching half the total
    of k random weights in 1..9: a total domishold graph of k + m vertices."""
    rng = random.Random(seed)
    w = [rng.randint(1, 9) for _ in range(k)]
    t = sum(w) // 2
    edges = [
        s
        for size in range(1, k + 1)
        for s in combinations(range(k), size)
        if sum(w[i] for i in s) >= t and sum(w[i] for i in s) - min(w[i] for i in s) < t
    ]
    incidences = [(v, k + j) for j, e in enumerate(edges) for v in e]
    return Graph.from_edges(k + len(edges), list(combinations(range(k), 2)) + incidences)


def test_verify_structure_of_253_vertices(write, capsys, tmp_path):
    # at k = 16 (3,023 implicants) a step quadratic in the implicants takes
    # seconds, so this input also shows one
    for k, n in [(12, 253), (16, 3039)]:
        G = split_incidence_of_weights(5, k)
        assert G.n == n
        g = write(f"k{k}.g", write_graph(G))
        rep = tmp_path / f"k{k}.json"
        assert main(["recognize-td", g, "--json", "--out", str(rep)]) == 0
        assert main(["verify", g, str(rep)]) == 0
        assert capsys.readouterr().out == "total domishold structure: ok\n"
        tampered = json.loads(rep.read_text())
        tampered["structure"]["t"] = sum(tampered["structure"]["weights"]) + 1
        rep.write_text(json.dumps(tampered))
        assert main(["verify", g, str(rep)]) == 2
        assert capsys.readouterr().out == "total domishold structure: FAILED\n"


def test_verify_rejects_summability_points_that_are_not_bits(write, capsys, tmp_path):
    x1 = write("x1.h", "p hgraph 1 1\nh 1\n")
    k2 = write("k2.g", write_graph(complete(2)))
    rep = tmp_path / "r.json"
    for path, falses, trues in [
        (x1, [[0], [0]], [[1], [-1]]),
        (k2, [[0, 0], [0, 0]], [[1, -1], [-1, 1]]),
        (k2, [[0, 0], [0, 0]], [[1, 0], [0.0, 1]]),
    ]:
        witness = {"kind": "summability", "false_points": falses, "true_points": trues}
        rep.write_text(json.dumps({"witness": witness}))
        assert main(["verify", path, str(rep)]) == 2, trues
        assert capsys.readouterr().out == "summability witness: FAILED\n"


def test_verify_rejects_structures_that_are_not_integral(write, capsys, tmp_path):
    x1 = write("x1.h", "p hgraph 1 1\nh 1\n")
    k2 = write("k2.g", write_graph(complete(2)))
    rep = tmp_path / "r.json"
    for path, structure in [
        (x1, {"weights": [1.5], "t": 0.5}),
        (x1, {"weights": [True], "t": False}),
        (x1, {"weights": [1], "t": 0.0}),
        (k2, {"weights": [1.0, 1], "t": 2}),
    ]:
        rep.write_text(json.dumps({"structure": structure}))
        assert main(["verify", path, str(rep)]) == 2, structure
        assert "malformed report" in capsys.readouterr().err
    rep.write_text(json.dumps({"structure": {"weights": [1], "t": 0}}))
    assert main(["verify", x1, str(rep)]) == 0
