import random

import pytest

from domishold import (
    Graph,
    TdStructure,
    approx_dominating_set,
    complete,
    cycle,
    greedy_min_tds,
    is_dominating_set,
    is_total_dominating_set,
    path,
    random_graph,
    recognize_td,
    star,
)

from oracles import CapabilityError, gamma_bruteforce, gamma_t_bruteforce


def test_greedy_on_k4():
    result = greedy_min_tds(complete(4), TdStructure((1, 1, 1, 1), 2))
    assert result.size == 2
    assert is_total_dominating_set(complete(4), result.vertices)


def test_greedy_on_p3_picks_heavy_vertex_first():
    result = greedy_min_tds(path(3), TdStructure((1, 2, 1), 3))
    assert result.vertices == frozenset({0, 1}) and result.size == 2
    assert result.size == gamma_t_bruteforce(path(3)).size


def test_greedy_on_star():
    G = star(4)
    report = recognize_td(G)
    assert report.verdict
    result = greedy_min_tds(G, report.structure)
    assert result.size == 2 == gamma_t_bruteforce(G).size


def test_greedy_rejects_bad_inputs():
    with pytest.raises(ValueError):
        greedy_min_tds(Graph.from_edges(2, []), TdStructure((1, 1), 3))
    with pytest.raises(ValueError):
        greedy_min_tds(complete(3), TdStructure((1, 1, 1), 3))  # does not verify


def test_greedy_prefix_optimality():
    rng = random.Random(41)
    for _ in range(40):
        G = random_graph(rng, rng.randint(2, 8))
        if G.has_isolated_vertex():
            continue
        report = recognize_td(G)
        if not report.verdict:
            continue
        s = report.structure
        result = greedy_min_tds(G, s)
        order = sorted(range(G.n), key=lambda v: (-s.weights[v], v))
        shorter = order[: result.size - 1]
        assert sum(s.weights[v] for v in shorter) < s.t


def test_gamma_t_bruteforce_examples():
    assert gamma_t_bruteforce(cycle(4)).size == 2
    assert gamma_t_bruteforce(path(6)).size == 4
    assert gamma_t_bruteforce(complete(2)).size == 2
    with pytest.raises(ValueError):
        gamma_t_bruteforce(Graph.from_edges(1, []))
    with pytest.raises(CapabilityError):
        gamma_t_bruteforce(complete(17))


def test_gamma_bruteforce_examples():
    assert gamma_bruteforce(star(5)).size == 1
    assert gamma_bruteforce(cycle(4)).size == 2
    assert gamma_bruteforce(path(6)).size == 2


def test_gamma_results_are_witnessed():
    rng = random.Random(42)
    for _ in range(30):
        G = random_graph(rng, rng.randint(1, 7))
        ds = gamma_bruteforce(G)
        assert is_dominating_set(G, ds.vertices) and ds.size == len(ds.vertices)
        if not G.has_isolated_vertex():
            tds = gamma_t_bruteforce(G)
            assert is_total_dominating_set(G, tds.vertices)


def test_domination_number_sandwich():
    rng = random.Random(43)
    for _ in range(60):
        G = random_graph(rng, rng.randint(2, 8))
        if G.has_isolated_vertex():
            continue
        g = gamma_bruteforce(G).size
        gt = gamma_t_bruteforce(G).size
        assert g <= gt <= 2 * g


def test_approx_examples():
    assert approx_dominating_set(star(3)).size == 2
    assert approx_dominating_set(complete(4)).size == 2
    edgeless = Graph.from_edges(3, [])
    result = approx_dominating_set(edgeless)
    assert result.vertices == frozenset({0, 1, 2}) and result.size == 3


def test_approx_rejects_non_td_graphs():
    with pytest.raises(ValueError):
        approx_dominating_set(cycle(4))


def test_approx_reports_when_reduction_fails():
    # C4 + K1 is total domishold (isolated vertex) but C4 itself is not
    G = Graph.from_edges(5, cycle(4).edges())
    with pytest.raises(ValueError, match="does not apply"):
        approx_dominating_set(G)


def test_approx_bound_against_oracle():
    rng = random.Random(44)
    checked = 0
    for _ in range(80):
        G = random_graph(rng, rng.randint(1, 8))
        report = recognize_td(G)
        if not report.verdict:
            continue
        isolated = G.isolated_vertices()
        if 0 < len(isolated) < G.n:
            rest = sorted(set(range(G.n)) - isolated)
            from domishold import induced_subgraph

            if not recognize_td(induced_subgraph(G, rest)).verdict:
                continue
        result = approx_dominating_set(G)
        assert is_dominating_set(G, result.vertices)
        assert result.size <= 2 * gamma_bruteforce(G).size
        checked += 1
    assert checked > 20


def test_approx_with_isolated_vertices_present():
    # star plus an isolated vertex: the isolated vertex joins the answer
    G = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
    result = approx_dominating_set(G)
    assert 4 in result.vertices
    assert is_dominating_set(G, result.vertices)
    assert result.size <= 2 * gamma_bruteforce(G).size
