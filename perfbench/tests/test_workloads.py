"""The benchmark's inputs are reproducible from the seed, and every answer
known by construction agrees with a brute-force oracle on small sizes.

    python3 -m pytest perfbench/tests -q
"""

import random
from itertools import combinations

import pytest

import oracles
import workloads
from workloads import Rounds

from domishold import all_graphs, recognize_td


def _inputs(workload, seed, tmp_path, rounds=2):
    out = []
    for r in range(rounds):
        for op in Rounds(workload, seed, tmp_path).round(r):
            text = open(op.input_path).read() if op.input_path else None
            out.append((op.kind, op.n, op.expected, text, op.edges))
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    a = _inputs(workload, 7, tmp_path / "a")
    b = _inputs(workload, 7, tmp_path / "b")
    assert a == b
    assert a != _inputs(workload, 8, tmp_path / "c")


def test_round_composition(tmp_path):
    td = Rounds("td-mix", 1, tmp_path).round(0)
    assert [op.expected for op in td if op.kind != "gnp"] == [True, True, False, False] * 3
    assert all(op.n <= 10 for op in td if op.kind == "gnp")
    htd = Rounds("htd-scan", 1, tmp_path).round(0)
    assert [op.expected for op in htd] == [True, True, False]


@pytest.mark.parametrize("seed", range(6))
def test_threshold_hypergraph_matches_its_weights(seed):
    rng = random.Random(seed)
    k = 4 + seed % 3
    w, t, edges = workloads.weighted_threshold_hypergraph(rng, k, 1, 1 << k)
    f = oracles.hypergraph_function(edges)
    for mask in range(1 << k):
        weight = sum(w[i] for i in range(k) if mask >> i & 1)
        assert f(mask) == (weight >= t)
    assert oracles.is_threshold_hypergraph(k, edges)
    gedges, (falses, trues) = workloads.with_gadget(k, edges)
    assert oracles.two_summable(k + 4, oracles.hypergraph_function(gedges))
    g = oracles.hypergraph_function(gedges)
    assert not any(g(sum(1 << v for v in p)) for p in falses)
    assert all(g(sum(1 << v for v in p)) for p in trues)


@pytest.mark.parametrize("seed", range(6))
def test_split_incidence_answers(seed):
    rng = random.Random(seed)
    k = 3
    w, t, edges = workloads.weighted_threshold_hypergraph(rng, k, 1, 8 - k)
    n, g = workloads.split_incidence_edges(k, edges)
    assert oracles.is_td(n, g)
    w, t, edges = workloads.weighted_threshold_hypergraph(rng, 2, 1, 1)
    n, g = workloads.split_incidence_edges(6, workloads.with_gadget(2, edges)[0])
    assert oracles.is_td_no_witness(n, g)


@pytest.mark.parametrize("seed", range(4))
def test_htd_answers(seed):
    rng = random.Random(seed)
    assert oracles.is_htd(7, workloads.threshold_edges(rng, 7))
    assert oracles.is_htd(7, workloads.threshold_plus_matching(rng, 7, 2))
    edges, image = workloads.split_with_f13(rng, 8)
    assert not oracles.is_htd(8, edges)
    planted = {image[i] for i in range(6)}
    sub = [(u, v) for u, v in edges if u in planted and v in planted]
    assert len(sub) == 4 + 6  # ua, ub, vc, vd and the clique on a, b, c, d


def test_graph_no_isolated_vertex():
    rng = random.Random(3)
    for n in (7, 8, 9):
        edges = workloads.random_graph_no_isolated(rng, n)
        assert {v for e in edges for v in e} == set(range(n))


def test_census_masks_follow_all_graphs_order():
    n = workloads.CENSUS_ORDER
    graphs = all_graphs(n)
    for mask in range(200):
        assert sorted(next(graphs).edges()) == workloads.census_edges(mask)
    assert len(set(workloads.census_blocks(1))) == (1 << (n * (n - 1) // 2)) // workloads.CENSUS_BLOCK


def test_td_oracle_agrees_with_recognizer_up_to_order_5():
    for n in range(6):
        for G in all_graphs(n):
            assert oracles.is_td(n, G.edges()) == recognize_td(G, want_witness=False).verdict


def test_exact_oracle_refuses_large_n():
    with pytest.raises(ValueError):
        oracles.is_td(9, list(combinations(range(9), 2)))
