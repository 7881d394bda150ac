import random
from itertools import combinations

import pytest

from domishold import (
    Graph,
    Hypergraph,
    TdStructure,
    add_pendant,
    all_graphs,
    check_equivalence_chain,
    complete,
    cycle,
    disjoint_union,
    embed_into_td,
    find_induced,
    forbidden_graph,
    hypergraph_threshold_via_graph,
    induced_subgraph,
    is_induced_embedding,
    is_total_dominating_set,
    make_positive,
    neighborhood_dnf,
    path,
    random_graph,
    random_threshold,
    recognize_htd,
    recognize_td,
    reduced_neighborhood_hypergraph,
    star,
    structure_add_universal,
    structure_union_unique_min,
    unique_minimal_tds,
    verify_td_structure,
)


def impl(f):
    return sorted(tuple(sorted(t)) for t in f.implicants)


def test_neighborhood_dnf_examples():
    assert impl(neighborhood_dnf(cycle(4))) == [(0, 2), (1, 3)]
    assert impl(neighborhood_dnf(complete(3))) == [(0, 1), (0, 2), (1, 2)]
    assert impl(neighborhood_dnf(complete(1))) == [()]


def test_recognize_td_complete_graphs():
    for n in range(2, 7):
        report = recognize_td(complete(n))
        assert report.verdict is True
        assert verify_td_structure(complete(n), report.structure)
        # the all-ones structure with threshold 2 also verifies
        assert verify_td_structure(complete(n), TdStructure((1,) * n, 2))


def test_recognize_td_c4_and_pendant():
    report = recognize_td(cycle(4))
    assert report.verdict is False and report.witness is not None
    pendant = Graph.from_edges(5, cycle(4).edges() + [(0, 4)])
    report2 = recognize_td(pendant)
    assert report2.verdict is True
    assert verify_td_structure(pendant, report2.structure)


def test_recognize_td_2p3_and_isolated():
    assert recognize_td(disjoint_union(path(3), path(3))).verdict is False
    lonely = Graph.from_edges(4, [(0, 1), (1, 2)])
    report = recognize_td(lonely)
    assert report.verdict is True and report.note == "isolated-vertex"
    assert report.structure == TdStructure((1, 1, 1, 1), 5)
    assert verify_td_structure(lonely, report.structure)


def test_verify_td_structure_examples():
    assert verify_td_structure(path(3), TdStructure((1, 2, 1), 3))
    assert verify_td_structure(complete(4), TdStructure((1, 1, 1, 1), 2))
    assert not verify_td_structure(complete(4), TdStructure((1, 1, 1, 1), 3))
    # beyond the 2^16 subsets an exhaustive check could afford
    assert verify_td_structure(complete(17), TdStructure((1,) * 17, 2))
    assert not verify_td_structure(complete(17), TdStructure((1,) * 17, 3))


def test_recognize_htd_examples():
    assert recognize_htd(path(4)).verdict is True
    for seed in range(10):
        assert recognize_htd(random_threshold(seed, 8)).verdict is True
    report = recognize_htd(forbidden_graph(13))
    assert report.verdict is False and report.note == "split"
    index, image = report.witness
    assert index == 13 and image == (0, 1, 2, 3, 4, 5)  # the identity embedding
    assert is_induced_embedding(forbidden_graph(13), forbidden_graph(13), image)


def test_recognize_htd_names_first_catalog_hit():
    two_p3 = disjoint_union(path(3), path(3))
    report = recognize_htd(two_p3)
    assert report.verdict is False and report.witness[0] == 5
    assert report.note == "chordal"
    report = recognize_htd(cycle(5))
    assert report.witness[0] == 2 and report.note == "general"


def test_make_positive_formula_on_zero_weight_structure():
    # total dominating sets of P4 are exactly the supersets of {1, 2}
    s = make_positive(path(4), TdStructure((0, 1, 1, 0), 2))
    assert s == TdStructure((1, 9, 9, 1), 16)
    assert verify_td_structure(path(4), s)
    positive = make_positive(path(3), TdStructure((1, 2, 1), 3))
    assert verify_td_structure(path(3), positive)


def test_make_positive_rejects_non_verifying_structures():
    with pytest.raises(ValueError):
        make_positive(path(3), TdStructure((0, 3, 0), 3))
    # weight 2 on one endpoint marks the non-dominating singleton {1} as
    # reaching the threshold, so this input fails the precondition
    with pytest.raises(ValueError):
        make_positive(complete(2), TdStructure((0, 2), 2))


def test_structure_add_universal_examples():
    G, s = structure_add_universal(complete(1), TdStructure((1,), 2))
    assert G == complete(2) and s == TdStructure((1, 1), 2)
    G, s = structure_add_universal(path(3), TdStructure((1, 2, 1), 3))
    assert s == TdStructure((1, 2, 1, 2), 3)
    assert verify_td_structure(G, s)
    G, s = structure_add_universal(complete(2), TdStructure((1, 1), 2))
    assert G == complete(3) and s == TdStructure((1, 1, 1), 2)


def test_structure_add_universal_random_chain():
    rng = random.Random(31)
    for _ in range(25):
        G = random_graph(rng, rng.randint(1, 7))
        report = recognize_td(G)
        if not report.verdict:
            continue
        G2, s2 = structure_add_universal(G, report.structure)
        assert verify_td_structure(G2, s2)


def test_structure_union_unique_min_examples():
    G, s = structure_union_unique_min(path(3), TdStructure((1, 2, 1), 3), complete(2))
    assert s == TdStructure((1, 2, 1, 4, 4), 11)
    assert verify_td_structure(G, s)
    with pytest.raises(ValueError):
        structure_union_unique_min(path(3), TdStructure((1, 2, 1), 3), path(3))


def test_unique_minimal_tds_examples():
    assert unique_minimal_tds(complete(2)) == frozenset({0, 1})
    assert unique_minimal_tds(path(3)) is None
    rng = random.Random(32)
    for _ in range(20):
        base = random_graph(rng, rng.randint(2, 5))
        if base.has_isolated_vertex():
            continue
        G = add_pendant(base)
        assert unique_minimal_tds(G) == frozenset(range(base.n))
    # no total dominating sets at all
    assert unique_minimal_tds(Graph.from_edges(2, [])) is None


def unique_minimal_tds_bruteforce(H):
    """Intersect every total dominating set, found by a 2^n subset sweep."""
    masks = [sum(1 << u for u in N) for N in H.adj]
    common = (1 << H.n) - 1
    found = False
    for sub in range(1 << H.n):
        if all(m & sub for m in masks):
            common &= sub
            found = True
    if not found or not all(m & common for m in masks):
        return None
    return frozenset(i for i in range(H.n) if common >> i & 1)


def test_unique_minimal_tds_agrees_with_subset_sweep():
    graphs = [G for n in range(6) for G in all_graphs(n)]
    rng = random.Random(45)
    for _ in range(30):
        graphs.append(random_graph(rng, rng.randint(6, 12)))
        base = random_graph(rng, rng.randint(2, 6))
        graphs.append(add_pendant(base))
        graphs.append(disjoint_union(add_pendant(base), random_graph(rng, rng.randint(0, 4))))
    for G in graphs:
        assert unique_minimal_tds(G) == unique_minimal_tds_bruteforce(G), G.edges()


def test_embed_into_td_c4():
    G2, s, image = embed_into_td(cycle(4))
    assert G2.n == 10
    assert is_induced_embedding(G2, cycle(4), image)
    assert verify_td_structure(G2, s)
    # helper vertex 4 is only dominated by its private neighbor, so the
    # weighted core has 6 vertices
    assert sum(s.weights) == 6 and s.t == 6


def test_embed_into_td_k1_and_general():
    G2, s, image = embed_into_td(complete(1))
    assert G2.n == 4 and s.t == 2
    assert find_induced(G2, path(4)) is not None
    rng = random.Random(33)
    for _ in range(20):
        G = random_graph(rng, rng.randint(0, 6))
        G2, s, image = embed_into_td(G)
        assert not G2.has_isolated_vertex()
        assert is_induced_embedding(G2, G, image)
        assert verify_td_structure(G2, s)
        assert recognize_td(G2).verdict is True


def test_equivalence_chain_examples():
    assert check_equivalence_chain(cycle(4)).legs == (False,) * 2
    assert check_equivalence_chain(path(4)).legs == (True,) * 2
    assert check_equivalence_chain(complete(3)).legs == (True,) * 2
    assert check_equivalence_chain(star(3)).unanimous()


def test_hypergraph_threshold_via_graph_examples():
    assert hypergraph_threshold_via_graph(Hypergraph.make(3, [[0, 1], [0, 2]]))
    assert not hypergraph_threshold_via_graph(reduced_neighborhood_hypergraph(cycle(4)))
    assert hypergraph_threshold_via_graph(Hypergraph.make(1, [[]]))


def test_greedy_structures_stay_sound_on_census_sample():
    rng = random.Random(34)
    for _ in range(40):
        G = random_graph(rng, rng.randint(1, 7))
        report = recognize_td(G)
        if report.verdict:
            assert verify_td_structure(G, report.structure)
        else:
            # negative verdicts must carry evidence when asked for
            full = recognize_td(G)
            assert full.witness is not None or full.note == "lp-infeasible"


def test_recognize_td_on_unique_minimal_pendant_construction():
    G = add_pendant(path(3))
    report = recognize_td(G)
    assert report.verdict is True
    assert verify_td_structure(G, report.structure)
    S = frozenset({0, 1, 2})
    assert is_total_dominating_set(G, S)
    assert sum(report.structure.weights[v] for v in S) >= report.structure.t


def test_hereditary_bridge_sampled_at_n7_n8(td_table):
    from conftest import htd_bruteforce

    rng = random.Random(35)
    memo = {}
    for _ in range(30):
        G = random_graph(rng, rng.choice([7, 8]))
        assert recognize_htd(G).verdict == htd_bruteforce(G, td_table, memo)


def test_two_summability_bridge_on_small_graphs():
    from oracles import is_k_summable

    rng = random.Random(36)
    for _ in range(12):
        G = random_graph(rng, 6)
        some_summable = any(
            is_k_summable(neighborhood_dnf(induced_subgraph(G, S)), 2) is not None
            for size in range(G.n + 1)
            for S in combinations(range(G.n), size)
        )
        assert recognize_htd(G).verdict == (not some_summable)


def test_htd_graphs_have_dually_sperner_neighborhoods():
    from domishold import is_dually_sperner

    rng = random.Random(37)
    seen = 0
    for _ in range(200):
        G = random_graph(rng, rng.randint(1, 8))
        if recognize_htd(G).verdict:
            seen += 1
            assert is_dually_sperner(reduced_neighborhood_hypergraph(G))
    assert seen > 20


def test_verdicts_are_isomorphism_invariant():
    rng = random.Random(38)
    for _ in range(40):
        n = rng.randint(1, 8)
        G = random_graph(rng, n)
        perm = list(range(n))
        rng.shuffle(perm)
        H = Graph.from_edges(n, [(perm[u], perm[v]) for u, v in G.edges()])
        assert recognize_td(G).verdict == recognize_td(H).verdict
        assert recognize_htd(G).verdict == recognize_htd(H).verdict


def test_recognize_td_scales_to_moderate_graphs():
    rng = random.Random(39)
    for _ in range(15):
        G = random_graph(rng, 12)
        report = recognize_td(G)
        assert report.verdict is not None
        if report.verdict:
            assert verify_td_structure(G, report.structure)
