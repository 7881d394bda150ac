import random
from itertools import combinations, permutations

import pytest

from domishold import (
    Graph,
    add_pendant,
    add_universal,
    all_graphs,
    complete,
    cycle,
    disjoint_union,
    find_induced,
    forbidden_catalog,
    forbidden_graph,
    generate,
    induced_subgraph,
    is_chordal,
    is_dominating_set,
    is_induced_embedding,
    is_threshold_graph,
    is_total_dominating_set,
    path,
    random_graph,
    random_threshold,
    split_partition,
    star,
    threshold_from_sequence,
    unique_minimal_tds,
)

from conftest import brute_has_induced
from oracles import CapabilityError, is_12_polar


def test_graph_invariants_enforced():
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 0)])
    with pytest.raises(ValueError):
        Graph.from_edges(2, [(0, 2)])
    with pytest.raises(ValueError):
        Graph((frozenset({1}), frozenset()))  # asymmetric


def test_total_domination_examples():
    assert is_total_dominating_set(complete(4), {0, 1})
    assert not is_total_dominating_set(path(3), set())
    assert is_total_dominating_set(path(3), {0, 1})
    assert not is_total_dominating_set(path(3), {0, 2})
    with pytest.raises(ValueError):
        is_total_dominating_set(path(3), {5})


def test_isolated_vertex_blocks_every_total_dominating_set():
    G = Graph.from_edges(3, [(0, 1)])
    for size in range(4):
        for S in combinations(range(3), size):
            assert not is_total_dominating_set(G, S)


def test_domination_examples():
    assert is_dominating_set(star(3), {0})
    assert is_dominating_set(path(3), {1})
    assert not is_dominating_set(cycle(4), {0})


def test_total_domination_implies_domination():
    rng = random.Random(1)
    for _ in range(50):
        G = random_graph(rng, rng.randint(1, 7))
        for size in range(G.n + 1):
            for S in combinations(range(G.n), size):
                if is_total_dominating_set(G, S):
                    assert is_dominating_set(G, S)


def test_vertex_set_is_total_dominating_without_isolated_vertices():
    rng = random.Random(2)
    for _ in range(100):
        G = random_graph(rng, rng.randint(1, 8))
        if not G.has_isolated_vertex():
            assert is_total_dominating_set(G, range(G.n))


def test_induced_subgraph_examples():
    p3 = induced_subgraph(cycle(4), {0, 1, 2})
    assert find_induced(p3, path(3)) is not None and p3.n == 3
    G = cycle(5)
    assert induced_subgraph(G, range(5)) == G
    # the forbidden catalog labels u,v,a,b,c,d as 0..5
    f13 = forbidden_graph(13)
    restricted = induced_subgraph(f13, {0, 1, 2, 4})
    assert find_induced(restricted, path(4)) is not None


def test_induced_subgraph_composition():
    rng = random.Random(3)
    for _ in range(40):
        G = random_graph(rng, 8)
        S = frozenset(rng.sample(range(8), 5))
        T_rel = frozenset(rng.sample(range(5), 3))
        both = induced_subgraph(induced_subgraph(G, S), T_rel)
        order = sorted(S)
        direct = induced_subgraph(G, {order[i] for i in T_rel})
        assert both == direct


def test_find_induced_examples():
    assert find_induced(cycle(4), path(3)) is not None
    two_k2 = disjoint_union(complete(2), complete(2))
    assert find_induced(complete(4), two_k2) is None
    assert find_induced(cycle(6), cycle(4)) is None
    # oracle for the C6 case: no 4-subset induces C4
    assert not brute_has_induced(cycle(6), cycle(4))


def brute_first_induced(G, H):
    """Independent oracle: the first induced embedding among all injections
    in lexicographic order, or None."""
    pairs = [(i, j, j in H.adj[i]) for i in range(H.n) for j in range(i)]
    return next(
        (
            image
            for image in permutations(range(G.n), H.n)
            if all((image[j] in G.adj[image[i]]) == edge for i, j, edge in pairs)
        ),
        None,
    )


def test_find_induced_is_lexicographically_first_and_valid():
    rng = random.Random(4)
    small = [path(3), cycle(4), complete(3), path(4)]
    catalog = [entry.graph for entry in forbidden_catalog()]
    for _ in range(60):
        G = random_graph(rng, rng.randint(3, 8))
        for H in small + catalog:
            image = find_induced(G, H)
            assert image == brute_first_induced(G, H)
            if image is not None:
                assert is_induced_embedding(G, H, image)
        for H in small:
            assert (find_induced(G, H) is not None) == brute_has_induced(G, H)


def test_generate_families():
    assert generate("complete", 4) == complete(4)
    assert find_induced(forbidden_graph(1), cycle(4)) is not None
    assert find_induced(forbidden_graph(4), path(6)) is not None
    two_p3 = disjoint_union(path(3), path(3))
    assert find_induced(forbidden_graph(5), two_p3) is not None
    with pytest.raises(ValueError):
        generate("mystery", 1)


def test_add_pendant_gives_unique_minimal_total_dominating_set():
    G = add_pendant(path(3))
    assert G.n == 6
    assert unique_minimal_tds(G) == frozenset({0, 1, 2})


def test_add_universal_properties():
    rng = random.Random(5)
    for _ in range(30):
        G = random_graph(rng, rng.randint(1, 6))
        G2 = add_universal(G)
        assert is_dominating_set(G2, {G.n})
        assert find_induced(G2, G) is not None


def test_threshold_graph_examples():
    for n in range(1, 7):
        assert is_threshold_graph(complete(n))
    assert not is_threshold_graph(path(4))
    for k in range(1, 6):
        assert is_threshold_graph(star(k))
    assert threshold_from_sequence("i u i u").n == 4
    assert is_threshold_graph(threshold_from_sequence("i u i u"))


def test_threshold_graph_agrees_with_forbidden_patterns_up_to_n6():
    patterns = [disjoint_union(complete(2), complete(2)), cycle(4), path(4)]
    for n in range(7):
        for G in all_graphs(n):
            free = all(find_induced(G, H) is None for H in patterns)
            assert is_threshold_graph(G) == free, (n, G.edges())


def test_random_threshold_generator_output_is_threshold():
    for seed in range(25):
        G = random_threshold(seed, 9)
        assert G.n == 9
        assert is_threshold_graph(G)


def test_random_threshold_order_zero_and_negative():
    assert random_threshold(3, 0) == Graph(())
    assert random_threshold(3, 1) == Graph((frozenset(),))
    for n in (-1, -5):
        with pytest.raises(ValueError):
            random_threshold(3, n)


def test_chordal_examples():
    assert is_chordal(path(7))
    assert is_chordal(star(5))
    assert not is_chordal(cycle(4))
    assert is_chordal(forbidden_graph(13))


def test_chordal_agrees_with_induced_cycle_search_up_to_n6():
    holes = [cycle(4), cycle(5), cycle(6)]
    for n in range(7):
        for G in all_graphs(n):
            free = all(find_induced(G, H) is None for H in holes)
            assert is_chordal(G) == free, (n, G.edges())


def test_chordal_agrees_with_induced_cycle_search_on_random_graphs():
    rng = random.Random(48)
    for _ in range(150):
        G = random_graph(rng, rng.randint(4, 10))
        free = all(find_induced(G, cycle(k)) is None for k in range(4, G.n + 1))
        assert is_chordal(G) == free, G.edges()


def test_12_polar_examples():
    assert is_12_polar(complete(5))
    assert is_12_polar(star(4))
    assert not is_12_polar(disjoint_union(path(3), path(3)))
    assert not is_12_polar(cycle(6))
    with pytest.raises(CapabilityError):
        is_12_polar(complete(25))


def test_12_polar_agrees_with_exhaustive_partition_search():
    def brute(G):
        for size in range(G.n + 1):
            for K in combinations(range(G.n), size):
                Kset = set(K)
                if any(u not in G.adj[v] for u, v in combinations(K, 2)):
                    continue
                L = set(range(G.n)) - Kset
                if all(len(G.adj[v] & L) <= 1 for v in L):
                    return True
        return False

    for n in range(6):
        for G in all_graphs(n):
            assert is_12_polar(G) == brute(G), (n, G.edges())
    rng = random.Random(7)
    for _ in range(60):
        G = random_graph(rng, 6)
        assert is_12_polar(G) == brute(G)


def test_split_partition_examples():
    assert split_partition(complete(3)) == (frozenset({0, 1, 2}), frozenset())
    assert split_partition(cycle(4)) is None
    assert split_partition(forbidden_graph(13)) == (
        frozenset({2, 3, 4, 5}),
        frozenset({0, 1}),
    )


def test_split_partition_valid_and_maximal():
    rng = random.Random(8)
    seen_split = 0
    for n in range(6):
        for G in all_graphs(n):
            result = split_partition(G)
            brute = [
                frozenset(K)
                for size in range(G.n + 1)
                for K in combinations(range(G.n), size)
                if not any(u not in G.adj[v] for u, v in combinations(K, 2))
                and all(
                    not (G.adj[v] & (frozenset(range(G.n)) - frozenset(K)))
                    for v in frozenset(range(G.n)) - frozenset(K)
                )
            ]
            if result is None:
                assert not brute, (n, G.edges())
                continue
            seen_split += 1
            K, I = result
            assert K | I == frozenset(range(G.n)) and not K & I
            assert all(u in G.adj[v] for u, v in combinations(sorted(K), 2))
            assert all(not (G.adj[v] & I) for v in I)
            largest = max(len(B) for B in brute)
            assert K == next(B for B in brute if len(B) == largest), (n, G.edges())
    assert seen_split > 100
