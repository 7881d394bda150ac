from itertools import combinations

from domishold import (
    catalog_witness,
    complete,
    cycle,
    disjoint_union,
    find_induced,
    forbidden_catalog,
    forbidden_graph,
    neighborhood_dnf,
    path,
    split_partition,
    verify_summability_witness,
)
from domishold.catalog import CHORDAL_MEMBERS, SPLIT_MEMBERS


def is_isomorphic(G, H):
    return G.n == H.n and find_induced(G, H) is not None


def test_named_members():
    assert is_isomorphic(forbidden_graph(1), cycle(4))
    assert is_isomorphic(forbidden_graph(2), cycle(5))
    assert is_isomorphic(forbidden_graph(3), cycle(6))
    assert is_isomorphic(forbidden_graph(4), path(6))
    assert is_isomorphic(forbidden_graph(5), disjoint_union(path(3), path(3)))
    assert is_isomorphic(forbidden_graph(6), disjoint_union(path(3), complete(3)))
    assert is_isomorphic(forbidden_graph(7), disjoint_union(complete(3), complete(3)))


def test_catalog_is_pairwise_nonisomorphic():
    graphs = [e.graph for e in forbidden_catalog()]
    for i, j in combinations(range(13), 2):
        assert not is_isomorphic(graphs[i], graphs[j]), (i + 1, j + 1)


def test_base_edges_on_six_vertex_members():
    # labels: u=0, v=1, a=2, b=3, c=4, d=5
    for entry in forbidden_catalog()[4:]:
        G = entry.graph
        for u, w in [(0, 2), (0, 3), (1, 4), (1, 5)]:
            assert w in G.adj[u], entry.name


def test_f13_is_split_with_clique_abcd():
    assert split_partition(forbidden_graph(13)) == (
        frozenset({2, 3, 4, 5}),
        frozenset({0, 1}),
    )


def test_designated_pair_degrees_and_neighborhoods():
    for entry in forbidden_catalog():
        u, v = entry.black_pair
        a, b, c, d = entry.quad
        G = entry.graph
        assert len(G.adj[u]) == 2 and len(G.adj[v]) == 2, entry.name
        assert G.adj[u] == frozenset({a, b}), entry.name
        assert G.adj[v] == frozenset({c, d}), entry.name
        if entry.index >= 3:
            assert not G.adj[u] & G.adj[v], entry.name


def test_constructed_witnesses_are_valid():
    for entry in forbidden_catalog():
        w = catalog_witness(entry)
        assert verify_summability_witness(neighborhood_dnf(entry.graph), w), entry.name


def test_split_and_chordal_members():
    assert tuple(e.index for e in SPLIT_MEMBERS) == (13,)
    assert tuple(e.index for e in CHORDAL_MEMBERS) == tuple(range(4, 14))
