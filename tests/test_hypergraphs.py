import random

import pytest

from domishold import (
    Graph,
    Hypergraph,
    add_universal_vertex,
    complete,
    cycle,
    dnf_of_hypergraph,
    dually_sperner_violation,
    find_induced,
    independent_neighborhood_hypergraph,
    is_dually_sperner,
    is_threshold,
    neighborhood_split_graph,
    path,
    random_graph,
    reduced_neighborhood_hypergraph,
    remove_universal_vertex,
    split_incidence_graph,
    split_partition,
    sperner_reduce,
)
from domishold.corpus import random_hypergraph
from domishold.hypergraphs import _contains_member, _elements, _index, _minimal_masks

from conftest import brute_minimal_transversals
from oracles import CapabilityError, is_transversal_family, minimal_sets, minimal_transversals


def H(n, *edges):
    return Hypergraph.make(n, edges)


def edgesets(hg):
    return sorted(tuple(sorted(e)) for e in hg.edges)


def test_multiset_semantics_and_canonical_equality():
    a = H(3, [0, 1], [0, 1], [2])
    b = H(3, [2], [1, 0], [0, 1])
    assert a == b
    assert len(a.edges) == 3
    with pytest.raises(ValueError):
        H(2, [0, 5])


def test_sperner_reduce_examples():
    assert edgesets(sperner_reduce(H(3, [0, 1], [0, 1, 2]))) == [(0, 1)]
    assert edgesets(sperner_reduce(H(1, [0], [0]))) == [(0,)]
    got = sperner_reduce(H(3, [0, 1], [1, 2], [0, 1, 2], [1, 2]))
    assert edgesets(got) == [(0, 1), (1, 2)]


def test_sperner_reduce_idempotent_and_containment_equivalent():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 7)
        hg = random_hypergraph(rng, n, 6, allow_empty_edge=True)
        red = sperner_reduce(hg)
        assert sperner_reduce(red) == red
        for bits in range(1 << n):
            X = {i for i in range(n) if bits >> i & 1}
            assert any(e <= X for e in hg.edges) == any(e <= X for e in red.edges)


def test_containment_index_and_minimiser_against_plain_scans():
    """The index every containment query of the library goes through, and
    the minimiser built on it, against a scan of the family and the
    frozenset minimisation of ``oracles.py``."""
    rng = random.Random(14)
    families = [[], [0], [0, 0, 5], [3, 3]]  # empty family, empty set, duplicates
    for _ in range(150):
        n = rng.randint(1, 10)
        family = [rng.getrandbits(n) for _ in range(rng.randint(1, 12))]
        families.append(family + rng.sample(family, rng.randint(0, len(family))))
    for family in families:
        n = max(family, default=0).bit_length()
        holders, full = _index(family), (1 << len(family)) - 1
        for p in range(1 << n):
            assert _contains_member(holders, full, p) == any(s & p == s for s in family), (family, p)
        kept = _minimal_masks(family)
        reference = minimal_sets(frozenset(_elements(s)) for s in family)
        assert sorted(kept, key=_elements) == [sum(1 << v for v in s) for s in reference], family
        assert kept == sorted(kept)


def test_dually_sperner_examples():
    assert is_dually_sperner(H(3, [0, 1], [0, 2], [1, 2]))
    bad = H(4, [0, 1], [2, 3])
    pair = dually_sperner_violation(bad)
    assert pair is not None and {frozenset(p) for p in pair} == {
        frozenset({0, 1}),
        frozenset({2, 3}),
    }
    assert is_dually_sperner(H(5, [0, 1, 2]))
    assert is_dually_sperner(H(4, [0, 1], [0, 1]))  # duplicates differ in nothing


def test_minimal_transversals_examples():
    assert edgesets(H(3, *minimal_transversals(H(3, [0, 1], [0, 2])))) == [(0,), (1, 2)]
    assert minimal_transversals(H(1, [0])) == (frozenset({0}),)
    assert minimal_transversals(H(2)) == (frozenset(),)
    assert minimal_transversals(H(2, [])) == ()  # the empty edge kills everything


def test_minimal_transversals_against_bruteforce():
    rng = random.Random(12)
    for _ in range(80):
        n = rng.randint(1, 7)
        hg = random_hypergraph(rng, n, 5)
        got = list(minimal_transversals(hg))
        assert got == brute_minimal_transversals(n, hg.edges)
        assert is_transversal_family(hg, got)


def test_double_dualization_is_sperner_reduction():
    rng = random.Random(13)
    for _ in range(60):
        n = rng.randint(1, 7)
        hg = sperner_reduce(random_hypergraph(rng, n, 5))
        double = minimal_transversals(Hypergraph(n, minimal_transversals(hg)))
        assert double == hg.edges


def test_transversal_cap_raises():
    # n/2 disjoint pairs: transversal count 2^(n/2) exceeds a small cap
    hg = Hypergraph.make(12, [[2 * i, 2 * i + 1] for i in range(6)])
    with pytest.raises(CapabilityError):
        minimal_transversals(hg, cap=10)


def test_split_incidence_graph_examples():
    G, K, I = split_incidence_graph(H(2, [0, 1]))
    assert (G.n, len(G.edges())) == (3, 3)  # K3
    G, K, I = split_incidence_graph(H(1, []))
    assert (G.n, len(G.edges())) == (2, 0)
    G, K, I = split_incidence_graph(H(3, [0, 1], [0, 2]))
    assert K == frozenset({0, 1, 2}) and I == frozenset({3, 4})
    assert sorted(len(G.adj[v]) for v in I) == [2, 2]
    assert split_partition(G) is not None


def test_split_incidence_inverts_through_neighborhoods():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(1, 6)
        hg = random_hypergraph(rng, n, 5, allow_empty_edge=True)
        G, K, I = split_incidence_graph(hg)
        back = independent_neighborhood_hypergraph(G, K, I)
        assert back == hg


def test_independent_neighborhood_examples():
    G, K, I = split_incidence_graph(H(1, [0], [0], [0]))  # star K1,3 shape
    back = independent_neighborhood_hypergraph(G, K, I)
    assert edgesets(back) == [(0,), (0,), (0,)]
    assert independent_neighborhood_hypergraph(complete(3), {0, 1, 2}, set()).edges == ()
    with pytest.raises(ValueError):
        independent_neighborhood_hypergraph(cycle(4), {0, 1}, {2, 3})


def test_reduced_neighborhood_examples():
    assert edgesets(reduced_neighborhood_hypergraph(cycle(4))) == [(0, 2), (1, 3)]
    rn = reduced_neighborhood_hypergraph(complete(4))
    assert len(rn.edges) == 4 and all(len(e) == 3 for e in rn.edges)
    withiso = reduced_neighborhood_hypergraph(Graph.from_edges(3, [(0, 1)]))
    assert withiso.edges == (frozenset(),)


def test_neighborhood_split_graph_examples():
    # K2: both neighborhoods are singletons; the result is a path on 4 vertices
    sg = neighborhood_split_graph(complete(2))
    assert sg.n == 4 and find_induced(sg, path(4)) is not None
    sg1 = neighborhood_split_graph(complete(1))
    assert (sg1.n, len(sg1.edges())) == (2, 0)
    sg4 = neighborhood_split_graph(cycle(4))
    assert sg4.n == 6
    inde = [v for v in range(6) if len(sg4.adj[v]) == 2]
    assert sorted(sorted(sg4.adj[v]) for v in inde) == [[0, 2], [1, 3]]


def reference_split_graph(n, sets):
    """The split graph of ``split_incidence_graph``'s contract, built from
    an edge list: 0..n-1 a clique, vertex n + j joined to the members of
    sets[j]."""
    edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges += [(v, n + j) for j, e in enumerate(sets) for v in sorted(e)]
    return Graph.from_edges(n + len(sets), edges)


def test_split_graph_builder_matches_edge_list_reference(census6):
    rng = random.Random(16)
    graphs = [*census6, *(random_graph(rng, rng.randint(1, 12)) for _ in range(300))]
    expected = {}  # the split graph depends on the reduced neighborhoods only
    for G in graphs:
        key = G.n, minimal_sets(G.adj)  # canonical order
        if key not in expected:
            expected[key] = reference_split_graph(*key)
            multiset = Hypergraph.make(G.n, G.adj)
            assert reduced_neighborhood_hypergraph(G) == sperner_reduce(multiset) == Hypergraph(*key)
        assert neighborhood_split_graph(G) == expected[key], G
    # an isolated vertex makes the empty set the one reduced neighborhood:
    # a clique on the original vertices plus one isolated vertex
    sg = neighborhood_split_graph(Graph.from_edges(4, [(0, 1), (1, 2)]))
    assert sg == Graph.from_edges(5, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    assert neighborhood_split_graph(Graph(())) == Graph(())
    for _ in range(200):
        n = rng.randint(0, 7)
        hg = random_hypergraph(rng, n, 6, allow_empty_edge=True)
        hg = Hypergraph(n, hg.edges + hg.edges[: rng.randint(0, 2)])  # duplicates
        m = len(hg.edges)
        want = (reference_split_graph(n, hg.edges), frozenset(range(n)), frozenset(range(n, n + m)))
        assert split_incidence_graph(hg) == want, hg


def test_universal_hyper_vertex_examples():
    grown = add_universal_vertex(H(4, [0, 1], [0, 2]))
    assert edgesets(grown) == [(0, 1, 4), (0, 2, 4)]
    back = remove_universal_vertex(H(3, [0, 1], [0, 2]), 0)
    assert edgesets(back) == [(0,), (1,)]
    assert edgesets(add_universal_vertex(H(1, []))) == [(1,)]
    with pytest.raises(ValueError):
        remove_universal_vertex(H(3, [0, 1], [2]), 0)


def test_universal_hyper_vertex_preserves_thresholdness():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(1, 6)
        hg = random_hypergraph(rng, n, 4)
        before = is_threshold(dnf_of_hypergraph(hg)).is_threshold
        grown = add_universal_vertex(hg)
        assert is_threshold(dnf_of_hypergraph(grown)).is_threshold == before
        back = remove_universal_vertex(grown, n)
        assert back == hg


def test_every_dually_sperner_hypergraph_is_threshold():
    from domishold.corpus import random_dually_sperner_hypergraph

    rng = random.Random(16)
    for _ in range(60):
        hg = random_dually_sperner_hypergraph(rng, rng.randint(2, 9), 6)
        assert is_threshold(dnf_of_hypergraph(hg)).is_threshold
