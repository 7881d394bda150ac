import random

import pytest

from domishold import Hypergraph, complete, cycle, find_induced, make_dnf, path, random_graph
from domishold.fileio import (
    ParseError,
    from_graph6,
    parse_dnf,
    parse_graph,
    parse_hypergraph,
    write_dnf,
    write_graph,
    write_hypergraph,
)


def test_graph_round_trip():
    rng = random.Random(51)
    for _ in range(40):
        G = random_graph(rng, rng.randint(0, 9))
        assert parse_graph(write_graph(G)) == G


def test_graph_format_details():
    text = "# a comment\np graph 3 2\ne 1 2\ne 2 3\n"
    G = parse_graph(text)
    assert G == path(3)
    assert write_graph(G) == "p graph 3 2\ne 1 2\ne 2 3\n"


def test_graph_parse_errors_carry_line_numbers():
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("p wrong 3 2\ne 1 2\n")
    with pytest.raises(ParseError, match="line 3"):
        parse_graph("# c\np graph 3 1\nedge 1 2\n")
    with pytest.raises(ParseError, match="1 <= u < v"):
        parse_graph("p graph 3 1\ne 2 1\n")
    with pytest.raises(ParseError, match="announces"):
        parse_graph("p graph 3 2\ne 1 2\n")
    with pytest.raises(ParseError):
        parse_graph("")


def test_hypergraph_round_trip_and_empty_edges():
    rng = random.Random(52)
    for _ in range(30):
        n = rng.randint(1, 7)
        edges = [rng.sample(range(n), rng.randint(0, n)) for _ in range(rng.randint(0, 5))]
        H = Hypergraph.make(n, edges)
        assert parse_hypergraph(write_hypergraph(H)) == H
    H = parse_hypergraph("p hgraph 2 2\nh\nh 1 2\n")
    assert H.edges == (frozenset(), frozenset({0, 1}))


def test_dnf_round_trip_and_minimization():
    f = parse_dnf("p dnf 3 2\ni 1 2\ni 1 2 3\n")
    assert f == make_dnf(3, [[0, 1]])
    g = make_dnf(4, [[0, 3], [1]])
    assert parse_dnf(write_dnf(g)) == g
    constant_one = parse_dnf("p dnf 2 1\ni\n")
    assert constant_one.is_constant_one()
    # a repeated variable names it once
    assert parse_dnf("p dnf 3 1\ni 1 1\n") == make_dnf(3, [[0]])
    assert parse_dnf("p dnf 2 1\ni 2 2\n") == make_dnf(2, [[1]])


def test_graph6_known_strings():
    assert from_graph6("A_") == complete(2)
    assert from_graph6("Bw") == complete(3)
    assert from_graph6("C~") == complete(4)
    assert from_graph6(">>graph6<<A_") == complete(2)
    c4 = from_graph6("Cl")
    assert c4.n == 4 and find_induced(c4, cycle(4)) is not None


def test_graph6_long_size_field():
    # 70 isolated vertices: '~' prefix, then 70 in three 6-bit groups
    n = 70
    size = "~" + "".join(chr(63 + ((n >> s) & 63)) for s in (12, 6, 0))
    body = "?" * ((n * (n - 1) // 2 + 5) // 6)
    G = from_graph6(size + body)
    assert G.n == 70 and not G.edges()


def test_graph6_rejects_garbage():
    with pytest.raises(ValueError):
        from_graph6("C")  # truncated body
    with pytest.raises(ValueError):
        from_graph6("")
    with pytest.raises(ValueError):
        from_graph6("C\x1f\x1f")


def test_graph6_cross_checked_against_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(1, 12)
        G = random_graph(rng, n)
        H = nx.Graph()
        H.add_nodes_from(range(n))
        H.add_edges_from(G.edges())
        g6 = nx.to_graph6_bytes(H, header=False).decode().strip()
        assert from_graph6(g6) == G
