"""Seeded corpus builders for the verification sweeps: random hypergraphs,
random dually Sperner hypergraphs, and randomly grown total domishold graphs
carried together with verifying structures.
"""

from __future__ import annotations

import random

from .graphs import Graph, add_pendant, complete, path, star
from .hypergraphs import Hypergraph, is_dually_sperner
from .recognition import (
    TdStructure,
    recognize_td,
    structure_add_universal,
    structure_union_unique_min,
)


def random_hypergraph(
    rng: random.Random, n: int, max_edges: int, allow_empty_edge: bool = False
) -> Hypergraph:
    """Random hypergraph with up to max_edges edges.

    Empty edges are excluded unless ``allow_empty_edge``; one makes the
    associated function constant 1, which is threshold with t = -1.
    """
    m = rng.randint(0 if max_edges == 0 else 1, max_edges)
    edges = []
    for _ in range(m):
        lo = 0 if allow_empty_edge else 1
        size = rng.randint(lo, n)
        edges.append(rng.sample(range(n), size))
    return Hypergraph.make(n, edges)


def random_dually_sperner_hypergraph(
    rng: random.Random, n: int, max_edges: int, tries_per_edge: int = 60
) -> Hypergraph:
    """Random nonempty-edge hypergraph in which every pair of edges e, f has
    min(|e-f|, |f-e|) <= 1, grown by rejection sampling."""
    size = rng.randint(1, n)
    edges: list[frozenset[int]] = [frozenset(rng.sample(range(n), size))]
    target = rng.randint(1, max_edges)
    while len(edges) < target:
        for _ in range(tries_per_edge):
            base = rng.choice(edges)
            candidate = set(base)
            for _ in range(rng.randint(0, 2)):
                if candidate and rng.random() < 0.5:
                    candidate.discard(rng.choice(sorted(candidate)))
                else:
                    candidate.add(rng.randrange(n))
            if not candidate:
                continue
            cf = frozenset(candidate)
            if all(len(cf - e) <= 1 or len(e - cf) <= 1 for e in edges):
                edges.append(cf)
                break
        else:
            break
    H = Hypergraph(n, tuple(edges))
    assert is_dually_sperner(H)
    return H


def grow_td_graph(
    rng: random.Random, max_n: int = 12
) -> tuple[Graph, TdStructure]:
    """Randomly grown total domishold graph without isolated vertices,
    together with a verifying structure carried through the growth steps
    (universal vertex, disjoint union with K2, disjoint union with a graph
    having a unique minimal total dominating set)."""
    base = rng.choice(
        [complete(2), complete(3), path(3), star(2), star(3), complete(4)]
    )
    report = recognize_td(base)
    assert report.verdict and report.structure is not None
    G, s = base, report.structure
    while True:
        options = []
        if G.n + 1 <= max_n:
            options.append("universal")
        if G.n + 2 <= max_n:
            options.append("k2")
        if G.n + 4 <= max_n:
            options.append("pendanted")
        if not options or rng.random() < 0.25:
            break
        op = rng.choice(options)
        if op == "universal":
            G, s = structure_add_universal(G, s)
        elif op == "k2":
            G, s = structure_union_unique_min(G, s, complete(2))
        else:
            seedling = rng.choice([complete(2), path(2), path(3)])
            H = add_pendant(seedling)
            if G.n + H.n > max_n:
                continue
            G, s = structure_union_unique_min(G, s, H)
    return G, s
