"""The thirteen minimal forbidden induced subgraphs for hereditary total
domishold graphs, with fixed vertex labels and the degree-2 vertex pair used
to build 2-summability witnesses on their neighborhood functions.

Label convention: u and v are the designated non-adjacent degree-2 vertices
with N(u) = {a, b} and N(v) = {c, d}; for the two short cycles F1 and F2 the
designated vertices are adjacent instead, with b = v and c = u. F8..F13 all
share the base edges ua, ub, vc, vd and differ in the edges among
{a, b, c, d}. The catalog is validated by the test suite in three
independent ways: each member is not total domishold, each carries a valid
2-summability witness, and every proper induced subgraph is hereditary
total domishold.
"""

from __future__ import annotations

from dataclasses import dataclass

from .boolean import SummabilityWitness
from .graphs import Graph, is_chordal, split_partition

U, V, A, B, C, D = 0, 1, 2, 3, 4, 5


@dataclass(frozen=True)
class CatalogEntry:
    index: int
    name: str
    graph: Graph
    black_pair: tuple[int, int]  # the designated degree-2 vertices (u, v)
    quad: tuple[int, int, int, int]  # (a, b, c, d) with N(u)={a,b}, N(v)={c,d}


def _entry(index, name, n, edges, black=(U, V), quad=(A, B, C, D)):
    return CatalogEntry(index, name, Graph.from_edges(n, edges), black, quad)


_BASE = [(U, A), (U, B), (V, C), (V, D)]

_CATALOG: tuple[CatalogEntry, ...] = (
    # C4 as a-u-v-d-a; the designated pair is adjacent, with b=v and c=u
    _entry(1, "C4", 4, [(A, U), (U, V), (V, 3), (3, A)], quad=(A, V, U, 3)),
    # C5 as a-u-v-d-e-a
    _entry(2, "C5", 5, [(A, U), (U, V), (V, 3), (3, 4), (4, A)], quad=(A, V, U, 3)),
    # C6 as u-a-c-v-d-b-u
    _entry(3, "C6", 6, [(U, A), (A, C), (C, V), (V, D), (D, B), (B, U)]),
    # P6 as b-u-a-c-v-d
    _entry(4, "P6", 6, [(B, U), (U, A), (A, C), (C, V), (V, D)]),
    _entry(5, "2P3", 6, _BASE),
    _entry(6, "P3+K3", 6, _BASE + [(A, B)]),
    _entry(7, "2K3", 6, _BASE + [(A, B), (C, D)]),
    _entry(8, "F8", 6, _BASE + [(A, C), (A, B)]),
    _entry(9, "F9", 6, _BASE + [(A, C), (B, C), (A, B)]),
    _entry(10, "F10", 6, _BASE + [(A, C), (A, B), (C, D)]),
    _entry(11, "F11", 6, _BASE + [(A, C), (B, C), (A, B), (C, D)]),
    _entry(12, "F12", 6, _BASE + [(A, C), (B, C), (B, D), (A, B), (C, D)]),
    _entry(13, "F13", 6, _BASE + [(A, C), (A, D), (B, C), (B, D), (A, B), (C, D)]),
)


# An induced subgraph of a split (chordal) graph is split (chordal), so on a
# split (chordal) host only these members can embed.
SPLIT_MEMBERS = tuple(e for e in _CATALOG if split_partition(e.graph) is not None)
CHORDAL_MEMBERS = tuple(e for e in _CATALOG if is_chordal(e.graph))


def forbidden_catalog() -> tuple[CatalogEntry, ...]:
    """All thirteen entries, in order F1..F13."""
    return _CATALOG


def forbidden_graph(index: int) -> Graph:
    if not 1 <= index <= 13:
        raise ValueError("catalog index must be in 1..13")
    return _CATALOG[index - 1].graph


def catalog_witness(entry: CatalogEntry) -> SummabilityWitness:
    """The 2-summability witness on the neighborhood function of the entry.

    The characteristic vectors of N(u) and N(v) are true points; splitting
    N(u) union N(v) crosswise into {a,c} and {b,d} gives two false points
    with the same componentwise sum.
    """
    n = entry.graph.n
    u, v = entry.black_pair
    a, b, c, d = entry.quad

    def vec(members):
        return tuple(1 if i in members else 0 for i in range(n))

    true_points = (vec(entry.graph.adj[u]), vec(entry.graph.adj[v]))
    false_points = (vec({a, c}), vec({b, d}))
    return SummabilityWitness(false_points, true_points)
