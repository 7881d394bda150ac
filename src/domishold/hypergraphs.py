"""Hypergraphs with edge multiplicity; int-mask set families with the one
containment index that answers every "does this set contain a member of
the family" question of the library, and minimisation and Sperner
reduction on it; and the graph/hypergraph constructions linking split
graphs to their neighborhood hypergraphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .graphs import Graph


def _edge_key(e: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(e))


@dataclass(frozen=True)
class Hypergraph:
    """Vertex count plus a multiset of hyperedges (stored canonically sorted).

    Duplicate edges and the empty edge are legal; equality is multiset
    equality because the edge tuple is normalized on construction.
    """

    n: int
    edges: tuple[frozenset[int], ...]

    def __post_init__(self):
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        canon = tuple(sorted((frozenset(e) for e in self.edges), key=_edge_key))
        for e in canon:
            for v in e:
                if not 0 <= v < self.n:
                    raise ValueError(f"edge vertex {v} out of range for n={self.n}")
        object.__setattr__(self, "edges", canon)

    @staticmethod
    def make(n: int, edges: Iterable[Iterable[int]]) -> "Hypergraph":
        return Hypergraph(n, tuple(frozenset(e) for e in edges))


def sperner_reduce(H: Hypergraph) -> Hypergraph:
    """Collapse duplicates and drop edges containing another edge."""
    edges = {_mask(e): e for e in H.edges}
    return Hypergraph(H.n, tuple(edges[e] for e in _minimal_masks(edges)))


def _mask(members: Iterable[int]) -> int:
    """The int mask of a set given by its members, repeats allowed."""
    mask = 0
    for v in members:
        mask |= 1 << v
    return mask


def _elements(mask: int) -> tuple[int, ...]:
    """The members of an int-mask set, ascending."""
    members = []
    while mask:
        members.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return tuple(members)


def _index(family: Iterable[int]) -> dict[int, int]:
    """Map the bit of each member of some set of the family to its holders,
    the bitset with bit j set when the j-th set contains that member."""
    holders: dict[int, int] = {}
    for j, s in enumerate(family):
        _hold(holders, s, 1 << j)
    return holders


def _hold(holders: dict[int, int], s: int, bit: int) -> None:
    """Enter the set s, whose holder bit is ``bit``, into the index."""
    while s:
        low = s & -s
        holders[low] = holders.get(low, 0) | bit
        s ^= low


def _contains_member(holders: dict[int, int], full: int, p: int) -> bool:
    """Whether the set p contains a set of the family indexed by
    ``holders``, ``full`` having one bit per set. It does iff the sets with
    a member outside p, the OR of those members' holders, are not all of
    them; members of no set are not in the index, and cost nothing. So a
    query costs one OR per indexed member outside p: little for many sets
    over few members, more than a scan for sparse sets over many."""
    outside = 0
    for v, sets in holders.items():
        if not v & p:
            outside |= sets
    return outside != full


def _minimal_masks(family: Iterable[int]) -> list[int]:
    """The inclusion-minimal distinct sets of a family, in increasing order.
    The proper subsets of a set are smaller ints, so they come first, and a
    set is kept iff it contains none of the sets kept before it."""
    kept: list[int] = []
    holders: dict[int, int] = {}
    for s in sorted(set(family)):
        bit = 1 << len(kept)
        if not _contains_member(holders, bit - 1, s):
            kept.append(s)
            _hold(holders, s, bit)
    return kept


def dually_sperner_violation(
    H: Hypergraph,
) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """A pair of edges with both set differences of size >= 2, or None.

    Duplicate edges compare with both differences empty, so they never
    violate the condition.
    """
    edges = H.edges
    for i in range(len(edges)):
        for j in range(i + 1, len(edges)):
            e, f = edges[i], edges[j]
            if len(e - f) > 1 and len(f - e) > 1:
                return e, f
    return None


def is_dually_sperner(H: Hypergraph) -> bool:
    """True iff every pair of edges e,f has min(|e-f|, |f-e|) <= 1."""
    return dually_sperner_violation(H) is None


# ---------------------------------------------------------------------------
# Graph <-> hypergraph constructions


def split_incidence_graph(
    H: Hypergraph,
) -> tuple[Graph, frozenset[int], frozenset[int]]:
    """Split graph with the vertices of H as a clique and one independent
    vertex per edge (duplicates give twins), adjacency = membership.

    Returns (graph, clique side, independent side).
    """
    n, m = H.n, len(H.edges)
    G = _split_graph(n, [_mask(e) for e in H.edges])
    return G, frozenset(range(n)), frozenset(range(n, n + m))


def _split_graph(n: int, sets: Sequence[int]) -> Graph:
    """The split graph on n + len(sets) vertices in which 0..n-1 form a
    clique and vertex n + j is adjacent to the members of the int-mask set
    sets[j]; its adjacency is written directly, one pass over the sets."""
    members = [_elements(s) for s in sets]
    incident: list[list[int]] = [[] for _ in range(n)]
    for j, e in enumerate(members, n):
        for v in e:
            incident[v].append(j)
    clique = frozenset(range(n))
    adj = [clique.union(incident[v]) - {v} for v in range(n)]
    adj += map(frozenset, members)
    return Graph(tuple(adj))


def independent_neighborhood_hypergraph(
    G: Graph, K: Iterable[int], I: Iterable[int]
) -> Hypergraph:
    """Neighborhood multiset of the independent side of a split partition.

    Vertex set is K relabeled ascending; each vertex of I contributes its
    neighborhood as one edge, keeping duplicates.
    """
    K, I = frozenset(K), frozenset(I)
    if K | I != frozenset(range(G.n)) or K & I:
        raise ValueError("(K, I) must partition the vertex set")
    for u in K:
        if not K - {u} <= G.adj[u]:
            raise ValueError("K is not a clique")
    for u in I:
        if G.adj[u] & I:
            raise ValueError("I is not independent")
    index = {v: i for i, v in enumerate(sorted(K))}
    return Hypergraph.make(len(K), [[index[u] for u in G.adj[v]] for v in sorted(I)])


def _reduced_neighborhoods(G: Graph) -> list[int]:
    """The distinct inclusion-minimal neighborhoods of G as int masks, in
    the canonical edge order of ``Hypergraph`` (ascending member tuples)."""
    return sorted(_minimal_masks(map(_mask, G.adj)), key=_elements)


def reduced_neighborhood_hypergraph(G: Graph) -> Hypergraph:
    """Distinct vertex neighborhoods that strictly contain no other
    neighborhood; equals the Sperner reduction of the neighborhood multiset.
    """
    return Hypergraph(G.n, tuple(frozenset(_elements(s)) for s in _reduced_neighborhoods(G)))


def neighborhood_split_graph(G: Graph) -> Graph:
    """Split-incidence graph of the reduced neighborhood hypergraph of G,
    built straight from the reduced neighborhood masks."""
    return _split_graph(G.n, _reduced_neighborhoods(G))


def add_universal_vertex(H: Hypergraph) -> Hypergraph:
    """New vertex (index n) added to every edge."""
    return Hypergraph.make(H.n + 1, [set(e) | {H.n} for e in H.edges])


def remove_universal_vertex(H: Hypergraph, v: int) -> Hypergraph:
    """Delete a vertex contained in every edge; remaining indices shift down."""
    if not 0 <= v < H.n:
        raise ValueError(f"vertex {v} out of range")
    if any(v not in e for e in H.edges):
        raise ValueError(f"vertex {v} is not universal")
    relabel = lambda u: u if u < v else u - 1
    return Hypergraph.make(H.n - 1, [[relabel(u) for u in e - {v}] for e in H.edges])
