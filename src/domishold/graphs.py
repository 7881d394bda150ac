"""Immutable simple graphs over vertex indices 0..n-1, with the predicates,
induced-subgraph machinery and generators everything downstream consumes.

Graphs are values: every operation returns a fresh graph and nothing here
mutates shared state, so certificates stay valid.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Optional


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph; ``adj[v]`` is the open neighborhood of v."""

    adj: tuple[frozenset[int], ...]

    def __post_init__(self):
        n = len(self.adj)
        for v, nbrs in enumerate(self.adj):
            for u in nbrs:
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
                if u == v:
                    raise ValueError(f"loop at vertex {v}")
                if v not in self.adj[u]:
                    raise ValueError(f"asymmetric adjacency {v}-{u}")

    @property
    def n(self) -> int:
        return len(self.adj)

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise ValueError(f"loop edge at {u}")
            adj[u].add(v)
            adj[v].add(u)
        return Graph(tuple(frozenset(s) for s in adj))

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in sorted(self.adj[u]) if u < v]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def degree_sequence(self) -> tuple[int, ...]:
        """Degrees in non-increasing order."""
        return tuple(sorted((len(s) for s in self.adj), reverse=True))

    def has_isolated_vertex(self) -> bool:
        return any(not s for s in self.adj)

    def isolated_vertices(self) -> frozenset[int]:
        return frozenset(v for v in range(self.n) if not self.adj[v])

    def key(self) -> tuple[int, frozenset[tuple[int, int]]]:
        """Hashable identity of the labeled graph (for memo tables)."""
        return (self.n, frozenset((u, v) for u, v in self.edges()))


def _check_vertex_set(G: Graph, S: Iterable[int]) -> frozenset[int]:
    S = frozenset(S)
    for v in S:
        if not 0 <= v < G.n:
            raise ValueError(f"vertex {v} out of range for n={G.n}")
    return S


def is_total_dominating_set(G: Graph, S: Iterable[int]) -> bool:
    """True iff every vertex of G has a neighbor in S (open domination).

    A graph with an isolated vertex has no total dominating sets at all.
    """
    S = _check_vertex_set(G, S)
    return all(G.adj[v] & S for v in range(G.n))


def is_dominating_set(G: Graph, S: Iterable[int]) -> bool:
    """True iff every vertex is in S or has a neighbor in S."""
    S = _check_vertex_set(G, S)
    return all(v in S or G.adj[v] & S for v in range(G.n))


def induced_subgraph(G: Graph, S: Iterable[int]) -> Graph:
    """Subgraph induced by S, relabeled 0..|S|-1 in ascending original order."""
    S = _check_vertex_set(G, S)
    order = sorted(S)
    index = {v: i for i, v in enumerate(order)}
    return Graph(tuple(frozenset(index[u] for u in G.adj[v] & S) for v in order))


def find_induced(G: Graph, H: Graph) -> Optional[tuple[int, ...]]:
    """Lexicographically first induced embedding of H into G, or None.

    The returned tuple maps pattern vertex i to host vertex tuple[i]; the
    mapping is injective and preserves both edges and non-edges. Pattern
    vertices are mapped in index order by backtracking over bitmask
    candidate sets: the candidates for pattern vertex i are the unused host
    vertices of large enough degree, within the neighborhood of every mapped
    neighbor of i and outside that of every mapped non-neighbor, taken
    lowest index first. The sets of all unmapped pattern vertices are
    narrowed as each vertex is mapped, so a branch ends as soon as one of
    them is empty.
    """
    k = H.n
    if k > G.n:
        return None
    if k == 0:
        return ()
    # equal orders means isomorphism: degree sequences must match
    if k == G.n and H.degree_sequence() != G.degree_sequence():
        return None
    masks = [sum(1 << u for u in N) for N in G.adj]
    at_least = {
        d: sum(1 << v for v in range(G.n) if len(G.adj[v]) >= d)
        for d in {len(N) for N in H.adj}
    }
    later = [[j in H.adj[i] for j in range(i + 1, k)] for i in range(k)]
    image: list[int] = []

    def extend(cands: list[int]) -> bool:
        """Map pattern vertex len(image); cands[0] holds its candidates and
        cands[1:] those of the pattern vertices after it."""
        cand, after = cands[0], later[len(image)]
        while cand:
            low = cand & -cand
            cand ^= low
            v = low.bit_length() - 1
            inside, outside = masks[v], ~(masks[v] | low)
            narrowed = []
            for c, adjacent in zip(cands[1:], after):
                c &= inside if adjacent else outside
                if not c:
                    break
                narrowed.append(c)
            else:
                image.append(v)
                if not narrowed or extend(narrowed):
                    return True
                image.pop()
        return False

    return tuple(image) if extend([at_least[len(N)] for N in H.adj]) else None


def is_induced_embedding(G: Graph, H: Graph, image: tuple[int, ...]) -> bool:
    """Verify that ``image`` embeds H into G as an induced subgraph."""
    if len(image) != H.n or len(set(image)) != H.n:
        return False
    if any(not 0 <= v < G.n for v in image):
        return False
    return all(
        (image[j] in G.adj[image[i]]) == (j in H.adj[i])
        for i in range(H.n)
        for j in range(i)
    )


# ---------------------------------------------------------------------------
# Generators


def complete(n: int) -> Graph:
    return Graph.from_edges(n, combinations(range(n), 2))


def path(n: int) -> Graph:
    return Graph.from_edges(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise ValueError("cycles need at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star(k: int) -> Graph:
    """K_{1,k}: center 0 joined to k leaves."""
    return Graph.from_edges(k + 1, ((0, i) for i in range(1, k + 1)))


def disjoint_union(G: Graph, H: Graph) -> Graph:
    shift = G.n
    edges = G.edges() + [(u + shift, v + shift) for u, v in H.edges()]
    return Graph.from_edges(G.n + H.n, edges)


def join(G: Graph, H: Graph) -> Graph:
    shift = G.n
    edges = G.edges() + [(u + shift, v + shift) for u, v in H.edges()]
    edges += [(u, v + shift) for u in range(G.n) for v in range(H.n)]
    return Graph.from_edges(G.n + H.n, edges)


def add_universal(G: Graph) -> Graph:
    """New vertex (index n) adjacent to every vertex of G."""
    return Graph.from_edges(G.n + 1, G.edges() + [(v, G.n) for v in range(G.n)])


def add_isolated(G: Graph) -> Graph:
    return Graph.from_edges(G.n + 1, G.edges())


def add_pendant(G: Graph) -> Graph:
    """Attach a new private neighbor to every vertex: vertex v gets leaf n+v."""
    edges = G.edges() + [(v, G.n + v) for v in range(G.n)]
    return Graph.from_edges(2 * G.n, edges)


def threshold_from_sequence(seq: Iterable[str]) -> Graph:
    """Build a threshold graph from a creation sequence of 'i'/'u' steps.

    Each step appends a vertex: 'i' isolated (no new edges), 'u' universal
    (joined to all existing vertices).
    """
    if isinstance(seq, str):
        seq = seq.replace(",", " ")
        tokens = seq.split() if " " in seq.strip() else list(seq.strip())
    else:
        tokens = list(seq)
    edges: list[tuple[int, int]] = []
    n = 0
    for tok in tokens:
        t = tok.strip().lower()
        if t == "u":
            edges += [(v, n) for v in range(n)]
        elif t != "i":
            raise ValueError(f"creation sequence step must be 'i' or 'u', got {tok!r}")
        n += 1
    return Graph.from_edges(n, edges)


def random_threshold(seed: int, n: int) -> Graph:
    """Seeded random threshold graph on n vertices (random creation sequence
    starting with an isolated vertex; n = 0 gives the empty graph)."""
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n == 0:
        return Graph(())
    rng = random.Random(seed)
    return threshold_from_sequence(["i"] + [rng.choice("iu") for _ in range(n - 1)])


def _forbidden(index: int) -> Graph:
    from .catalog import forbidden_graph  # the catalog imports this module

    return forbidden_graph(index)


# The named generator families: the constructor and the type of each
# parameter. ``random_threshold`` takes its seed apart, as the keyword
# ``seed`` of ``generate``.
GENERATORS = {
    "complete": (complete, (int,)),
    "path": (path, (int,)),
    "cycle": (cycle, (int,)),
    "star": (star, (int,)),
    "forbidden": (_forbidden, (int,)),
    "threshold_from_sequence": (threshold_from_sequence, (str,)),
    "random_threshold": (random_threshold, (int,)),
    "add_universal": (add_universal, (Graph,)),
    "add_isolated": (add_isolated, (Graph,)),
    "add_pendant": (add_pendant, (Graph,)),
    "disjoint_union": (disjoint_union, (Graph, Graph)),
    "join": (join, (Graph, Graph)),
}


def generate(family: str, *params, seed: Optional[int] = None) -> Graph:
    """The graph of a named family from its parameters, typed as listed in
    ``GENERATORS``; an int may also be given as a decimal string. An unknown
    family, a wrong number of parameters or a missing seed is a ValueError."""
    if family not in GENERATORS:
        raise ValueError(f"unknown graph family {family!r}")
    build, kinds = GENERATORS[family]
    if len(params) != len(kinds):
        raise ValueError(f"{family} takes {len(kinds)} parameter(s), got {len(params)}")
    values = [int(p) if kind is int else p for kind, p in zip(kinds, params)]
    if family == "random_threshold":
        if seed is None:
            raise ValueError("random_threshold needs a seed")
        values.insert(0, seed)
    return build(*values)


# ---------------------------------------------------------------------------
# Structure tests


def is_threshold_graph(G: Graph) -> bool:
    """True iff G is a threshold graph ({2K2, C4, P4}-free).

    Uses the creation-sequence characterization: G is threshold iff it can be
    dismantled by repeatedly removing an isolated or universal vertex.
    """
    live = set(range(G.n))
    deg = {v: len(G.adj[v]) for v in live}
    while live:
        pick = next((v for v in live if deg[v] == 0), None)
        if pick is None:
            pick = next((v for v in live if deg[v] == len(live) - 1), None)
        if pick is None:
            return False
        live.remove(pick)
        for u in G.adj[pick]:
            if u in live:
                deg[u] -= 1
    return True


def is_chordal(G: Graph) -> bool:
    """True iff G has no induced cycle of length at least 4.

    Maximum cardinality search followed by a perfect elimination ordering
    check; G is chordal iff the MCS ordering eliminates perfectly. Both run
    in linear time: MCS keeps the unvisited vertices in buckets by weight,
    and each vertex finds its latest earlier neighbour by position.
    """
    n = G.n
    weight = [0] * n
    buckets: list[set[int]] = [set() for _ in range(n + 1)]
    buckets[0].update(range(n))
    position = [-1] * n
    top = 0
    for i in range(n):
        while not buckets[top]:
            top -= 1
        v = buckets[top].pop()
        position[v] = i
        for u in G.adj[v]:
            if position[u] < 0:
                buckets[weight[u]].remove(u)
                weight[u] += 1
                buckets[weight[u]].add(u)
        top += 1  # a visit raises each weight by at most one
    # the reverse of the MCS visit order must eliminate perfectly: the
    # earlier neighbours of each vertex lie in its latest earlier neighbour's
    # neighbourhood
    for v in range(n):
        earlier = [u for u in G.adj[v] if position[u] < position[v]]
        if not earlier:
            continue
        u = max(earlier, key=position.__getitem__)
        if any(w != u and w not in G.adj[u] for w in earlier):
            return False
    return True


def split_partition(
    G: Graph,
) -> Optional[tuple[frozenset[int], frozenset[int]]]:
    """Partition V(G) into a clique K and independent set I, or None.

    Hammer & Simeone (1981): sort by degree, largest first and ties by index,
    and let m be the largest i whose i-th degree is >= i - 1. G is split iff
    the first m vertices have degree sum m(m-1) plus that of the rest; they
    are then K, the lexicographically smallest of the largest possible.
    """
    order = sorted(range(G.n), key=lambda v: (-G.degree(v), v))
    degs = [G.degree(v) for v in order]
    m = max((i for i in range(1, G.n + 1) if degs[i - 1] >= i - 1), default=0)
    if sum(degs[:m]) != m * (m - 1) + sum(degs[m:]):
        return None
    return frozenset(order[:m]), frozenset(order[m:])


def all_graphs(n: int) -> Iterator[Graph]:
    """All 2^(n choose 2) labeled graphs on n vertices, in edge-mask order."""
    pairs = list(combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield Graph.from_edges(n, (p for i, p in enumerate(pairs) if mask >> i & 1))


def random_graph(rng: random.Random, n: int, p: Optional[float] = None) -> Graph:
    """Erdos-Renyi style seeded graph; p drawn from rng when not given."""
    if p is None:
        p = rng.uniform(0.1, 0.9)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return Graph.from_edges(n, edges)
