"""Total domishold recognition with certificates (``verify_td_structure``
checks a structure in polynomial time at any size), the hereditary
recognizer over the forbidden catalog, the structure-preserving graph
transformations with their explicit weight constructions, and the
equivalence check that decides total domishold membership on the graph and
on its neighborhood split graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import catalog as _catalog
from .boolean import PositiveDNF, SummabilityWitness, _separates, is_threshold, make_dnf
from .graphs import Graph, add_universal, disjoint_union, find_induced, is_chordal, split_partition
from .hypergraphs import Hypergraph, _mask, neighborhood_split_graph, split_incidence_graph


@dataclass(frozen=True)
class TdStructure:
    """Per-vertex non-negative integer weights and threshold t such that a
    set is total dominating iff its weight reaches t."""

    weights: tuple[int, ...]
    t: int


@dataclass(frozen=True)
class TdRecognitionReport:
    """verdict True carries a verifying structure; verdict False carries
    negative evidence: the note ``non-regular`` with a 2-summability witness
    on the neighborhood function, or the note ``lp-infeasible``."""

    verdict: bool
    structure: Optional[TdStructure]
    witness: Optional[SummabilityWitness]
    note: str


@dataclass(frozen=True)
class HtdRecognitionReport:
    """verdict False carries the index of the forbidden catalog member found
    and the induced embedding witnessing it. The note names the route: the
    host was ``split``, ``chordal`` (not split) or ``general``, which fixed
    the catalog members searched."""

    verdict: bool
    witness: Optional[tuple[int, tuple[int, ...]]]
    note: str


def neighborhood_dnf(G: Graph) -> PositiveDNF:
    """The neighborhood function of G: true exactly on supports containing
    some vertex's neighborhood, given by its complete DNF (the minimal
    neighborhoods; equal neighborhoods collapse to one implicant)."""
    return make_dnf(G.n, [G.adj[v] for v in range(G.n)])


def recognize_td(G: Graph, want_witness: bool = True) -> TdRecognitionReport:
    """Decide whether G is total domishold; synthesize an integral structure.

    Graphs with an isolated vertex have no total dominating sets and get the
    all-ones structure with threshold n+1. Otherwise the neighborhood
    function is tested by ``is_threshold``; a separating structure (w, t) is
    converted to the total domishold structure (w, sum(w) - t), and a no
    carries the reason (``non-regular`` with a 2-summability witness, or
    ``lp-infeasible``). ``want_witness=False`` leaves the witness out of the
    report.
    """
    if G.has_isolated_vertex():
        structure = TdStructure((1,) * G.n, G.n + 1)
        return TdRecognitionReport(True, structure, None, "isolated-vertex")
    report = is_threshold(neighborhood_dnf(G))
    if report.is_threshold:
        s = report.structure
        structure = TdStructure(s.weights, sum(s.weights) - s.t)
        return TdRecognitionReport(True, structure, None, "separating-structure")
    witness = report.witness if want_witness else None
    return TdRecognitionReport(False, None, witness, report.reason)


def verify_td_structure(G: Graph, s: TdStructure) -> bool:
    """Check that a set is total dominating exactly when its weight reaches
    t, in polynomial time. S is total dominating iff V - S contains no
    neighborhood, so (w, t) is such a structure iff (w, sum(w) - t)
    separates the neighborhood function; the neighborhoods themselves serve
    as its terms."""
    if len(s.weights) != G.n or s.t < 0 or any(w < 0 for w in s.weights):
        return False
    return _separates(map(_mask, G.adj), s.weights, sum(s.weights) - s.t)


def recognize_htd(G: Graph) -> HtdRecognitionReport:
    """Hereditary recognizer: G is hereditary total domishold iff none of the
    thirteen catalog graphs embeds as an induced subgraph; the first catalog
    hit (in index order) is returned as the witness.

    An induced subgraph of a split graph is split, and one of a chordal
    graph is chordal. So a split host is searched only for the split
    members (F13) and a chordal host only for the chordal ones (F4..F13);
    the others cannot embed, and the first hit is the same as in a full
    scan.
    """
    if split_partition(G) is not None:
        members, route = _catalog.SPLIT_MEMBERS, "split"
    elif is_chordal(G):
        members, route = _catalog.CHORDAL_MEMBERS, "chordal"
    else:
        members, route = _catalog.forbidden_catalog(), "general"
    for entry in members:
        image = find_induced(G, entry.graph)
        if image is not None:
            return HtdRecognitionReport(False, (entry.index, image), route)
    return HtdRecognitionReport(True, None, route)


forbidden_catalog = _catalog.forbidden_catalog


# ---------------------------------------------------------------------------
# Structure-preserving transformations


def make_positive(G: Graph, s: TdStructure) -> TdStructure:
    """An all-positive-weights structure from a verifying one: scale weights
    by 2n and add 1 everywhere, scale the threshold by 2n. Integrality makes
    non-total-dominating sets fall short by at least one, which absorbs the
    added |S| term."""
    _require_verifying(G, s)
    if G.n == 0:
        return s
    n = G.n
    return TdStructure(tuple(2 * n * w + 1 for w in s.weights), 2 * n * s.t)


def structure_add_universal(G: Graph, s: TdStructure) -> tuple[Graph, TdStructure]:
    """Extend a verifying structure to G plus a universal vertex u, keeping
    the threshold t.

    After ``make_positive`` if needed, every weight is positive, and t > 0
    because the empty set is not total dominating. u weighs
    max(t - min w, 0). A set without u is total dominating in the new graph
    iff it is in G (any vertex dominates u), and keeps its weight. A set
    with u is total dominating iff it has another vertex x: u alone weighs
    less than t, and u plus x reaches t as w_u + w_x >= w_u + min w >= t.
    """
    _require_verifying(G, s)
    G2 = add_universal(G)
    if G.n == 0:
        return G2, TdStructure((1,), 2)
    if min(s.weights) == 0:
        s = make_positive(G, s)
    return G2, TdStructure(s.weights + (max(s.t - min(s.weights), 0),), s.t)


def unique_minimal_tds(H: Graph) -> Optional[frozenset[int]]:
    """The unique inclusion-minimal total dominating set if there is exactly
    one, else None, in linear time.

    Without isolated vertices, x lies in every total dominating set iff
    some vertex has N(v) = {x}: otherwise V - {x} total-dominates. So the
    intersection of all total dominating sets is this forced set, and it is
    the unique minimal one exactly when it is itself total dominating. A
    graph with an isolated vertex has no total dominating set.
    """
    if H.has_isolated_vertex():
        return None
    forced = frozenset(next(iter(N)) for N in H.adj if len(N) == 1)
    if not all(N & forced for N in H.adj):
        return None
    return forced


def structure_union_unique_min(
    G: Graph, s: TdStructure, H: Graph
) -> tuple[Graph, TdStructure]:
    """Structure for the disjoint union with a graph H having a unique
    minimal total dominating set T: T's vertices weigh the whole old weight
    sum, the rest of H weighs zero, and the threshold grows by |T| times
    that sum."""
    _require_verifying(G, s)
    T = unique_minimal_tds(H)
    if T is None:
        raise ValueError("H must have a unique minimal total dominating set")
    G2 = disjoint_union(G, H)
    if G.n == 0:
        weights = tuple(1 if v in T else 0 for v in range(H.n))
        return G2, TdStructure(weights, len(T))
    N = sum(s.weights)
    weights = s.weights + tuple(N if v in T else 0 for v in range(H.n))
    return G2, TdStructure(weights, s.t + len(T) * N)


def embed_into_td(G: Graph) -> tuple[Graph, TdStructure, tuple[int, ...]]:
    """Embed G into a total domishold graph without isolated vertices.

    A helper vertex is joined to the isolated vertices of G, then every
    vertex of the result receives a private neighbor. The unique minimal
    total dominating set consists of V(G), the helper, and additionally the
    helper's private neighbor when G has no isolated vertex (nothing else
    dominates the helper in that case); weight 1 on that set with its size
    as threshold is a verifying structure.
    """
    n = G.n
    helper = n
    base_edges = G.edges() + [(w, helper) for w in sorted(G.isolated_vertices())]
    pend_edges = [(x, n + 1 + x) for x in range(n + 1)]
    G2 = Graph.from_edges(2 * n + 2, base_edges + pend_edges)
    core = set(range(n)) | {helper}
    if not G.has_isolated_vertex():
        core.add(n + 1 + helper)
    weights = tuple(1 if v in core else 0 for v in range(G2.n))
    structure = TdStructure(weights, len(core))
    return G2, structure, tuple(range(n))


def _require_verifying(G: Graph, s: TdStructure) -> None:
    if not verify_td_structure(G, s):
        raise ValueError("structure does not verify for the given graph")


# ---------------------------------------------------------------------------
# Equivalence chain and the hypergraph bridge


@dataclass(frozen=True)
class EquivalenceReport:
    """Verdicts in ``ROUTES`` order: G is total domishold (``graph``), and
    so is its neighborhood split graph (``split-incidence``)."""

    legs: tuple[bool, ...]

    ROUTES = ("graph", "split-incidence")

    def unanimous(self) -> bool:
        return all(self.legs) or not any(self.legs)

    def as_dict(self) -> dict[str, bool]:
        return dict(zip(self.ROUTES, self.legs))


def check_equivalence_chain(G: Graph) -> EquivalenceReport:
    """G is total domishold iff its neighborhood function is threshold iff
    its neighborhood split graph (the split-incidence graph of the reduced
    neighborhood hypergraph) is total domishold. ``recognize_td`` decides
    the middle statement, so each graph is recognized once."""
    return EquivalenceReport(
        (recognize_td(G).verdict, recognize_td(neighborhood_split_graph(G)).verdict)
    )


def hypergraph_threshold_via_graph(H: Hypergraph) -> bool:
    """Thresholdness of a hypergraph decided through its split-incidence
    graph being total domishold."""
    return recognize_td(split_incidence_graph(H)[0]).verdict
