"""Domination solvers: the weight-greedy minimum total dominating set for
graphs given with a total domishold structure, and the 2-approximation for
dominating set on total domishold graphs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, induced_subgraph
from .recognition import TdStructure, recognize_td, verify_td_structure


@dataclass(frozen=True)
class SolveResult:
    vertices: frozenset[int]
    size: int
    method: str  # greedy | approx


def greedy_min_tds(G: Graph, s: TdStructure) -> SolveResult:
    """Minimum total dominating set from a verifying structure: take vertices
    in non-increasing weight order (ties by index) until the threshold is
    reached. No shorter prefix can reach it, and every set reaching the
    threshold is total dominating, so the prefix has minimum cardinality."""
    if G.has_isolated_vertex():
        raise ValueError("graphs with isolated vertices have no total dominating sets")
    if not verify_td_structure(G, s):
        raise ValueError("structure does not verify for the given graph")
    order = sorted(range(G.n), key=lambda v: (-s.weights[v], v))
    chosen: list[int] = []
    total = 0
    for v in order:
        if total >= s.t:
            break
        chosen.append(v)
        total += s.weights[v]
    if total < s.t:
        raise AssertionError("total weight below threshold: structure cannot verify")
    return SolveResult(frozenset(chosen), len(chosen), "greedy")


def approx_dominating_set(G: Graph) -> SolveResult:
    """Dominating set of size at most twice the optimum, for total domishold
    graphs: isolated vertices join the solution outright, and a minimum
    total dominating set of the rest (via the greedy) dominates it.

    The input must be total domishold, and so must the graph left after
    removing isolated vertices; either failing is reported as an error
    rather than silently switching algorithms.
    """
    report = recognize_td(G)
    if not report.verdict:
        raise ValueError("input graph is not total domishold")
    isolated = G.isolated_vertices()
    if len(isolated) == G.n:
        return SolveResult(frozenset(range(G.n)), G.n, "approx")
    rest = sorted(set(range(G.n)) - isolated)
    sub = G
    if isolated:
        sub = induced_subgraph(G, rest)
        report = recognize_td(sub)
        if not report.verdict:
            raise ValueError(
                "graph minus isolated vertices is not total domishold; "
                "the reduction does not apply"
            )
    inner = greedy_min_tds(sub, report.structure)
    chosen = isolated | frozenset(rest[v] for v in inner.vertices)
    return SolveResult(chosen, len(chosen), "approx")
