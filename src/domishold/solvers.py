"""Domination solvers: the weight-greedy minimum total dominating set for
graphs given with a total domishold structure, brute-force oracles for the
domination numbers, and the 2-approximation for dominating set on total
domishold graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import CapabilityError
from .graphs import Graph, induced_subgraph, is_dominating_set, is_total_dominating_set
from .recognition import TdStructure, recognize_td, verify_td_structure

ORACLE_CAP = 16


@dataclass(frozen=True)
class SolveResult:
    vertices: frozenset[int]
    size: int
    method: str  # greedy | brute | approx


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


def gamma_t_bruteforce(G: Graph, max_n: int = ORACLE_CAP) -> SolveResult:
    """Exact total domination number by subset enumeration in increasing
    cardinality; the lexicographically first optimum is returned."""
    if G.n > max_n:
        raise CapabilityError(f"brute force capped at {max_n} vertices")
    if G.has_isolated_vertex():
        raise ValueError("graphs with isolated vertices have no total dominating sets")
    for size in range(G.n + 1):
        for S in combinations(range(G.n), size):
            if is_total_dominating_set(G, S):
                return SolveResult(frozenset(S), size, "brute")
    raise AssertionError("the full vertex set must be total dominating")


def gamma_bruteforce(G: Graph, max_n: int = ORACLE_CAP) -> SolveResult:
    """Exact domination number by subset enumeration in increasing size."""
    if G.n > max_n:
        raise CapabilityError(f"brute force capped at {max_n} vertices")
    for size in range(G.n + 1):
        for S in combinations(range(G.n), size):
            if is_dominating_set(G, S):
                return SolveResult(frozenset(S), size, "brute")
    raise AssertionError("the full vertex set is always dominating")


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
