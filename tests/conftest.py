"""Shared brute-force oracles and corpus fixtures for the test suite."""

from __future__ import annotations

from itertools import combinations

import pytest

from domishold import (
    Graph,
    all_graphs,
    induced_subgraph,
    is_total_dominating_set,
    recognize_td,
)


def brute_minimal_transversals(n, edges):
    """Independent oracle: minimal hitting sets by full subset enumeration."""
    edges = [frozenset(e) for e in edges]
    hitting = [
        frozenset(S)
        for size in range(n + 1)
        for S in combinations(range(n), size)
        if all(frozenset(S) & e for e in edges)
    ]
    return sorted(
        (t for t in hitting if not any(s < t for s in hitting)),
        key=lambda s: tuple(sorted(s)),
    )


def brute_has_induced(G: Graph, H: Graph) -> bool:
    """Independent oracle: try every |V(H)|-subset and every bijection."""
    from itertools import permutations

    for S in combinations(range(G.n), H.n):
        for perm in permutations(S):
            if all(
                (perm[j] in G.adj[perm[i]]) == (j in H.adj[i])
                for i in range(H.n)
                for j in range(i)
            ):
                return True
    return False


def minimal_tds_sets(G: Graph):
    """All inclusion-minimal total dominating sets, by enumeration."""
    tds = [
        frozenset(S)
        for size in range(G.n + 1)
        for S in combinations(range(G.n), size)
        if is_total_dominating_set(G, S)
    ]
    return [t for t in tds if not any(s < t for s in tds)]


class TdTable:
    """Memoized total domishold verdicts/structures keyed by labeled graph."""

    def __init__(self):
        self._cache = {}

    def report(self, G: Graph):
        key = G.key()
        hit = self._cache.get(key)
        if hit is None:
            hit = recognize_td(G)
            self._cache[key] = hit
        return hit

    def verdict(self, G: Graph) -> bool:
        return self.report(G).verdict


@pytest.fixture(scope="session")
def td_table():
    return TdTable()


@pytest.fixture(scope="session")
def census6():
    """All labeled graphs on at most 6 vertices."""
    return [G for n in range(7) for G in all_graphs(n)]


def htd_bruteforce(G: Graph, table: TdTable, memo: dict) -> bool:
    """Hereditary verdict by definition: every induced subgraph (via
    single-vertex deletions, memoized) is total domishold."""
    key = G.key()
    hit = memo.get(key)
    if hit is not None:
        return hit
    ok = table.verdict(G)
    if ok:
        for v in range(G.n):
            sub = induced_subgraph(G, set(range(G.n)) - {v})
            if not htd_bruteforce(sub, table, memo):
                ok = False
                break
    memo[key] = ok
    return ok
