"""Reference routines the library is tested against: exhaustive 2^n
sweeps of the certificates, Berge dualization, the k-summability search,
the (1,2)-polarity search, the frozenset minimisation of set families and
the subset enumerations of the domination and total domination numbers.

They share no code with the polynomial routines they are tested against,
and are meant for small inputs only; the capped ones raise
``CapabilityError`` beyond their cap.
"""

from __future__ import annotations

from itertools import combinations, combinations_with_replacement, product
from math import comb
from typing import Iterable, Optional, Sequence

from domishold import (
    Graph,
    Hypergraph,
    PositiveDNF,
    SeparatingStructure,
    SolveResult,
    SummabilityWitness,
    TdStructure,
    evaluate,
    is_dominating_set,
    is_total_dominating_set,
)

DEFAULT_DUAL_CAP = 200_000
SUMMABILITY_WORK_CAP = 5_000_000
ORACLE_CAP = 16


class CapabilityError(Exception):
    """A size cap or work cap of an oracle was exceeded; it gives no answer."""


def subset_weights(n: int, weights: Sequence[int]) -> list[int]:
    """Weight of every subset of range(n), indexed by bitmask."""
    totals = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        totals[mask] = totals[mask ^ low] + weights[low.bit_length() - 1]
    return totals


def sweep_separating_structure(f: PositiveDNF, s: SeparatingStructure) -> bool:
    """Over all 2^n points, the weight exceeds t exactly on the true ones."""
    if len(s.weights) != f.n or s.t < -1 or any(w < 0 for w in s.weights):
        return False
    imp_masks = [sum(1 << v for v in t) for t in f.implicants]
    for mask, total in enumerate(subset_weights(f.n, s.weights)):
        truth = any(im & mask == im for im in imp_masks)
        if (total <= s.t) == truth:
            return False
    return True


def sweep_td_structure(G: Graph, s: TdStructure) -> bool:
    """Over all 2^n vertex subsets, the weight reaches t exactly on the
    total dominating sets."""
    if len(s.weights) != G.n or s.t < 0 or any(w < 0 for w in s.weights):
        return False
    masks = [sum(1 << u for u in N) for N in G.adj]
    for sub, total in enumerate(subset_weights(G.n, s.weights)):
        if (total >= s.t) != all(m & sub for m in masks):
            return False
    return True


def _edge_key(e: frozenset[int]) -> tuple[int, ...]:
    return tuple(sorted(e))


def minimal_sets(sets: Iterable[frozenset[int]]) -> tuple[frozenset[int], ...]:
    """Inclusion-minimal members, deduplicated, canonically sorted."""
    by_size = sorted(set(sets), key=lambda s: (len(s), _edge_key(s)))
    kept: list[frozenset[int]] = []
    for s in by_size:
        if not any(k <= s for k in kept):
            kept.append(s)
    return tuple(sorted(kept, key=_edge_key))


def minimal_transversals(H: Hypergraph, cap: int = DEFAULT_DUAL_CAP) -> tuple[frozenset[int], ...]:
    """All inclusion-minimal sets meeting every edge, by Berge multiplication.

    The hypergraph with no edges has the empty set as its unique minimal
    transversal; an empty edge makes the family empty. ``cap`` guards the
    intermediate family size. Output is deterministically sorted.
    """
    family: list[frozenset[int]] = [frozenset()]
    for e in H.edges:
        if not e:
            return ()
        hits = [t for t in family if t & e]
        misses = [t for t in family if not t & e]
        grown = hits + [t | {v} for t in misses for v in sorted(e)]
        family = list(minimal_sets(grown))
        if len(family) > cap:
            raise CapabilityError(
                f"transversal family exceeded cap {cap} while dualizing"
            )
    return tuple(sorted(family, key=_edge_key))


def is_transversal_family(H: Hypergraph, family: Iterable[frozenset[int]]) -> bool:
    """Check the minimal-transversal invariants (antichain, hitting, minimal)."""
    fam = [frozenset(t) for t in family]
    if len(set(fam)) != len(fam):
        return False
    for t in fam:
        if any(s != t and s <= t for s in fam):
            return False
        if any(not (t & e) for e in H.edges):
            return False
        if any(all((t - {v}) & e for e in H.edges) for v in t):
            return False
    return True


def dual(f: PositiveDNF, cap: int = DEFAULT_DUAL_CAP) -> PositiveDNF:
    """Prime implicants of x -> not f(complement of x): the minimal
    transversals of the implicant family."""
    return PositiveDNF(f.n, minimal_transversals(Hypergraph(f.n, f.implicants), cap))


def maximal_false_points(f: PositiveDNF, cap: int = DEFAULT_DUAL_CAP) -> tuple[frozenset[int], ...]:
    """Supports of the inclusion-maximal false points, as complements of the
    dual prime implicants; none for the constant-1 function, whose dual
    (constant 0) has no implicants."""
    full = frozenset(range(f.n))
    return tuple(
        sorted((full - t for t in dual(f, cap).implicants), key=lambda s: tuple(sorted(s)))
    )


def is_k_summable(
    f: PositiveDNF, k: int, work_cap: int = SUMMABILITY_WORK_CAP
) -> Optional[SummabilityWitness]:
    """Exhaustive search for r-tuples (2 <= r <= k) of false and true points
    with equal componentwise sums; None if f is k-asummable.

    Intended for small functions; the work estimate is capped.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    if (1 << f.n) > work_cap:
        raise CapabilityError("too many points to enumerate")
    falses: list[tuple[int, ...]] = []
    trues: list[tuple[int, ...]] = []
    for x in product((0, 1), repeat=f.n):
        (trues if evaluate(f, x) else falses).append(x)
    for r in range(2, k + 1):
        if not falses or not trues:
            return None
        work = comb(len(falses) + r - 1, r) + comb(len(trues) + r - 1, r)
        if work > work_cap:
            raise CapabilityError(f"r={r} summability search exceeds work cap")
        sums: dict[tuple[int, ...], tuple[tuple[int, ...], ...]] = {}
        for group in combinations_with_replacement(falses, r):
            key = tuple(sum(p[i] for p in group) for i in range(f.n))
            sums.setdefault(key, group)
        for group in combinations_with_replacement(trues, r):
            key = tuple(sum(p[i] for p in group) for i in range(f.n))
            hit = sums.get(key)
            if hit is not None:
                return SummabilityWitness(hit, group)
    return None


def is_12_polar(G: Graph, max_n: int = 20) -> bool:
    """True iff V(G) splits into a clique K and a part of maximum degree <= 1.

    Branching search: while the non-clique part has a vertex with two
    neighbors there, one of the three involved vertices must join the clique.
    """
    if G.n > max_n:
        raise CapabilityError(f"(1,2)-polarity check capped at {max_n} vertices")

    def solve(K: frozenset[int]) -> bool:
        L = frozenset(range(G.n)) - K
        for x in sorted(L):
            inside = sorted(G.adj[x] & L)
            if len(inside) >= 2:
                for move in (x, inside[0], inside[1]):
                    if all(move in G.adj[u] for u in K):
                        if solve(K | {move}):
                            return True
                return False
        return True

    return solve(frozenset())


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
