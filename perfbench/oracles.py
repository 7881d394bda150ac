"""Brute-force oracles that share no code with the library.

A positive Boolean function of at most eight variables is threshold iff it
is 2-asummable: no two false points and two true points have the same
componentwise sum (Muroga, Toda & Takasu 1961; the smallest 2-asummable
non-threshold function has nine variables). For points given as bitmasks,
the componentwise sum of A and B is fixed by the pair (A & B, A | B).
"""

from __future__ import annotations

from itertools import combinations

ASUMMABILITY_EXACT_MAX_N = 8


def two_summable(n: int, is_true) -> bool:
    """Whether the function on n variables given by the predicate
    ``is_true(mask)`` has a 2-summability witness."""
    trues, falses = [], []
    for mask in range(1 << n):
        (trues if is_true(mask) else falses).append(mask)
    sums = {(a & b) << n | (a | b) for i, a in enumerate(falses) for b in falses[i:]}
    return any((c & d) << n | (c | d) in sums for i, c in enumerate(trues) for d in trues[i:])


def is_threshold_exact(n: int, is_true) -> bool:
    """Exact thresholdness for n <= 8 by 2-asummability."""
    if n > ASUMMABILITY_EXACT_MAX_N:
        raise ValueError(f"2-asummability decides thresholdness only up to {ASUMMABILITY_EXACT_MAX_N} variables")
    return not two_summable(n, is_true)


def neighborhood_masks(n: int, edges) -> list[int]:
    masks = [0] * n
    for u, v in edges:
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def is_total_dominating(masks: list[int], s: int) -> bool:
    return all(m & s for m in masks)


def is_td(n: int, edges) -> bool:
    """G is total domishold iff its family of total dominating sets is a
    threshold family (exact for n <= 8)."""
    masks = neighborhood_masks(n, edges)
    return is_threshold_exact(n, lambda s: is_total_dominating(masks, s))


def is_td_no_witness(n: int, edges) -> bool:
    """A 2-summability witness on the total dominating sets proves that G
    is not total domishold, at any n."""
    masks = neighborhood_masks(n, edges)
    return two_summable(n, lambda s: is_total_dominating(masks, s))


def is_htd(n: int, edges) -> bool:
    """G is hereditary total domishold iff every induced subgraph is total
    domishold (exact for n <= 8)."""
    for size in range(n + 1):
        for keep in combinations(range(n), size):
            index = {v: i for i, v in enumerate(keep)}
            sub = [(index[u], index[v]) for u, v in edges if u in index and v in index]
            if not is_td(size, sub):
                return False
    return True


def hypergraph_function(edges):
    """The positive function true on supersets of some edge."""
    masks = [sum(1 << v for v in e) for e in edges]
    return lambda s: any(m & s == m for m in masks)


def is_threshold_hypergraph(n: int, edges) -> bool:
    return is_threshold_exact(n, hypergraph_function(edges))
