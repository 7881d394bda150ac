"""Exhaustive 2^n reference checks for the certificates of the library.

They share no code with the polynomial verifiers they are tested against,
and are meant for small inputs only.
"""

from __future__ import annotations

from typing import Sequence

from domishold import Graph, PositiveDNF, SeparatingStructure, TdStructure


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
