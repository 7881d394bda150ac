"""Positive Boolean functions as prime-implicant antichains of int-mask
terms, and threshold recognition producing integral separating structures.

f is threshold when f(x) = 0 exactly when w.x <= t, for non-negative integer
weights w and t >= -1; constant 1 is threshold with w = 0 and t = -1.

Recognition is polynomial and never dualizes: the strength order of the
variables either exposes an incomparable pair (a 2-summability witness) or
makes the function regular; the maximal false points of a regular function
are then read off its implicants by shifting, and a small exact LP with one
column per class of equally strong variables decides the weights.

Every step asks whether a point contains a term, and the one containment
index of ``hypergraphs`` answers it: minimisation, the swap tests of the
strength order, the ceiling filter and the verifier.
``verify_separating_structure`` checks a structure in polynomial time at
any size and takes its variable order from the claimed weights, not from
the strength order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm
from operator import ge, le
from typing import Iterable, Optional, Sequence

from .hypergraphs import Hypergraph, _contains_member, _elements, _index, _mask, _minimal_masks
from .lp import lp_feasible


@dataclass(frozen=True, init=False)
class PositiveDNF:
    """A positive Boolean function given by the antichain of its prime
    implicants: ``terms`` holds them as int masks (bit v for variable v) in
    the order of ``implicants``, the variable sets sorted as ascending
    tuples. Constant 0 has no implicants; constant 1 has the empty one.
    The constructor rejects implicants that ``make_dnf``, the minimiser,
    would not keep every one of (duplicates, or a term within another).
    """

    n: int
    terms: tuple[int, ...]

    def __init__(self, n: int, implicants: Iterable[Iterable[int]]):
        implicants = list(implicants)
        f = make_dnf(n, implicants)
        if len(f.terms) != len(implicants):
            raise ValueError("implicants must form an antichain without duplicates")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "terms", f.terms)

    @property
    def implicants(self) -> tuple[frozenset[int], ...]:
        return tuple(frozenset(_elements(t)) for t in self.terms)

    def is_constant_zero(self) -> bool:
        return not self.terms

    def is_constant_one(self) -> bool:
        return self.terms == (0,)


def make_dnf(n: int, terms: Iterable[Iterable[int]]) -> PositiveDNF:
    """Minimize arbitrary positive DNF terms to the complete (prime
    implicant) DNF of the function they define.
    """
    masks = [_mask(t) for t in terms]
    top = max(masks, default=0).bit_length() - 1
    if top >= n:
        raise ValueError(f"implicant variable {top} out of range for n={n}")
    f = object.__new__(PositiveDNF)
    object.__setattr__(f, "n", n)
    object.__setattr__(f, "terms", tuple(sorted(_minimal_masks(masks), key=_elements)))
    return f


def dnf_of_hypergraph(H: Hypergraph) -> PositiveDNF:
    """The positive function whose true points are the supports containing
    some edge of H."""
    return make_dnf(H.n, H.edges)


def evaluate(f: PositiveDNF, x: Sequence[int]) -> int:
    """1 iff the support of the bit vector contains some implicant."""
    if len(x) != f.n:
        raise ValueError(f"expected {f.n} bits, got {len(x)}")
    support = _mask(i for i, b in enumerate(x) if b)
    return 1 if any(t & support == t for t in f.terms) else 0


# ---------------------------------------------------------------------------
# Separating structures


@dataclass(frozen=True)
class SeparatingStructure:
    """Non-negative integer weights and threshold t >= -1 with f(x)=0 iff
    the weight of the support is at most t (true points reach t+1)."""

    weights: tuple[int, ...]
    t: int


def verify_separating_structure(f: PositiveDNF, s: SeparatingStructure) -> bool:
    """Check that s separates f, in time polynomial in n and the number of
    implicants; the order of the check comes from s (see ``_separates``)."""
    if len(s.weights) != f.n or s.t < -1 or any(w < 0 for w in s.weights):
        return False
    return _separates(f.terms, s.weights, s.t)


def _separates(terms: Iterable[int], weights: Sequence[int], t: int) -> bool:
    """Whether the non-negative weights and t separate the positive function
    whose true points are the supersets of the terms (int masks, any DNF of
    the function): true points weigh more than t, false points at most t.

    The terms are minimised first. The minimal terms define the same
    function, as every other term contains one of them, and they are its
    prime implicants, over which the strength argument of step 2 runs. Each
    "is this point true" question below is a query of their containment
    index.

    1. Every term weighs at least t + 1, hence so does every true point.
    2. Order the variables heaviest first, ties by index. If (w, t) is valid,
       w_i >= w_k makes i at least as strong as k: a term T with k in T and
       i not in T has T - k + i weighing at least w(T) > t, so true. The
       swap test on each adjacent pair therefore holds, and as strength is
       transitive it certifies that the function is regular in this order.
    3. In that order every maximal false point y is the shift
       (T & earlier(k)) | later(k) of a term T (Peled & Simeone 1985): take
       the last k not in y and a term T within y + k. T contains k, and a j
       in y & earlier(k) outside T would make T - k + j, a subset of y,
       true. So if every shift contains a term or weighs at most t, every
       false point weighs at most t. Constant 0 has the full set as its one
       maximal false point.
    """
    terms = _minimal_masks(terms)
    if not terms:
        return sum(weights) <= t
    holders = _index(terms)
    full = (1 << len(terms)) - 1
    n = len(weights)
    order = sorted(range(n), key=lambda v: (-weights[v], v))
    for i, k in zip(order, order[1:]):
        if _swap_failure(terms, holders, full, i, k) is not None:
            return False
    rank = {v: r for r, v in enumerate(order)}
    later, later_weight = [0] * n, [0] * n
    mask = total = 0
    for v in reversed(order):
        later[v], later_weight[v] = mask, total
        if 1 << v in holders:  # keeps the ints small; the index ignores other variables
            mask |= 1 << v
        total += weights[v]
    for s in terms:
        head = 0  # the weight of s & earlier(k)
        for k in sorted(_elements(s), key=rank.__getitem__):
            if head + later_weight[k] > t and not _contains_member(holders, full, s ^ (1 << k) | later[k]):
                return False
            head += weights[k]
        if head <= t:
            return False
    return True


@dataclass(frozen=True)
class SummabilityWitness:
    """r false points and r true points (2 <= r) with equal componentwise
    sums; certifies that the function is not threshold."""

    false_points: tuple[tuple[int, ...], ...]
    true_points: tuple[tuple[int, ...], ...]


def verify_summability_witness(f: PositiveDNF, w: SummabilityWitness) -> bool:
    """Check the witness; every entry must be the int 0 or 1."""
    r = len(w.false_points)
    if r < 2 or len(w.true_points) != r:
        return False
    points = w.false_points + w.true_points
    if any(len(p) != f.n for p in points):
        return False
    if any(type(x) is not int or x not in (0, 1) for p in points for x in p):
        return False
    if any(evaluate(f, p) != 0 for p in w.false_points):
        return False
    if any(evaluate(f, p) != 1 for p in w.true_points):
        return False
    sums_false = [sum(p[i] for p in w.false_points) for i in range(f.n)]
    sums_true = [sum(p[i] for p in w.true_points) for i in range(f.n)]
    return sums_false == sums_true


# ---------------------------------------------------------------------------
# Threshold recognition


@dataclass(frozen=True)
class ThresholdReport:
    """Outcome of threshold recognition. ``reason`` names the path taken:
    ``separating-structure`` (yes, with an integral structure),
    ``non-regular`` (no, with a 2-summability witness) or ``lp-infeasible``
    (no: the function is regular but no weights separate it)."""

    is_threshold: bool
    structure: Optional[SeparatingStructure]
    witness: Optional[SummabilityWitness]
    reason: str


def is_threshold(f: PositiveDNF) -> ThresholdReport:
    """Decide thresholdness of a positive function given by its complete DNF,
    in time polynomial in n and the number of prime implicants.

    Only the relevant variables (those in some implicant) take part;
    irrelevant ones get weight 0. Variable i is at least as strong as k when
    T-k+i is true for every implicant T containing k but not i.

    1. Strength order. Variables are sorted strongest first by their Winder
       profile (the number of implicants of each size containing them, small
       sizes first), which every strength relation respects, and each
       adjacent pair is checked. An incomparable pair i, k yields implicants
       T, T' with T-k+i and T'-i+k false: equal sums, so a 2-summability
       witness and no LP.
    2. Candidate false points. In the order of a regular function, every
       maximal false point is (T & earlier(k)) | later(k) for an implicant T
       and some k in T (Peled & Simeone 1985; Crama 1987).
    3. Small LP. Equally strong variables share one weight and weights fall
       along the order, so w_c = u_c + ... + u_r with u >= 0 and a point
       weighs sum_d u_d * (its prefix count through class d). Only the floors
       (implicants with minimal prefix counts) and the ceilings (false
       candidates with maximal prefix counts) become rows.

    The constants get the zero weights with t = 0 (constant 0) or -1.
    """
    if f.is_constant_zero() or f.is_constant_one():
        t = -1 if f.is_constant_one() else 0
        return ThresholdReport(True, SeparatingStructure((0,) * f.n, t), None, "separating-structure")
    classes = _strength_classes(f)
    if isinstance(classes, SummabilityWitness):
        return ThresholdReport(False, None, classes, "non-regular")
    structure = _regular_structure(f, classes)
    if structure is None:
        return ThresholdReport(False, None, None, "lp-infeasible")
    return ThresholdReport(True, structure, None, "separating-structure")


def _bits(n: int, mask: int) -> tuple[int, ...]:
    return tuple([mask >> i & 1 for i in range(n)])


def _strength_classes(f: PositiveDNF) -> list[list[int]] | SummabilityWitness:
    """The relevant variables of a non-constant f strongest first, in
    classes of equally strong ones; or, if two variables i, k are
    incomparable, the witness made of implicants T, T' and the false points
    T-k+i, T'-i+k.

    If k is at least as strong as i, the swap T -> T-i+k maps the implicants
    of each size containing i but not k into those containing k but not i,
    size class by size class, so k's profile is lexicographically at least
    i's, with equality only for equally strong variables. Hence checking the
    adjacent pairs of the profile order decides the whole relation, and a
    failed adjacent check fails in both directions.
    """
    terms = f.terms
    holders = _index(terms)
    full = (1 << len(terms)) - 1
    # the terms of each size, smallest first; negated profiles sort strongest first
    by_size: dict[int, int] = {}
    for j, t in enumerate(terms):
        size = t.bit_count()
        by_size[size] = by_size.get(size, 0) | 1 << j
    of_size = [by_size[size] for size in sorted(by_size)]
    profiles = {
        v.bit_length() - 1: tuple([-(sets & of).bit_count() for of in of_size])
        for v, sets in holders.items()
    }
    chain = sorted(profiles, key=lambda v: (profiles[v], v))
    classes = [[chain[0]]]
    for i, k in zip(chain, chain[1:]):
        t = _swap_failure(terms, holders, full, i, k)
        if t is not None:
            t2 = _swap_failure(terms, holders, full, k, i)
            return SummabilityWitness(
                (_bits(f.n, t ^ (1 << k) | (1 << i)), _bits(f.n, t2 ^ (1 << i) | (1 << k))),
                (_bits(f.n, t), _bits(f.n, t2)),
            )
        if profiles[i] == profiles[k]:
            classes[-1].append(k)
        else:
            classes.append([k])
    return classes


def _regular_structure(f: PositiveDNF, classes: list[list[int]]) -> Optional[SeparatingStructure]:
    """Solve the floors/ceilings LP of a regular f, whose relevant variables
    are given strongest first in classes of equally strong ones."""
    chain = [v for c in classes for v in c]
    moved = {1 << v: 1 << p for p, v in enumerate(chain)}
    points = []  # the terms with bit p for chain[p]
    for t in f.terms:
        point = 0
        while t:
            low = t & -t
            point |= moved[low]
            t ^= low
        points.append(point)
    full = (1 << len(chain)) - 1
    candidates = {
        t & ((1 << p) - 1) | full & ~((2 << p) - 1)
        for t in points
        for p in range(len(chain))
        if t >> p & 1
    }
    holders, every_point = _index(points), (1 << len(points)) - 1
    ceilings = [c for c in candidates if not _contains_member(holders, every_point, c)]
    ends, end = [], 0
    for c in classes:
        end += len(c)
        ends.append((1 << end) - 1)

    def prefix(point: int) -> tuple[int, ...]:
        return tuple([(point & e).bit_count() for e in ends])

    rows = [([*v, -1], ">=", 1) for v in _extreme_vectors(map(prefix, points), lowest=True)]
    rows += [([*v, -1], "<=", 0) for v in _extreme_vectors(map(prefix, ceilings), lowest=False)]
    solution = lp_feasible(len(classes) + 1, rows, nonneg=True)
    if solution is None:
        return None
    # scale is a multiple of every denominator, so x * scale is the integer
    # x.numerator * (scale // x.denominator) exactly: int(x * scale) without Fractions
    scale = lcm(*(x.denominator for x in solution))
    u = [x.numerator * (scale // x.denominator) for x in solution]
    weights = [0] * f.n
    w = 0
    for c in reversed(range(len(classes))):
        w += u[c]
        for v in classes[c]:
            weights[v] = w
    return SeparatingStructure(tuple(weights), u[-1])


def _swap_failure(terms: Sequence[int], holders: dict[int, int], full: int, i: int, k: int) -> Optional[int]:
    """The first term T of the antichain ``terms`` (indexed by ``holders``,
    one bit of ``full`` each) with k in T, i not in T and T-k+i false; None
    when there is none, that is, when i is at least as strong as k."""
    bi, bk = 1 << i, 1 << k
    rest = holders.get(bk, 0) & ~holders.get(bi, 0)
    while rest:
        low = rest & -rest
        t = terms[low.bit_length() - 1]
        if not _contains_member(holders, full, t ^ bk | bi):
            return t
        rest ^= low
    return None


def _extreme_vectors(vectors: Iterable[tuple[int, ...]], lowest: bool) -> list[tuple[int, ...]]:
    """The componentwise minimal (``lowest``) or maximal distinct vectors."""
    dominates = le if lowest else ge
    kept: list[tuple[int, ...]] = []
    # sorted is stable with reverse too: vectors of equal sum keep the set's order
    for v in sorted(set(vectors), key=sum, reverse=not lowest):
        if not any(all(map(dominates, k, v)) for k in kept):
            kept.append(v)
    return kept
