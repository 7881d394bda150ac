"""Cross-check of the polynomial threshold route (strength order, swap
witness, floors/ceilings LP) against the Berge route kept as an oracle:
dualize to get every maximal false point, then solve the full LP with one
column per variable."""

import random
from collections import Counter

from domishold import (
    is_threshold,
    lp_feasible,
    make_dnf,
    neighborhood_dnf,
    verify_separating_structure,
    verify_summability_witness,
)

from oracles import is_k_summable, maximal_false_points


def berge_lp_threshold(f) -> bool:
    """Feasibility of non-negative weights and a threshold t >= -1 with every
    implicant above and every maximal false point at or below t; the last
    column is t + 1."""
    rows = [([int(i in t) for i in range(f.n)] + [-1], ">=", 0) for t in f.implicants]
    rows += [([int(i in p) for i in range(f.n)] + [-1], "<=", -1) for p in maximal_false_points(f)]
    return lp_feasible(f.n + 1, rows, nonneg=True) is not None


def check_against_oracle(f) -> str:
    """Assert the route agrees with the oracle and that its certificate
    verifies; return the reason the route gave."""
    report = is_threshold(f)
    assert report.is_threshold == berge_lp_threshold(f), f.implicants
    if report.is_threshold:
        assert report.reason == "separating-structure"
        assert verify_separating_structure(f, report.structure), f.implicants
    elif report.reason == "non-regular":
        assert verify_summability_witness(f, report.witness), f.implicants
    else:
        assert report.reason == "lp-infeasible" and report.witness is None
    return report.reason


def random_antichain(rng, n):
    terms = [rng.sample(range(n), rng.randint(1, n)) for _ in range(rng.randint(1, 8))]
    return make_dnf(n, terms)


def random_weighted(rng, n):
    """A threshold function: supports whose random weight exceeds t."""
    w = [rng.randint(0, 6) for _ in range(n)]
    t = rng.randint(1, max(1, sum(w) - 1))
    terms = [
        [i for i in range(n) if mask >> i & 1]
        for mask in range(1 << n)
        if sum(w[i] for i in range(n) if mask >> i & 1) > t
    ]
    return make_dnf(n, terms)


def random_shifted(rng, n):
    """A regular function: the true sets are closed under replacing a
    variable by a smaller-indexed one, so 0 is strongest."""
    seen = set()
    stack = [frozenset(rng.sample(range(n), rng.randint(1, min(n, 5)))) for _ in range(rng.randint(1, 4))]
    while stack:
        s = stack.pop()
        if s in seen:
            continue
        seen.add(s)
        for j in s:
            for i in range(j):
                if i not in s:
                    stack.append(s - {j} | {i})
    return make_dnf(n, seen)


def constant_one(rng, n):
    return make_dnf(n, [[]])


def test_neighborhood_functions_up_to_order_6(census6):
    functions = {}
    for G in census6:
        if not G.has_isolated_vertex():
            f = neighborhood_dnf(G)
            functions[(f.n, f.implicants)] = f
    reasons = Counter(check_against_oracle(f) for f in functions.values())
    assert reasons["separating-structure"] and reasons["non-regular"], reasons


def test_random_positive_functions_up_to_10_variables():
    rng = random.Random(20130919)
    reasons = Counter()
    for _ in range(150):
        n = rng.randint(1, 10)
        for make in (random_antichain, random_weighted, random_shifted, constant_one):
            reasons[check_against_oracle(make(rng, n))] += 1
    assert all(reasons[r] for r in ("separating-structure", "non-regular", "lp-infeasible")), reasons


def test_regular_function_with_infeasible_lp():
    f = make_dnf(
        6,
        [[0, 1], [0, 2], [0, 3, 4, 5], [1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5], [1, 3, 4, 5]],
    )
    report = is_threshold(f)
    assert not report.is_threshold
    assert report.reason == "lp-infeasible" and report.witness is None
    assert not berge_lp_threshold(f)
    # 2-summable all the same, but not through a swap of two variables
    assert verify_summability_witness(f, is_k_summable(f, 2))
