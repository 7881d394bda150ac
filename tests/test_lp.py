import random
from fractions import Fraction

import pytest

import domishold.boolean
from domishold import all_graphs, is_threshold, make_dnf, neighborhood_dnf
from domishold.lp import lp_feasible


def _satisfies(point, constraints):
    for coeffs, sense, rhs in constraints:
        total = sum(Fraction(c) * x for c, x in zip(coeffs, point))
        if sense == "<=" and not total <= rhs:
            return False
        if sense == ">=" and not total >= rhs:
            return False
        if sense == "==" and total != rhs:
            return False
    return True


def test_interval_feasible():
    constraints = [([1], ">=", 1), ([1], "<=", 2)]
    point = lp_feasible(1, constraints)
    assert point is not None
    assert _satisfies(point, constraints)


def test_interval_infeasible():
    assert lp_feasible(1, [([1], ">=", 1), ([1], "<=", 0)]) is None


def test_free_variables_allow_negative_values():
    constraints = [([1], "<=", -3)]
    point = lp_feasible(1, constraints)
    assert point is not None and point[0] <= -3


def test_nonneg_flag_blocks_negative_values():
    assert lp_feasible(1, [([1], "<=", -3)], nonneg=True) is None


def test_equalities_and_fractions():
    constraints = [
        ([Fraction(1, 2), 1], "==", Fraction(5, 2)),
        ([1, -1], ">=", 0),
        ([0, 1], ">=", Fraction(1, 3)),
    ]
    point = lp_feasible(2, constraints)
    assert point is not None
    assert _satisfies(point, constraints)


def test_c4_separating_system_is_infeasible():
    # weights w0..w3 and t for the function with implicants {1,3} and {0,2}
    constraints = [
        ([0, 1, 0, 1, -1], ">=", 1),
        ([1, 0, 1, 0, -1], ">=", 1),
        # maximal false points {0,1}, {0,3}, {1,2}, {2,3}
        ([1, 1, 0, 0, -1], "<=", 0),
        ([1, 0, 0, 1, -1], "<=", 0),
        ([0, 1, 1, 0, -1], "<=", 0),
        ([0, 0, 1, 1, -1], "<=", 0),
    ]
    assert lp_feasible(5, constraints, nonneg=True) is None


def test_zero_constraints_and_zero_vars():
    assert lp_feasible(3, []) == [0, 0, 0]
    assert lp_feasible(0, [([], "<=", 1)]) == []
    assert lp_feasible(0, [([], ">=", 1)]) is None


def test_redundant_and_degenerate_rows():
    constraints = [
        ([1, 1], "<=", 4),
        ([1, 1], "<=", 4),
        ([0, 0], "<=", 0),
        ([1, 0], ">=", 4),
        ([0, 1], ">=", 0),
    ]
    point = lp_feasible(2, constraints, nonneg=True)
    assert point is not None
    assert _satisfies(point, constraints)


def test_random_systems_built_around_a_known_point():
    rng = random.Random(5)
    for _ in range(120):
        m = rng.randint(1, 6)
        target = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(m)]
        constraints = []
        for _ in range(rng.randint(1, 8)):
            coeffs = [rng.randint(-4, 4) for _ in range(m)]
            value = sum(c * x for c, x in zip(coeffs, target))
            sense = rng.choice(["<=", ">=", "=="])
            slack = rng.randint(0, 3)
            rhs = value + slack if sense == "<=" else value - slack if sense == ">=" else value
            constraints.append((coeffs, sense, rhs))
        point = lp_feasible(m, constraints)
        assert point is not None, constraints
        assert _satisfies(point, constraints)


def test_random_infeasible_pairs():
    rng = random.Random(6)
    for _ in range(60):
        m = rng.randint(1, 5)
        coeffs = [rng.randint(-3, 3) for _ in range(m)]
        if all(c == 0 for c in coeffs):
            coeffs[0] = 1
        constraints = [(coeffs, ">=", 2), ([-c for c in coeffs], ">=", -1)]
        # first says c.x >= 2, second says c.x <= 1
        assert lp_feasible(m, constraints) is None


def test_rejects_malformed_input():
    with pytest.raises(ValueError):
        lp_feasible(2, [([1], "<=", 0)])
    with pytest.raises(ValueError):
        lp_feasible(1, [([1], "<", 0)])


def _fourier_motzkin_feasible(num_vars, constraints):
    """Independent exact oracle: eliminate variables one at a time.

    Constraints are normalized to a.x <= b; equalities become two
    inequalities. Feasible iff no contradictory constant row remains.
    """
    rows = []
    for coeffs, sense, rhs in constraints:
        c = [Fraction(x) for x in coeffs]
        b = Fraction(rhs)
        if sense in ("<=", "=="):
            rows.append((c[:], b))
        if sense in (">=", "=="):
            rows.append(([-x for x in c], -b))
    for var in range(num_vars):
        lower, upper, rest = [], [], []
        for c, b in rows:
            if c[var] > 0:
                upper.append(([x / c[var] for x in c], b / c[var]))
            elif c[var] < 0:
                lower.append(([x / -c[var] for x in c], b / -c[var]))
            else:
                rest.append((c, b))
        rows = rest
        for lc, lb in lower:
            for uc, ub in upper:
                rows.append(([u + l for u, l in zip(uc, lc)], ub + lb))
    return all(b >= 0 for c, b in rows)


def test_agrees_with_fourier_motzkin_on_random_systems():
    rng = random.Random(7)
    feas = infeas = 0
    for _ in range(250):
        m = rng.randint(1, 3)
        constraints = []
        for _ in range(rng.randint(1, 5)):
            coeffs = [rng.randint(-3, 3) for _ in range(m)]
            sense = rng.choice(["<=", ">=", "=="])
            constraints.append((coeffs, sense, rng.randint(-4, 4)))
        point = lp_feasible(m, constraints)
        oracle = _fourier_motzkin_feasible(m, constraints)
        assert (point is not None) == oracle, constraints
        if point is None:
            infeas += 1
        else:
            feas += 1
            assert _satisfies(point, constraints)
    assert feas > 40 and infeas > 40


def test_farkas_certified_infeasible_systems():
    # rows a_i.x <= b_i with multipliers y >= 0, sum y_i a_i = 0 and
    # sum y_i b_i < 0 are infeasible by construction
    rng = random.Random(8)
    built = 0
    while built < 60:
        m = rng.randint(1, 4)
        k = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(k)]
        y = [rng.randint(1, 3) for _ in range(k)]
        closing = [-sum(yi * row[j] for yi, row in zip(y, rows)) for j in range(m)]
        bs = [rng.randint(-2, 2) for _ in range(k)]
        total = sum(yi * bi for yi, bi in zip(y, bs))
        closing_b = -total - 1  # forces sum y_i b_i = -1 < 0 with y_last = 1
        constraints = [(row, "<=", b) for row, b in zip(rows, bs)]
        constraints.append((closing, "<=", closing_b))
        assert lp_feasible(m, constraints) is None, constraints
        built += 1


def test_degenerate_systems_terminate_and_answer_correctly():
    # many zero right-hand sides force degenerate pivots; the least-index rule
    # must still terminate with the right verdict
    rng = random.Random(9)
    for _ in range(120):
        m = rng.randint(2, 4)
        constraints = []
        for _ in range(rng.randint(2, 7)):
            coeffs = [rng.randint(-2, 2) for _ in range(m)]
            constraints.append((coeffs, rng.choice(["<=", ">=", "=="]), 0))
        point = lp_feasible(m, constraints)
        # the origin satisfies every homogeneous constraint
        assert point is not None
        assert _satisfies(point, constraints)
        # adding a constraint cutting off the whole cone may flip it
        constraints.append(([0] * m, ">=", 1))
        assert lp_feasible(m, constraints) is None


def _nonneg_rows(num_vars):
    return [([int(i == j) for i in range(num_vars)], ">=", 0) for j in range(num_vars)]


def test_route_lps_agree_with_fourier_motzkin(monkeypatch):
    # the floors/ceilings LPs the threshold route itself builds, checked
    # against an oracle that shares no code with lp_feasible
    calls = []

    def record(num_vars, constraints, nonneg=False):
        calls.append((num_vars, list(constraints), nonneg))
        return lp_feasible(num_vars, constraints, nonneg)

    monkeypatch.setattr(domishold.boolean, "lp_feasible", record)
    for n in range(6):
        for G in all_graphs(n):
            if not G.has_isolated_vertex():
                is_threshold(neighborhood_dnf(G))
    # regular, but its LP is infeasible (tests/test_threshold_route.py)
    is_threshold(
        make_dnf(6, [[0, 1], [0, 2], [0, 3, 4, 5], [1, 2, 3, 4], [1, 2, 3, 5], [1, 2, 4, 5], [1, 3, 4, 5]])
    )
    verdicts = set()
    for num_vars, constraints, nonneg in calls:
        assert nonneg
        point = lp_feasible(num_vars, constraints, nonneg=True)
        oracle = _fourier_motzkin_feasible(num_vars, constraints + _nonneg_rows(num_vars))
        assert (point is not None) == oracle, constraints
        if point is not None:
            assert _satisfies(point, constraints) and min(point) >= 0
        verdicts.add(oracle)
    assert verdicts == {True, False}


def test_beale_cycling_example_terminates():
    # Beale (1955) in its usual textbook scaling: minimize
    # -3/4 x1 + 150 x2 - 1/50 x3 + 6 x4 over the rows below and x >= 0; the
    # optimum is -1/20, and the largest-coefficient simplex rule cycles on it
    rows = [
        ([Fraction(1, 4), -60, Fraction(-1, 25), 9], "<=", 0),
        ([Fraction(1, 2), -90, Fraction(-1, 50), 3], "<=", 0),
        ([0, 0, 1, 0], "<=", 1),
    ]
    objective = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]
    attained = rows + [(objective, "<=", Fraction(-1, 20))]
    point = lp_feasible(4, attained, nonneg=True)
    assert point is not None and _satisfies(point, attained + _nonneg_rows(4))
    beyond = rows + [(objective, "<=", Fraction(-1, 20) - Fraction(1, 1000))]
    assert lp_feasible(4, beyond, nonneg=True) is None
    assert not _fourier_motzkin_feasible(4, beyond + _nonneg_rows(4))


def test_klee_minty_cube_terminates():
    # Klee and Minty (1972), d = 6, indices from 1: maximize sum 2^(d-j) x_j
    # subject to 2 sum_{j<i} 2^(i-j) x_j + x_i <= 5^i and x >= 0; the
    # optimum 5^d is attained only at (0, ..., 0, 5^d)
    d = 6
    rows = [
        ([2 ** (i - j + 1) if j < i else int(j == i) for j in range(d)], "<=", 5 ** (i + 1))
        for i in range(d)
    ]
    objective = [2 ** (d - 1 - j) for j in range(d)]
    attained = rows + [(objective, ">=", 5**d)]
    point = lp_feasible(d, attained, nonneg=True)
    assert point is not None and _satisfies(point, attained)
    assert point == [0] * (d - 1) + [5**d]
    assert lp_feasible(d, rows + [(objective, ">=", 5**d + 1)], nonneg=True) is None


def test_result_contract():
    # the benchmark's tracer reads the arguments and result[i].numerator
    rng = random.Random(10)
    outcomes = set()
    for _ in range(80):
        m = rng.randint(0, 4)
        nonneg = rng.random() < 0.5
        constraints = [
            ([rng.randint(-3, 3) for _ in range(m)], rng.choice(["<=", ">=", "=="]), rng.randint(-4, 4))
            for _ in range(rng.randint(0, 5))
        ]
        point = lp_feasible(m, constraints, nonneg=nonneg)
        outcomes.add(point is None)
        if point is None:
            assert not _fourier_motzkin_feasible(m, constraints + (_nonneg_rows(m) if nonneg else []))
            continue
        assert type(point) is list and len(point) == m
        assert all(type(x) is Fraction for x in point)
        assert _satisfies(point, constraints)
        if nonneg:
            assert all(x >= 0 for x in point)
    assert outcomes == {True, False}
