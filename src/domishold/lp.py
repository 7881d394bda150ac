"""Exact rational linear feasibility via a self-contained phase-1 simplex.

No floating point anywhere in the decision path: the tableau is kept as
integers with a single positive denominator (fraction-free pivoting), so
every verdict and every returned point is exact. Bland's rule is used for
both the entering and leaving choices, which guarantees termination.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

Number = int | Fraction
Constraint = tuple[Sequence[Number], str, Number]

_SENSES = ("<=", ">=", "==")


def lp_feasible(
    num_vars: int,
    constraints: Sequence[Constraint],
    nonneg: bool = False,
) -> Optional[list[Fraction]]:
    """Find an exact rational point satisfying all constraints, or None.

    Each constraint is ``(coeffs, sense, rhs)`` with sense one of ``<=``,
    ``>=``, ``==``; coefficients and right-hand sides may be ints or
    Fractions. Variables are free unless ``nonneg`` is set, in which case
    all of them are required to be >= 0. Unbounded feasible regions are
    fine; any feasible point is returned.
    """
    if num_vars < 0:
        raise ValueError("num_vars must be non-negative")
    for coeffs, sense, _ in constraints:
        if len(coeffs) != num_vars:
            raise ValueError(f"constraint has {len(coeffs)} coefficients, expected {num_vars}")
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")

    ncols = num_vars if nonneg else 2 * num_vars
    rows: list[list[int]] = []
    senses: list[str] = []
    rhs: list[int] = []
    for coeffs, sense, b in constraints:
        if isinstance(b, int) and all(isinstance(c, int) for c in coeffs):
            ints = list(coeffs)
        else:
            frac = [Fraction(c) for c in coeffs]
            fb = Fraction(b)
            scale = lcm(fb.denominator, *(c.denominator for c in frac))
            ints, b = [int(c * scale) for c in frac], int(fb * scale)
        if nonneg:
            row = ints
        else:
            row = []
            for a in ints:
                row += [a, -a]
        rows.append(row)
        senses.append(sense)
        rhs.append(b)

    point = _phase1(ncols, rows, senses, rhs)
    if point is None:
        return None
    if nonneg:
        return point
    return [point[2 * j] - point[2 * j + 1] for j in range(num_vars)]


def _phase1(ncols, rows, senses, rhs):
    """Integer-pivoting phase-1 simplex; returns column values or None."""
    m = len(rows)
    if m == 0:
        return [Fraction(0)] * ncols

    # equality form: slack +1 for <=, -1 for >=; rows flipped to make b >= 0
    nslack = sum(1 for s in senses if s != "==")
    tableau: list[list[int]] = []
    slack_col = ncols
    slack_of_row: list[Optional[int]] = []
    for i in range(m):
        row = rows[i] + [0] * nslack + [rhs[i]]
        if senses[i] == "==":
            slack_of_row.append(None)
        else:
            row[slack_col] = 1 if senses[i] == "<=" else -1
            slack_of_row.append(slack_col)
            slack_col += 1
        if row[-1] < 0:
            row = [-a for a in row]
        tableau.append(row)

    # identity basis: a slack with coefficient +1, else a fresh artificial
    basis: list[int] = []
    art_cols: list[int] = []
    next_col = ncols + nslack
    for i in range(m):
        sc = slack_of_row[i]
        if sc is not None and tableau[i][sc] == 1:
            basis.append(sc)
        else:
            basis.append(next_col)
            art_cols.append(next_col)
            next_col += 1
    total = next_col
    for i in range(m):
        b = tableau[i].pop()
        tableau[i] += [0] * (total - (ncols + nslack)) + [b]
        if basis[i] >= ncols + nslack:
            tableau[i][basis[i]] = 1
    rhs_col = total

    # objective: minimize the sum of artificials, reduced w.r.t. the basis
    obj = [0] * (total + 1)
    for c in art_cols:
        obj[c] = 1
    for i in range(m):
        if basis[i] in art_cols:
            row = tableau[i]
            obj = [o - r for o, r in zip(obj, row)]
    den = 1  # positive denominator shared by tableau and objective row

    while True:
        entering = next((j for j in range(total) if obj[j] < 0), None)
        if entering is None:
            break
        # Bland leaving rule: smallest ratio, ties by smallest basic index
        leaving = None
        for i in range(m):
            a = tableau[i][entering]
            if a <= 0:
                continue
            if leaving is None:
                leaving = i
                continue
            lhs = tableau[i][rhs_col] * tableau[leaving][entering]
            rhsv = tableau[leaving][rhs_col] * a
            if lhs < rhsv or (lhs == rhsv and basis[i] < basis[leaving]):
                leaving = i
        if leaving is None:
            raise AssertionError("phase-1 objective cannot be unbounded")
        pivot = tableau[leaving][entering]
        prow = tableau[leaving]
        for i in range(m):
            if i == leaving:
                continue
            row = tableau[i]
            f = row[entering]
            if f == 0 and pivot == den:
                continue
            tableau[i] = [(pivot * row[j] - f * prow[j]) // den for j in range(total + 1)]
        f = obj[entering]
        obj = [(pivot * obj[j] - f * prow[j]) // den for j in range(total + 1)]
        basis[leaving] = entering
        den = pivot

    if obj[rhs_col] != 0:  # optimum is -obj[rhs_col]/den; nonzero means infeasible
        return None
    values = [Fraction(0)] * ncols
    for i in range(m):
        if basis[i] < ncols:
            values[basis[i]] = Fraction(tableau[i][rhs_col], den)
    return values
