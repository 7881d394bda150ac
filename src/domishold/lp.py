"""Exact rational linear feasibility by the least-index criss-cross method.

No floating point anywhere in the decision path. The system is put in
condensed (Tucker) dictionary form: every inequality row i owns a slack
``s_i = b_i + sum_j a_ij x_j`` that must be >= 0, an equality becomes two
opposite rows, and a free variable is split as x+ - x-. The dictionary is
kept fraction-free: integer numerators over one positive denominator, so
each pivot update ``(a*p - f*g) // den`` divides exactly (Edmonds 1967).

The pivot loop is the criss-cross method of Terlaky (1985) with a zero
objective: take the lowest-indexed basic variable with a negative value and
pivot it out against the lowest-indexed nonbasic variable with a positive
coefficient in its row. No ratio test, phase split, slack column or
artificial column is needed. The least-index rule makes the loop finite
(Terlaky 1985; Fukuda and Terlaky 1997): were a basis repeated, the
highest-indexed variable that enters and leaves within the cycle would give,
at the two dictionaries where it is chosen, a vector of the row space and
one of the kernel of the system whose inner product the sign rules force to
be nonzero, against their orthogonality. A negative row with no positive
coefficient sets its basic variable to a negative constant plus
non-positive multiples of non-negative variables: that row is a Farkas
combination of the constraints proving the system infeasible.
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
    rows: list[list[int]] = []  # [b, a_1, ..., a_ncols] for s = b + a.x >= 0
    for coeffs, sense, b in constraints:
        if len(coeffs) != num_vars:
            raise ValueError(f"constraint has {len(coeffs)} coefficients, expected {num_vars}")
        if sense not in _SENSES:
            raise ValueError(f"unknown sense {sense!r}")
        if isinstance(b, int) and all(isinstance(c, int) for c in coeffs):
            ints = list(coeffs)
        else:
            frac = [Fraction(c) for c in coeffs]
            fb = Fraction(b)
            scale = lcm(fb.denominator, *(c.denominator for c in frac))
            ints, b = [int(c * scale) for c in frac], int(fb * scale)
        if not nonneg:
            ints = [v for a in ints for v in (a, -a)]
        if sense != ">=":  # b - a.x >= 0
            rows.append([b] + [-a for a in ints])
        if sense != "<=":  # a.x - b >= 0
            rows.append([-b] + ints)

    ncols = num_vars if nonneg else 2 * num_vars
    point = _criss_cross(ncols, rows)
    if point is None or nonneg:
        return point
    return [point[2 * j] - point[2 * j + 1] for j in range(num_vars)]


def _criss_cross(ncols: int, rows: list[list[int]]) -> Optional[list[Fraction]]:
    """Least-index criss-cross on the dictionary ``rows``; returns the
    values of the ncols structural variables, or None. Variables
    0..ncols-1 are structural and ncols + i is row i's slack. Row i gives
    basic variable ``basis[i]``; its entry 0 is the constant and its entry
    j >= 1 the coefficient of nonbasic variable ``cols[j]``."""
    basis = list(range(ncols, ncols + len(rows)))
    cols = [-1, *range(ncols)]
    den = 1
    while True:
        r = min((i for i, row in enumerate(rows) if row[0] < 0), key=basis.__getitem__, default=None)
        if r is None:
            break
        prow = rows[r]
        q = min((j for j in range(1, ncols + 1) if prow[j] > 0), key=cols.__getitem__, default=None)
        if q is None:
            return None  # s_r = b_r + (non-positive terms) < 0
        p = prow[q]
        for i, row in enumerate(rows):
            if i == r:
                continue
            f = row[q]
            if f == 0:
                if p != den:
                    rows[i] = [a * p // den for a in row]
            else:
                new = [(a * p - f * g) // den for a, g in zip(row, prow)]
                new[q] = f
                rows[i] = new
        new = [-g for g in prow]
        new[q] = den
        rows[r] = new
        basis[r], cols[q] = cols[q], basis[r]
        den = p
    values = [Fraction(0)] * ncols
    for i, v in enumerate(basis):
        if v < ncols:
            values[v] = Fraction(rows[i][0], den)
    return values
