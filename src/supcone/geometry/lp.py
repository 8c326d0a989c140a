"""Exact two-phase simplex over rationals.

Dense tableau with Bland's rule in both phases: entering variable is the
lowest-index column with negative reduced cost, leaving row breaks ratio ties
on the lowest basic index. That guarantees termination (no cycling) and makes
every solve deterministic, which the report determinism contract relies on.
The core works on the standard form

    min <cost, z>  s.t.  A z = rhs,  z >= 0;

callers build their own embeddings (free variables as differences, slacks,
distance epigraphs) on top of it.

The tableau is held in Python ints: each row is an integer vector over its
own positive denominator, and both are divided by their gcd after every
pivot. Signs are read from the numerators, and the ratio test compares
rhs/entry quotients by cross-multiplication (a row's denominator cancels in
its own quotient). Rationals enter as ints or Fractions and leave as
Fractions, so the exact pivots, and therefore every result, are those of a
Fraction tableau.

A zero cost makes the solve a pure feasibility question (Chvatal, Linear
Programming, 1983, ch. 8), and it ends with phase 1: the basic point phase 1
ends on is returned as the optimum, with value 0. The two-phase path would
return the same point. Its drive-out pivots act on rows whose right-hand
side is 0, so they move no basic value, and a zero reduced-cost row admits
no phase-2 pivot.

A yes/no cone question (is a vector a nonnegative combination of others?)
goes to nonneg_feasible, which takes int columns and builds the same
phase-1 tableau with every row denominator 1: no lcm, no Fraction, and the
answer is the sign of the final objective row's right-hand side. One
tableau set-up (_phase1) and one pivot loop (_run, _pivot) serve both
entries. solve_nonneg_combination and solve_min_eq remain for callers that
read multipliers, points or values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class EqLpResult:
    """Outcome of a standard-form solve.

    point/value are set when optimal; ray is an improving recession direction
    (in z-space) when unbounded, anchored at the last basic feasible point.
    """

    status: str
    point: list[Fraction] | None = None
    value: Fraction | None = None
    ray: list[Fraction] | None = None


def _reduce(tab: list[list[int]], den: list[int], i: int, row: list[int], d: int) -> None:
    """Store row/d as tableau row i, divided by the gcd of its entries and d."""
    g = gcd(d, *row)
    if g > 1:
        row = [x // g for x in row]
        d //= g
    tab[i] = row
    den[i] = d


def _pivot(tab: list[list[int]], den: list[int], basis: list[int], row: int, col: int) -> None:
    # Row `row` becomes tab[row] / tab[row][col], whose own denominator
    # cancels: numerators over the pivot numerator.
    prow = tab[row]
    q = prow[col]
    if q < 0:
        prow = [-x for x in prow]
        q = -q
    _reduce(tab, den, row, prow, q)
    prow, q = tab[row], den[row]
    for i in range(len(tab)):
        if i != row:
            f = tab[i][col]
            if f != 0:
                # a/den_i - (f/den_i) * (p/q) = (a*q - f*p) / (den_i*q)
                _reduce(tab, den, i, [a * q - f * p for a, p in zip(tab[i], prow)], den[i] * q)
    basis[row] = col


def _run(tab: list[list[int]], den: list[int], basis: list[int], ncols: int) -> tuple[str, int]:
    """Simplex loop on a tableau whose last row is the reduced-cost row.

    Returns (status, entering column); the column is only meaningful for
    UNBOUNDED, where no leaving row exists.
    """
    m = len(tab) - 1
    rhs = ncols
    while True:
        objrow = tab[m]
        enter = -1
        for j in range(ncols):
            if objrow[j] < 0:
                enter = j
                break
        if enter < 0:
            return OPTIMAL, -1
        leave = -1
        # best ratio so far: best_b / best_a with best_a > 0
        best_b = best_a = 0
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                b = tab[i][rhs]
                if leave >= 0:
                    diff = b * best_a - best_b * a
                    if diff > 0 or (diff == 0 and basis[i] > basis[leave]):
                        continue
                best_b, best_a = b, a
                leave = i
        if leave < 0:
            return UNBOUNDED, enter
        _pivot(tab, den, basis, leave, enter)


def _objective_row(
    tab: list[list[int]], den: list[int], weights: Sequence[int], base: list[int]
) -> tuple[list[int], int]:
    """(out, d) with out / d = base - sum_i weights[i] * tab[i] / den[i]."""
    d = lcm(*(den[i] for i in range(len(tab)) if weights[i] != 0))
    out = [x * d for x in base]
    for i, row in enumerate(tab):
        w = weights[i]
        if w != 0:
            w *= d // den[i]
            out = [o - w * x for o, x in zip(out, row)]
    return out, d


def _phase1(
    rows: list[list[int]], den: list[int], obj: list[int], obj_den: int
) -> tuple[list[list[int]], list[int], list[int]]:
    """Phase 1 from the rows (A_i, b_i) / den_i, each with b_i >= 0, and
    obj / obj_den = minus their sum: one artificial column per row, Bland's
    rule to the end. Returns (tab, den, basis); the problem is feasible iff
    the objective row ends with a zero right-hand side."""
    m = len(rows)
    n = len(obj) - 1
    ncols = n + m
    tab: list[list[int]] = []
    for i, r in enumerate(rows):
        row = r[:n] + [0] * (m + 1)
        row[n + i] = den[i]
        row[ncols] = r[n]
        tab.append(row)
    tab.append(obj[:n] + [0] * m + [obj[n]])
    den = [*den, obj_den]
    basis = list(range(n, ncols))
    _run(tab, den, basis, ncols)
    return tab, den, basis


def nonneg_feasible(columns: Sequence[Sequence[int]], target: Sequence[int]) -> bool:
    """Is target = sum_i mu_i * columns[i] for some mu >= 0?

    Columns and target are int vectors of one length; a positive multiple
    of a column or of the target has the same answer, so callers pass
    primitive ints. This is phase 1 alone, on ints from the first row: each
    row (c_1[k], ..., c_n[k], target[k]) is negated when target[k] < 0, every
    row denominator is 1 and the objective row is minus the column sums.
    The answer is read off the final phase-1 objective row, as a Farkas
    vector for an infeasible answer would be.
    """
    if not any(target):
        return True
    if not columns:
        return False
    m = len(target)
    if any(len(c) != m for c in columns):
        raise ValueError("column length does not match target length")
    rows = [
        [*row, t] if t >= 0 else [*(-x for x in row), -t]
        for row, t in zip(zip(*columns), target)
    ]
    tab, _, _ = _phase1(rows, [1] * m, [-sum(c) for c in zip(*rows)], 1)
    return tab[m][-1] == 0


def solve_min_eq(
    rows: Sequence[Sequence[Fraction]],
    rhs: Sequence[Fraction],
    cost: Sequence[Fraction],
) -> EqLpResult:
    """min <cost, z> subject to rows . z = rhs, z >= 0."""
    n = len(cost)
    for r in rows:
        if len(r) != n:
            raise ValueError("row length does not match cost length")
    m = len(rows)

    # Phase 1 on the rows (A_i, b_i) scaled to integers, with b_i >= 0.
    nums: list[list[int]] = []
    den: list[int] = []
    for i in range(m):
        vals = [*rows[i], rhs[i]]
        d = lcm(*(x.denominator for x in vals))
        row = [x.numerator * (d // x.denominator) for x in vals]
        nums.append([-x for x in row] if row[n] < 0 else row)
        den.append(d)
    obj, d = _objective_row(nums, den, [1] * m, [0] * (n + 1))
    tab, den, basis = _phase1(nums, den, obj, d)
    ncols = n + m
    if tab[m][ncols] != 0:
        return EqLpResult(INFEASIBLE)
    if not any(cost):
        # A feasibility question: the phase-1 basic point is the answer.
        z = [_ZERO] * n
        for i in range(m):
            if basis[i] < n:
                z[basis[i]] = Fraction(tab[i][ncols], den[i])
        return EqLpResult(OPTIMAL, point=z, value=_ZERO)

    # Drive leftover artificials out of the basis; a row with no real pivot
    # candidate is a redundant constraint and gets dropped.
    drop: list[int] = []
    for i in range(m):
        if basis[i] >= n:
            piv_col = -1
            for j in range(n):
                if tab[i][j] != 0:
                    piv_col = j
                    break
            if piv_col >= 0:
                _pivot(tab, den, basis, i, piv_col)
            else:
                drop.append(i)
    keep_rows = [i for i in range(m) if i not in drop]

    # Phase 2 tableau: real columns only, fresh reduced costs.
    tab2 = [tab[i][:n] + [tab[i][ncols]] for i in keep_rows]
    den2 = [den[i] for i in keep_rows]
    m2 = len(tab2)
    basis2 = [basis[i] for i in keep_rows]
    # cost scaled to integers c = cd * cost
    cd = lcm(*(x.denominator for x in cost))
    c = [x.numerator * (cd // x.denominator) for x in cost]
    obj2, d = _objective_row(tab2, den2, [c[b] for b in basis2], c + [0])
    tab2.append(obj2)
    den2.append(d * cd)
    status, enter = _run(tab2, den2, basis2, n)

    z = [_ZERO] * n
    for i in range(m2):
        z[basis2[i]] = Fraction(tab2[i][n], den2[i])
    if status == UNBOUNDED:
        ray = [_ZERO] * n
        ray[enter] = _ONE
        for i in range(m2):
            ray[basis2[i]] = Fraction(-tab2[i][enter], den2[i])
        return EqLpResult(UNBOUNDED, point=z, ray=ray)
    # The reduced-cost row's rhs holds minus the value of the basic point.
    return EqLpResult(OPTIMAL, point=z, value=Fraction(-tab2[m2][n], den2[m2]))


def solve_nonneg_combination(
    columns: Sequence[Sequence[Fraction]],
    target: Sequence[Fraction],
) -> list[Fraction] | None:
    """Find mu >= 0 with sum_i mu_i * columns[i] = target, or None.

    Columns and target live in the same R^d; this is a pure phase-1 solve.
    For callers that read the multipliers; a yes/no question goes to
    nonneg_feasible.
    """
    d = len(target)
    if not columns:
        return [] if all(x == 0 for x in target) else None
    rows = [[col[k] for col in columns] for k in range(d)]
    res = solve_min_eq(rows, target, [_ZERO] * len(columns))
    if res.status != OPTIMAL:
        return None
    return res.point
