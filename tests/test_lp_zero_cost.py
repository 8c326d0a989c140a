"""The zero-cost exit of the simplex against the two-phase path it replaces.

A zero cost asks only whether the rows have a solution z >= 0, and
solve_min_eq answers with the basic point phase 1 ends on. The reference
below is the int two-phase solve as it was before that exit: it drives the
artificials out of the basis and runs phase 2 on a zero reduced-cost row. It
lives here only to pin the exit to the same status, point and value on
seeded systems with redundant, degenerate and infeasible rows, through
solve_min_eq and through the callers that always pass a zero cost.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import lcm
from random import Random

import pytest

from supcone.geometry import lp, polyhedron, halfspace, zero_vec
from supcone.geometry.lp import EqLpResult, _objective_row, _pivot, _run
from supcone.geometry.sets import LpResult, lp_solve
from supcone.geometry.vec import dot, primitive_ints

F = Fraction
CASES = 3000
# drive-out events of the reference: "pivot" on a real column, "drop" of a
# redundant row; the tests check that the seeded systems reach both
DRIVE_OUT: Counter = Counter()


# --------------------------------------------------------------- references


def ref_solve_min_eq(rows, rhs, cost) -> EqLpResult:
    n = len(cost)
    m = len(rows)
    ncols = n + m
    tab, den = [], []
    for i in range(m):
        vals = [*rows[i], rhs[i]]
        d = lcm(*(x.denominator for x in vals))
        nums = [x.numerator * (d // x.denominator) for x in vals]
        if nums[-1] < 0:
            nums = [-x for x in nums]
        row = nums[:n] + [0] * (m + 1)
        row[n + i] = d
        row[ncols] = nums[n]
        tab.append(row)
        den.append(d)
    basis = [n + i for i in range(m)]
    obj, d = _objective_row(tab, den, [1] * m, [0] * n + [1] * m + [0])
    tab.append(obj)
    den.append(d)
    _run(tab, den, basis, ncols)
    if tab[m][ncols] != 0:
        return EqLpResult(lp.INFEASIBLE)
    drop = []
    for i in range(m):
        if basis[i] >= n:
            piv_col = next((j for j in range(n) if tab[i][j] != 0), -1)
            if piv_col >= 0:
                _pivot(tab, den, basis, i, piv_col)
                DRIVE_OUT["pivot"] += 1
            else:
                drop.append(i)
                DRIVE_OUT["drop"] += 1
    keep_rows = [i for i in range(m) if i not in drop]
    tab2 = [tab[i][:n] + [tab[i][ncols]] for i in keep_rows]
    den2 = [den[i] for i in keep_rows]
    m2 = len(tab2)
    basis2 = [basis[i] for i in keep_rows]
    cd = lcm(*(x.denominator for x in cost))
    c = [x.numerator * (cd // x.denominator) for x in cost]
    obj2, d = _objective_row(tab2, den2, [c[b] for b in basis2], c + [0])
    tab2.append(obj2)
    den2.append(d * cd)
    status, enter = _run(tab2, den2, basis2, n)
    z = [F(0)] * n
    for i in range(m2):
        z[basis2[i]] = F(tab2[i][n], den2[i])
    if status == lp.UNBOUNDED:
        ray = [F(0)] * n
        ray[enter] = F(1)
        for i in range(m2):
            ray[basis2[i]] = F(-tab2[i][enter], den2[i])
        return EqLpResult(lp.UNBOUNDED, point=z, ray=ray)
    return EqLpResult(lp.OPTIMAL, point=z, value=F(-tab2[m2][n], den2[m2]))


def ref_nonneg_combination(columns, target):
    if not columns:
        return [] if all(x == 0 for x in target) else None
    rows = [[col[k] for col in columns] for k in range(len(target))]
    res = ref_solve_min_eq(rows, target, [F(0)] * len(columns))
    return res.point if res.status == lp.OPTIMAL else None


def ref_lp_solve(objective, poly) -> LpResult:
    d = poly.dim
    hs = poly.halfspaces
    m = len(hs)
    rows, rhs = [], []
    for i, h in enumerate(hs):
        row = [h.normal[k] for k in range(d)] + [-h.normal[k] for k in range(d)]
        row += [1 if j == i else 0 for j in range(m)]
        rows.append(row)
        rhs.append(h.offset)
    cost = [-c for c in objective] + [c for c in objective] + [0] * m
    res = ref_solve_min_eq(rows, rhs, cost)
    if res.status == lp.INFEASIBLE:
        return LpResult(lp.INFEASIBLE)
    point = tuple(res.point[k] - res.point[d + k] for k in range(d))
    if res.status == lp.UNBOUNDED:
        ray = tuple(res.ray[k] - res.ray[d + k] for k in range(d))
        return LpResult(lp.UNBOUNDED, point=point, ray=primitive_ints(ray))
    return LpResult(lp.OPTIMAL, value=dot(objective, point), point=point)


# ------------------------------------------------------------ seeded data


def entry(rng: Random):
    if rng.random() < 0.3:
        return 0
    n = rng.randint(-4, 4)
    return F(n, rng.choice((1, 1, 2, 3, 5))) if rng.random() < 0.4 else n


def system(seed: int):
    """rows, rhs: random rows, then redundant copies (a combination of other
    rows, rhs included), degenerate zero right-hand sides, and contradicting
    copies (same row, another rhs) that make it infeasible."""
    rng = Random(seed)
    n = rng.randint(1, 6)
    m = rng.randint(1, 4)
    rows = [[entry(rng) for _ in range(n)] for _ in range(m)]
    if rng.random() < 0.5:
        # rhs of a nonnegative point keeps most systems feasible
        z = [F(rng.randint(0, 3), rng.choice((1, 2))) if rng.random() < 0.6 else 0 for _ in range(n)]
        rhs = [sum((a * b for a, b in zip(r, z)), F(0)) for r in rows]
    else:
        rhs = [entry(rng) for _ in range(m)]
    for _ in range(rng.randint(0, 2)):
        roll = rng.random()
        i, j = rng.randrange(len(rows)), rng.randrange(len(rows))
        a, b = entry(rng) or 1, entry(rng)
        if roll < 0.5:
            rows.append([a * x + b * y for x, y in zip(rows[i], rows[j])])
            rhs.append(a * rhs[i] + b * rhs[j])
        elif roll < 0.8:
            rows.append(list(rows[i]))
            rhs.append(rhs[i] + rng.choice((1, -1, F(1, 2))))
        else:
            rows.append([entry(rng) for _ in range(n)])
            rhs.append(0)
    return rows, rhs


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("block", range(3))
def test_zero_cost_solve_matches_two_phase(block) -> None:
    statuses = Counter()
    DRIVE_OUT.clear()
    for seed in range(block * CASES // 3, (block + 1) * CASES // 3):
        rows, rhs = system(seed)
        cost = [0] * len(rows[0]) if seed % 2 else [F(0)] * len(rows[0])
        got = lp.solve_min_eq(rows, rhs, cost)
        assert got == ref_solve_min_eq(rows, rhs, cost)
        statuses[got.status] += 1
    assert statuses[lp.OPTIMAL] > CASES // 30 and statuses[lp.INFEASIBLE] > CASES // 30
    assert DRIVE_OUT["pivot"] > CASES // 30 and DRIVE_OUT["drop"] > CASES // 30


def test_nonneg_combination_matches_two_phase() -> None:
    found = 0
    for seed in range(CASES):
        rows, rhs = system(seed)
        columns = [tuple(r[k] for r in rows) for k in range(len(rows[0]))]
        got = lp.solve_nonneg_combination(columns, rhs)
        assert got == ref_nonneg_combination(columns, rhs)
        found += got is not None
    assert CASES // 10 < found < CASES - CASES // 10


def test_zero_objective_lp_solve_matches_two_phase() -> None:
    empty = 0
    for seed in range(CASES):
        rows, rhs = system(seed)
        poly = polyhedron(len(rows[0]), [halfspace(r, b) for r, b in zip(rows, rhs)])
        got = lp_solve(zero_vec(poly.dim), poly)
        assert got == ref_lp_solve(zero_vec(poly.dim), poly)
        empty += got.status == lp.INFEASIBLE
    assert empty > CASES // 30
