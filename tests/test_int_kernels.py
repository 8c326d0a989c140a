"""The integer DD and simplex kernels against the Fraction kernels they replace.

The reference functions below are the Fraction implementations of
``dd.cone_rays`` and ``lp.solve_min_eq`` (and of the Fraction primitive form)
as they were before the kernels moved to Python ints. They live here only to
pin the new kernels to identical output on seeded inputs: same rays in the
same order, same LP status, point, value and ray.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

import pytest

from supcone.errors import InputError, SizingError
from supcone.geometry import dd, lp
from supcone.geometry.vec import Vec, dot, is_zero_vec, unit_vec, vec

F = Fraction
_ZERO = F(0)
_ONE = F(1)


# --------------------------------------------------------------- references


def _ref_primitive(a: Vec) -> Vec:
    if is_zero_vec(a):
        return a
    mult = 1
    for x in a:
        mult = mult * x.denominator // math.gcd(mult, x.denominator)
    ints = [int(x * mult) for x in a]
    g = 0
    for n in ints:
        g = math.gcd(g, abs(n))
    return tuple(F(n // g) for n in ints)


def ref_cone_rays(rows, dim, cap=dd.DEFAULT_ROW_CAP):
    clean = sorted({_ref_primitive(tuple(r)) for r in rows if not is_zero_vec(tuple(r))})
    emb = 2 * dim
    lifted = [r + tuple(-x for x in r) for r in clean]

    def zero_set(ray, upto):
        tight = {i for i in range(emb) if ray[i] == 0}
        for j in range(upto):
            if dot(lifted[j], ray) == 0:
                tight.add(emb + j)
        return frozenset(tight)

    current = []
    for k in range(emb):
        r = unit_vec(emb, k)
        current.append((r, zero_set(r, 0)))

    for j, a in enumerate(lifted):
        zero, neg, pos = [], [], []
        for ray, zs in current:
            d = dot(a, ray)
            if d == 0:
                zero.append((ray, zs | {emb + j}))
            elif d < 0:
                neg.append((ray, zs))
            else:
                pos.append((ray, zs, d))
        fresh = []
        for rp, zp, dp in pos:
            for rn, zn in neg:
                dn = dot(a, rn)
                common = zp & zn
                adjacent = True
                for r3, z3 in current:
                    if r3 is rp or r3 is rn:
                        continue
                    if common <= z3:
                        adjacent = False
                        break
                if adjacent:
                    fresh.append(_ref_primitive(tuple(dp * xn - dn * xp for xp, xn in zip(rp, rn))))
        seen = {ray for ray, _ in zero} | {ray for ray, _ in neg}
        nxt = zero + neg
        for ray in fresh:
            if ray not in seen:
                seen.add(ray)
                nxt.append((ray, zero_set(ray, j + 1)))
        if len(nxt) > cap:
            raise SizingError(
                f"double description exceeded {cap} intermediate generators "
                f"after inserting {j + 1} of {len(lifted)} constraints"
            )
        current = nxt

    out = set()
    for ray, _ in current:
        x = tuple(ray[i] - ray[dim + i] for i in range(dim))
        if not is_zero_vec(x):
            out.add(_ref_primitive(x))
    return sorted(out)


def _ref_pivot(tab, basis, row, col):
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    prow = tab[row]
    for i in range(len(tab)):
        if i != row:
            f = tab[i][col]
            if f != 0:
                tab[i] = [a - f * p for a, p in zip(tab[i], prow)]
    basis[row] = col


def _ref_run(tab, basis, ncols):
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
            return lp.OPTIMAL, -1
        leave = -1
        best = None
        for i in range(m):
            a = tab[i][enter]
            if a > 0:
                ratio = tab[i][rhs] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            return lp.UNBOUNDED, enter
        _ref_pivot(tab, basis, leave, enter)


def ref_solve_min_eq(rows, rhs, cost):
    n = len(cost)
    A = [list(r) for r in rows]
    b = list(rhs)
    for r in A:
        if len(r) != n:
            raise ValueError("row length does not match cost length")
    for i in range(len(b)):
        if b[i] < 0:
            A[i] = [-x for x in A[i]]
            b[i] = -b[i]
    m = len(A)
    ncols = n + m
    tab = [A[i] + [_ONE if k == i else _ZERO for k in range(m)] + [b[i]] for i in range(m)]
    basis = [n + i for i in range(m)]
    obj = []
    for j in range(ncols):
        cj = _ONE if j >= n else _ZERO
        obj.append(cj - sum((tab[i][j] for i in range(m)), _ZERO))
    obj.append(-sum(b, _ZERO))
    tab.append(obj)
    _ref_run(tab, basis, ncols)
    if -tab[m][ncols] != 0:
        return lp.EqLpResult(lp.INFEASIBLE)
    drop = []
    for i in range(m):
        if basis[i] >= n:
            piv_col = -1
            for j in range(n):
                if tab[i][j] != 0:
                    piv_col = j
                    break
            if piv_col >= 0:
                _ref_pivot(tab, basis, i, piv_col)
            else:
                drop.append(i)
    keep_rows = [i for i in range(m) if i not in drop]
    tab2 = [[tab[i][j] for j in range(n)] + [tab[i][ncols]] for i in keep_rows]
    basis2 = [basis[i] for i in keep_rows]
    m2 = len(tab2)
    obj2 = []
    for j in range(n):
        red = F(cost[j])
        for i in range(m2):
            red -= cost[basis2[i]] * tab2[i][j]
        obj2.append(red)
    val0 = sum((cost[basis2[i]] * tab2[i][n] for i in range(m2)), _ZERO)
    obj2.append(-val0)
    tab2.append(obj2)
    status, enter = _ref_run(tab2, basis2, n)
    z = [_ZERO] * n
    for i in range(m2):
        z[basis2[i]] = tab2[i][n]
    if status == lp.UNBOUNDED:
        ray = [_ZERO] * n
        ray[enter] = _ONE
        for i in range(m2):
            ray[basis2[i]] = -tab2[i][enter]
        return lp.EqLpResult(lp.UNBOUNDED, point=z, ray=ray)
    value = sum((F(cost[j]) * z[j] for j in range(n)), _ZERO)
    return lp.EqLpResult(lp.OPTIMAL, point=z, value=value)


# --------------------------------------------------------------- inputs


def _entry(rng: Random) -> Fraction:
    if rng.random() < 0.15:
        return F(rng.randint(-5, 5), rng.randint(1, 4))
    return F(rng.randint(-3, 3))


def _dd_case(seed: int) -> tuple[list[Vec], int]:
    """Rows in dims 1-5, 0-9 of them, with the degenerate shapes mixed in."""
    rng = Random(seed)
    dim = 1 + seed % 5
    count = rng.randint(0, 9)
    rows: list[Vec] = []
    while len(rows) < count:
        shape = rng.random()
        row = tuple(_entry(rng) for _ in range(dim))
        if shape < 0.1 and rows:
            rows.append(rng.choice(rows))  # duplicate
        elif shape < 0.18 and rows:
            s = F(rng.randint(1, 5), rng.randint(1, 3))
            rows.append(tuple(s * x for x in rng.choice(rows)))  # positive multiple
        elif shape < 0.3 and len(rows) + 2 <= count:
            rows.extend([row, tuple(-x for x in row)])  # equality pair
        elif shape < 0.36:
            rows.append((_ZERO,) * dim)
        else:
            rows.append(row)
    return rows, dim


def _lp_case(seed: int):
    """A small standard-form LP; the shapes cover every status and edge."""
    rng = Random(seed)
    m = rng.randint(0, 4)
    n = rng.randint(1, 6)
    rows = [[_entry(rng) for _ in range(n)] for _ in range(m)]
    rhs = [_entry(rng) for _ in range(m)]
    if m and rng.random() < 0.2:  # redundant row: a multiple of another
        k = rng.randrange(m)
        s = F(rng.choice([-2, -1, 2, 3]), rng.randint(1, 2))
        rows.append([s * x for x in rows[k]])
        rhs.append(s * rhs[k] if rng.random() < 0.8 else rhs[k] + 1)
    if rng.random() < 0.2:
        rhs = [_ZERO] * len(rhs)
    if rng.random() < 0.2:
        cost = [_ZERO] * n
    else:
        cost = [_entry(rng) for _ in range(n)]
    return rows, rhs, cost


# --------------------------------------------------------------- differential


DD_SEEDS = range(1200)
LP_SEEDS = range(2400)


def test_cone_rays_match_fraction_kernel() -> None:
    mismatches = []
    shapes = {"empty": 0, "fractional": 0, "zero": 0, "pair": 0, "duplicate": 0}
    for seed in DD_SEEDS:
        rows, dim = _dd_case(seed)
        got = dd.cone_rays(rows, dim)
        if got != ref_cone_rays(rows, dim):
            mismatches.append(seed)
        shapes["empty"] += not rows
        shapes["fractional"] += any(x.denominator != 1 for r in rows for x in r)
        shapes["zero"] += any(is_zero_vec(r) for r in rows)
        shapes["pair"] += any(tuple(-x for x in r) in rows for r in rows if not is_zero_vec(r))
        shapes["duplicate"] += len(set(rows)) < len(rows)
    assert mismatches == []
    assert all(count >= 20 for count in shapes.values()), shapes


def test_solve_min_eq_matches_fraction_kernel() -> None:
    mismatches = []
    statuses = {lp.OPTIMAL: 0, lp.INFEASIBLE: 0, lp.UNBOUNDED: 0}
    shapes = {"negative rhs": 0, "zero rhs": 0, "zero cost": 0}
    for seed in LP_SEEDS:
        rows, rhs, cost = _lp_case(seed)
        got = lp.solve_min_eq(rows, rhs, cost)
        want = ref_solve_min_eq(rows, rhs, cost)
        same = (got.status, got.point, got.value, got.ray) == (
            want.status,
            want.point,
            want.value,
            want.ray,
        )
        if not same:
            mismatches.append(seed)
        statuses[got.status] += 1
        shapes["negative rhs"] += any(b < 0 for b in rhs)
        shapes["zero rhs"] += bool(rhs) and all(b == 0 for b in rhs)
        shapes["zero cost"] += all(c == 0 for c in cost)
    assert mismatches == []
    assert all(count >= 100 for count in statuses.values()), statuses
    assert all(count >= 100 for count in shapes.values()), shapes


def test_solve_min_eq_redundant_rows_match() -> None:
    # Each row repeated as a multiple: phase 1 must drop the copies exactly
    # as the Fraction kernel does.
    rng = Random(77)
    for _ in range(200):
        n = rng.randint(2, 5)
        base = [[_entry(rng) for _ in range(n)] for _ in range(rng.randint(1, 3))]
        point = [F(rng.randint(0, 3)) for _ in range(n)]
        rhs = [sum((a * z for a, z in zip(r, point)), _ZERO) for r in base]
        rows = base + [[2 * x for x in r] for r in base]
        rhs = rhs + [2 * b for b in rhs]
        cost = [_entry(rng) for _ in range(n)]
        got = lp.solve_min_eq(rows, rhs, cost)
        want = ref_solve_min_eq(rows, rhs, cost)
        assert got.status != lp.INFEASIBLE
        assert (got.status, got.point, got.value, got.ray) == (
            want.status,
            want.point,
            want.value,
            want.ray,
        )


def test_cone_rays_independent_of_row_order_and_implied_rows() -> None:
    """The output depends on the cone alone (the contract in dd's docstring)."""
    mismatches = []
    for seed in range(1000):
        rows, dim = _dd_case(10_000 + seed)
        want = dd.cone_rays(rows, dim)
        rng = Random(seed)
        more = list(rows)
        for _ in range(rng.randint(1, 3)):
            if not rows:
                break
            picks = rng.sample(rows, min(len(rows), rng.randint(1, 3)))
            weights = [F(rng.randint(0, 3), rng.randint(1, 2)) for _ in picks]
            more.append(tuple(sum((w * r[k] for w, r in zip(weights, picks)), _ZERO) for k in range(dim)))
        rng.shuffle(more)
        if dd.cone_rays(more, dim) != want:
            mismatches.append(seed)
    assert mismatches == []


# --------------------------------------------------------------- boundary


def test_cone_rays_wrong_row_length_raises_input_error() -> None:
    with pytest.raises(InputError):
        dd.cone_rays([vec((1, 0, 1))], 2)
    with pytest.raises(InputError):
        dd.cone_rays([vec((1, 0)), vec((1,))], 2)
    with pytest.raises(InputError, match="dimension mismatch: 6 vs 4"):
        ref_cone_rays([vec((1, 2, 3))], 2)
    with pytest.raises(InputError, match="dimension mismatch: 6 vs 4"):
        dd.cone_rays([vec((1, 2, 3))], 2)


def test_solve_min_eq_length_mismatch_raises_value_error() -> None:
    with pytest.raises(ValueError):
        lp.solve_min_eq([[F(1), F(1), F(1)]], [F(1)], [F(1), F(1)])
    with pytest.raises(ValueError):
        lp.solve_min_eq([[F(1)]], [F(1)], [F(1), F(1)])


def test_results_are_fractions() -> None:
    rays = dd.cone_rays([vec(("1/2", "1/3", 0)), vec((0, 1, -1))], 3)
    assert rays
    for r in rays:
        assert all(type(x) is int for x in r)
    for rows, rhs, cost in (
        ([[F(1), F(1)]], [F(2)], [F(3), F(1)]),
        ([[F(1), F(-1)]], [F(0)], [F(-1), F(0)]),
        ([[F(1, 2), F(1)]], [F(5, 4)], [F(1, 3), F(0)]),
    ):
        res = lp.solve_min_eq(rows, rhs, cost)
        want = ref_solve_min_eq(rows, rhs, cost)
        for got_list, want_list in ((res.point, want.point), (res.ray, want.ray)):
            if want_list is None:
                assert got_list is None
                continue
            assert all(type(x) is Fraction for x in got_list)
            assert [x.denominator for x in got_list] == [x.denominator for x in want_list]
        if want.value is not None:
            assert type(res.value) is Fraction and res.value == want.value


def test_output_is_a_generating_set_not_the_extreme_rays() -> None:
    # The lifted cone's extreme rays map to generators of the cone, some of
    # them non-extreme; minimal cone() prunes those.
    from supcone.geometry import cone

    rows = [vec(r) for r in [(0, 3, 1), (0, 2, 3), (1, 2, 1), (-3, 1, 3), (1, -1, 0), (2, 2, 2)]]
    rays = dd.cone_rays(rows, 3)
    assert rays == ref_cone_rays(rows, 3)
    assert len(rays) == 6
    assert len(cone(3, rays).rays) == 3
