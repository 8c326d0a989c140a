"""Integer canonical forms against the Fraction constructors they replace.

The reference functions below are ``polyhedron``, ``generators``, ``cone``
and ``h_to_v`` as they were when the canonical forms deduplicated, sorted and
divided ``Fraction`` tuples. They live here only to pin the integer-native
constructors to identical output on seeded inputs: equal results whose rays
and halfspace rows are int tuples and whose points are ``Fraction``s. The
reference ray pruning and ``ref_is_pointed`` run one LP per ray and one
phase-1 LP with no rank test, and pin the rank shortcut in front of them.
"""

from __future__ import annotations

import math
from fractions import Fraction
from random import Random

from supcone.geometry import (
    ConeGen,
    GeneratorSet,
    HalfSpace,
    PolyhedronH,
    cone,
    cone_rays,
    empty_generators,
    generators,
    h_to_v,
    is_pointed,
    lp,
    polyhedron,
    zero_vec,
)
from supcone.geometry.vec import divide_gcd, is_zero_vec, primitive_ints

F = Fraction


# --------------------------------------------------------------- references


def _ref_primitive(a):
    """The Fraction primitive form the constructors used to build."""
    mult = math.lcm(*(x.denominator for x in a))
    ints = [x.numerator * (mult // x.denominator) for x in a]
    g = math.gcd(*ints)
    return tuple(F(n // g) for n in ints)


def ref_polyhedron(dim, halfspaces):
    rows = []
    for h in halfspaces:
        if is_zero_vec(h.normal):
            if h.offset < 0:
                return PolyhedronH(dim, (HalfSpace(zero_vec(dim), F(-1)),))
            continue
        joint = _ref_primitive(h.normal + (h.offset,))
        rows.append(HalfSpace(joint[:-1], joint[-1]))
    uniq = sorted(set(rows), key=lambda h: tuple(h.normal + (h.offset,)))
    return PolyhedronH(dim, tuple(uniq))


def _ref_prune(kept, column):
    i = 0
    while i < len(kept):
        if lp.solve_nonneg_combination(*column(kept, i)) is not None:
            kept.pop(i)
        else:
            i += 1
    return kept


def ref_generators(dim, points=(), rays=(), minimal=True):
    pts = sorted({tuple(p) for p in points}, key=tuple)
    rys = sorted({_ref_primitive(tuple(r)) for r in rays if not is_zero_vec(tuple(r))}, key=tuple)
    if not pts:
        return GeneratorSet(dim, (), ())
    if minimal:
        if len(rys) > 1:
            rys = _ref_prune(list(rys), lambda k, i: (k[:i] + k[i + 1 :], k[i]))
        if len(pts) > 1:
            rs = [r + (F(0),) for r in rys]
            pts = _ref_prune(
                list(pts),
                lambda k, i: ([q + (F(1),) for q in k[:i] + k[i + 1 :]] + rs, k[i] + (F(1),)),
            )
    return GeneratorSet(dim, tuple(pts), tuple(rys))


def ref_cone(dim, rays=(), minimal=True):
    rys = sorted({_ref_primitive(tuple(r)) for r in rays if not is_zero_vec(tuple(r))}, key=tuple)
    if minimal and len(rys) > 1:
        rys = _ref_prune(list(rys), lambda k, i: (k[:i] + k[i + 1 :], k[i]))
    return ConeGen(dim, tuple(rys))


def ref_is_pointed(dim, rays):
    cols = [tuple(r) + (F(1),) for r in rays]
    return lp.solve_nonneg_combination(cols, zero_vec(dim) + (F(1),)) is None


def ref_h_to_v(poly, minimal=True):
    d = poly.dim
    rows = [h.normal + (-h.offset,) for h in poly.halfspaces]
    rows.append(zero_vec(d) + (F(-1),))
    rays = cone_rays(rows, d + 1)
    n_points = sum(1 for r in rays if r[d] > 0)
    if minimal and n_points and (n_points > 1 or len(rays) - n_points > 1):
        extreme = _ref_extreme_rays(rows, rays, d + 1)
        if extreme is not None:
            rays, minimal = extreme, False
    points, recs = [], []
    for r in rays:
        t = r[d]
        if t > 0:
            points.append(tuple(F(x, t) for x in r[:d]))
        else:
            recs.append(r[:d])
    if not points:
        return empty_generators(d)
    return ref_generators(d, points, recs, minimal=minimal)


def _ref_extreme_rays(rows, rays, n):
    int_rows = list({p for p in (primitive_ints(r) for r in rows) if any(p)})
    if _ref_int_rank(int_rows) < n:
        return None
    kept = []
    for r in rays:
        x = [c.numerator for c in r]
        tight = [a for a in int_rows if sum(u * v for u, v in zip(a, x)) == 0]
        if len(tight) >= n - 1 and _ref_int_rank(tight) == n - 1:
            kept.append(r)
    return kept


def _ref_int_rank(rows) -> int:
    work = list(rows)
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank]
        pc = p[col]
        for i in range(rank + 1, len(work)):
            q = work[i]
            qc = q[col]
            if qc:
                work[i] = divide_gcd([pc * b - qc * a for a, b in zip(p, q)])
        rank += 1
    return rank


def _fraction_rank(rows) -> int:
    work = [list(r) for r in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][col] != 0), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank]
        for i in range(rank + 1, len(work)):
            f = work[i][col] / p[col]
            work[i] = [b - f * a for a, b in zip(p, work[i])]
        rank += 1
    return rank


# --------------------------------------------------------------- inputs


def _entry(rng: Random) -> Fraction:
    return F(rng.randint(-4, 4), rng.choice((1, 1, 1, 2, 3, 6)))


def _direction(rng: Random, dim: int) -> tuple:
    while True:
        a = tuple(_entry(rng) for _ in range(dim))
        if any(a):
            return a


def _scaled(rng: Random, a: tuple) -> tuple:
    s = F(rng.randint(1, 5), rng.randint(1, 4))
    return tuple(s * v for v in a)


def raw_halfspaces(rng: Random, dim: int) -> list[HalfSpace]:
    """Fractional rows, with duplicates, positive multiples, opposite pairs
    and zero-normal rows of negative and nonnegative offset mixed in."""
    rows = [HalfSpace(_direction(rng, dim), _entry(rng)) for _ in range(rng.randint(0, dim + 2))]
    if rng.random() < 0.4:
        for k in range(dim):
            e = tuple(F(-1 if i == k else 0) for i in range(dim))
            rows.append(HalfSpace(e, F(rng.randint(0, 2))))
        rows.append(HalfSpace((F(1),) * dim, F(rng.randint(1, 3))))
    if rows and rng.random() < 0.4:
        h = rng.choice(rows)
        s = _scaled(rng, (F(1),))[0]
        rows += [h, HalfSpace(tuple(s * v for v in h.normal), s * h.offset)]
    if rows and rng.random() < 0.2:
        h = rng.choice(rows)
        rows.append(HalfSpace(tuple(-v for v in h.normal), -h.offset))
    if rng.random() < 0.2:
        rows.append(HalfSpace(zero_vec(dim), F(rng.randint(0, 3), rng.randint(1, 3))))
    if rng.random() < 0.06:
        rows.append(HalfSpace(zero_vec(dim), F(-rng.randint(1, 3), rng.randint(1, 3))))
    rng.shuffle(rows)
    return rows


def raw_vectors(rng: Random, dim: int, zero_ok: bool) -> list[tuple]:
    """Fractional vectors with duplicates, positive multiples, negatives and
    (when zero_ok) zero vectors; possibly none at all."""
    out = [_direction(rng, dim) for _ in range(rng.randint(0, dim + 2))]
    if out and rng.random() < 0.4:
        r = rng.choice(out)
        out += [r, _scaled(rng, r)]
    if out and rng.random() < 0.2:
        out.append(tuple(-v for v in rng.choice(out)))
    if zero_ok and rng.random() < 0.2:
        out.append(zero_vec(dim))
    rng.shuffle(out)
    return out


def rank_test_rays(rng: Random, dim: int) -> list[tuple]:
    """Up to dim + 1 directions, often linearly independent, with a
    duplicate (or positive multiple), an opposite ray, a zero ray and a sum
    of two of them each planted at random."""
    out = [_direction(rng, dim) for _ in range(rng.randint(1, dim + 1))]
    if rng.random() < 0.25:
        r = rng.choice(out)
        out.append(r if rng.random() < 0.5 else _scaled(rng, r))
    if rng.random() < 0.25:
        out.append(tuple(-v for v in rng.choice(out)))
    if rng.random() < 0.2:
        out.append(zero_vec(dim))
    if len(out) >= 2 and rng.random() < 0.25:
        a, b = rng.sample(out, 2)
        out.append(tuple(u + v for u, v in zip(a, b)))
    rng.shuffle(out)
    return out


def ray_features(rays) -> set[str]:
    """Which of the rank test's cases a raw ray list falls in."""
    prim = [_ref_primitive(r) for r in rays if not is_zero_vec(r)]
    feats = {"independent" if _fraction_rank(rays) == len(rays) else "dependent"}
    if len(prim) < len(rays):
        feats.add("zero")
    if len(set(prim)) < len(prim):
        feats.add("duplicate")
    if any(tuple(-v for v in p) in prim for p in prim):
        feats.add("opposite")
    if any(
        tuple(u + v for u, v in zip(rays[i], rays[j])) == rays[k]
        for i in range(len(rays))
        for j in range(i + 1, len(rays))
        for k in range(len(rays))
        if k not in (i, j)
    ):
        feats.add("sum")
    return feats


# Dim 5 gets fewer seeds: the LP-pruned references dominate the run.
CASES = [(dim, seed) for dim in range(1, 6) for seed in range(240 if dim < 5 else 60)]


def all_fractions(vectors) -> bool:
    return all(type(c) is Fraction for v in vectors for c in v)


def all_ints(vectors) -> bool:
    return all(type(c) is int for v in vectors for c in v)


# --------------------------------------------------------------- differential


def test_polyhedron_matches_fraction_reference() -> None:
    empty = zero_rows = 0
    for dim, seed in CASES:
        rng = Random(31000 + 1000 * dim + seed)
        rows = raw_halfspaces(rng, dim)
        got = polyhedron(dim, rows)
        assert got == ref_polyhedron(dim, rows), (dim, seed)
        assert all_ints(h.normal + (h.offset,) for h in got.halfspaces)
        assert polyhedron(dim, got.halfspaces) == got
        zero_rows += any(is_zero_vec(h.normal) for h in rows)
        empty += got.halfspaces == ((HalfSpace(zero_vec(dim), F(-1))),)
    assert len(CASES) >= 1000
    assert empty >= 40 and zero_rows >= 150, (empty, zero_rows)


def test_generators_and_cone_match_fraction_reference() -> None:
    pruned = 0
    for dim, seed in CASES:
        rng = Random(41000 + 1000 * dim + seed)
        points = raw_vectors(rng, dim, zero_ok=True)
        rays = raw_vectors(rng, dim, zero_ok=True) if points else []
        got = generators(dim, points, rays)
        assert got == ref_generators(dim, points, rays), (dim, seed)
        assert all_fractions(got.points) and all_ints(got.rays)
        for minimal in (True, False):
            c = cone(dim, rays, minimal=minimal)
            assert c == ref_cone(dim, rays, minimal=minimal), (dim, seed)
            assert all_ints(c.rays)
        pruned += len(cone(dim, rays).rays) < len(cone(dim, rays, minimal=False).rays)
    assert pruned >= 100, pruned


def test_h_to_v_matches_fraction_reference() -> None:
    cut = full_rank = 0
    for dim, seed in CASES:
        rng = Random(51000 + 1000 * dim + seed)
        poly = PolyhedronH(dim, tuple(raw_halfspaces(rng, dim)))
        got = h_to_v(poly)
        assert got == ref_h_to_v(poly), (dim, seed)
        assert all_fractions(got.points) and all_ints(got.rays)
        loose = h_to_v(poly, minimal=False)
        old = ref_h_to_v(poly, minimal=False)
        assert all_fractions(loose.points) and all_ints(loose.rays)
        assert set(loose.points) <= set(old.points) and set(loose.rays) <= set(old.rays)
        assert list(loose.points) == sorted(loose.points)
        assert list(loose.rays) == sorted(loose.rays)
        lifted = [h.normal + (-h.offset,) for h in poly.halfspaces]
        lifted.append(zero_vec(dim) + (F(-1),))
        if _fraction_rank(lifted) == dim + 1:
            full_rank += 1
            assert loose == got, (dim, seed)
        cut += loose != old
    assert full_rank >= 500 and cut >= 250, (full_rank, cut)


def test_rank_shortcut_matches_lp_only_pruning() -> None:
    seen = dict.fromkeys(("independent", "dependent", "duplicate", "opposite", "zero", "sum"), 0)
    cases = [(dim, seed) for dim in range(1, 6) for seed in range(420)]
    for dim, seed in cases:
        rng = Random(61000 + 1000 * dim + seed)
        rays = rank_test_rays(rng, dim)
        c = cone(dim, rays)
        assert c.rays == ref_cone(dim, rays).rays, (dim, seed)
        assert all_ints(c.rays)
        assert is_pointed(dim, rays) == ref_is_pointed(dim, rays), (dim, seed)
        for feat in ray_features(rays):
            seen[feat] += 1
    assert len(cases) >= 2000
    assert min(seen.values()) >= 100, seen
