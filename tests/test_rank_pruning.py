"""Rank-test pruning and unpruned epigraphs against the LP-pruned paths.

The reference functions below are ``h_to_v``, ``recession_cone`` and
``cone_polar`` as they were when every conversion pruned its double
description output with one LP per generator (``generators``/``cone`` with
``minimal=True``), and ``eps_subdifferential`` as it was when the epigraph's
generators were pruned too. They live here only to pin the LP-free paths to
identical output on seeded inputs.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from supcone.functions import (
    AffinePiece,
    PolyhedralFunction,
    epigraph_generators,
    eps_subdifferential,
    evaluate,
)
from supcone.geometry import (
    POS_INF,
    ConeGen,
    HalfSpace,
    PolyhedronH,
    cone,
    cone_equal,
    cone_polar,
    cone_rays,
    empty_generators,
    generators,
    h_to_v,
    halfspace,
    inequality_cone,
    is_empty_poly,
    lp,
    poly_contains_point,
    polyhedron,
    recession_cone,
    vec,
    vsub,
    whole_space,
    zero_vec,
)
from supcone.oracle import EQUAL, compare_cones

F = Fraction


# --------------------------------------------------------------- references


def ref_h_to_v(poly: PolyhedronH):
    d = poly.dim
    rows = [h.normal + (-h.offset,) for h in poly.halfspaces]
    rows.append(zero_vec(d) + (F(-1),))
    points, recs = [], []
    for r in cone_rays(rows, d + 1):
        t = r[d]
        if t > 0:
            points.append(tuple(F(x, t) for x in r[:d]))
        else:
            recs.append(r[:d])
    if not points:
        return empty_generators(d)
    return generators(d, points, recs)


def ref_recession_cone(poly: PolyhedronH) -> ConeGen:
    if not poly_contains_point(poly, zero_vec(poly.dim)) and is_empty_poly(poly):
        return ConeGen(poly.dim, ())
    return cone(poly.dim, cone_rays([h.normal for h in poly.halfspaces], poly.dim))


def ref_cone_polar(c: ConeGen) -> ConeGen:
    return cone(c.dim, cone_rays(list(c.rays), c.dim))


def ref_eps_subdifferential(f: PolyhedralFunction, x, eps):
    if evaluate(f, x) == POS_INF:
        return empty_generators(f.dim)
    fx = evaluate(f, x)
    rows = [HalfSpace(p.slope + (F(-1),), -p.intercept) for p in f.pieces]
    rows.extend(HalfSpace(h.normal + (F(0),), h.offset) for h in f.domain.halfspaces)
    epi = ref_h_to_v(polyhedron(f.dim + 1, rows))
    if epi.is_empty:
        return empty_generators(f.dim)
    hs = [HalfSpace(vsub(q[: f.dim], x), q[f.dim] - fx + eps) for q in epi.points]
    hs.extend(HalfSpace(w[: f.dim], w[f.dim]) for w in epi.rays)
    return ref_h_to_v(polyhedron(f.dim, hs))


# --------------------------------------------------------------- inputs


def _direction(rng: Random, dim: int) -> tuple:
    while True:
        a = tuple(F(rng.randint(-3, 3)) for _ in range(dim))
        if any(a):
            return a


def raw_rows(rng: Random, dim: int) -> list[HalfSpace]:
    """Rows of one seeded polyhedron, with the row-level features the
    canonical ``polyhedron`` constructor would erase kept in place.

    Features are drawn independently: a bounding simplex (pointed), a coordinate
    no row sees (a line, so not pointed), an equality pair, a contradiction
    (empty), and duplicate, positively scaled and redundant rows.
    """
    free = dim >= 2 and rng.random() < 0.3
    rows: list[HalfSpace] = []
    for _ in range(rng.randint(0, dim + 1)):
        a = _direction(rng, dim)
        if free:
            a = a[:-1] + (F(0),) if any(a[:-1]) else (F(1),) + a[1:-1] + (F(0),)
        rows.append(HalfSpace(a, F(rng.randint(-1, 4))))
    if not free and rng.random() < 0.4:
        for k in range(dim):
            e = tuple(F(-1 if i == k else 0) for i in range(dim))
            rows.append(HalfSpace(e, F(rng.randint(0, 2))))
        rows.append(HalfSpace((F(1),) * dim, F(rng.randint(1, 3))))
    if rng.random() < 0.25:
        a = _direction(rng, dim)
        if free:
            a = a[:-1] + (F(0),) if any(a[:-1]) else (F(1),) + a[1:-1] + (F(0),)
        b = F(rng.randint(-1, 2))
        rows += [HalfSpace(a, b), HalfSpace(tuple(-v for v in a), -b)]
    if rng.random() < 0.1:
        e = tuple(F(1 if i == 0 else 0) for i in range(dim))
        rows += [HalfSpace(e, F(-1)), HalfSpace(tuple(-v for v in e), F(0))]
    if rows and rng.random() < 0.3:
        h = rng.choice(rows)
        s = F(rng.randint(1, 4), rng.randint(1, 3))
        rows += [h, HalfSpace(tuple(s * v for v in h.normal), s * h.offset)]
    if len(rows) >= 2 and rng.random() < 0.3:
        g, h = rng.sample(rows, 2)
        combo = tuple(u + v for u, v in zip(g.normal, h.normal))
        if any(combo):
            rows.append(HalfSpace(combo, g.offset + h.offset + rng.randint(0, 1)))
    rng.shuffle(rows)
    return rows


def raw_rays(rng: Random, dim: int) -> list[tuple]:
    rays = [_direction(rng, dim) for _ in range(rng.randint(0, dim + 2))]
    if rays and rng.random() < 0.3:
        r = rng.choice(rays)
        rays += [r, tuple(F(rng.randint(1, 4), rng.randint(1, 3)) * v for v in r)]
    if rays and rng.random() < 0.2:
        r = rng.choice(rays)
        rays.append(tuple(-v for v in r))
    return rays


# Dim 5 gets fewer seeds: LP pruning of its many vertices dominates the run.
CASES = [(dim, seed) for dim in range(1, 6) for seed in range(245 if dim < 5 else 40)]


# --------------------------------------------------------------- differential


def test_pruned_conversions_match_lp_pruning() -> None:
    pointed = non_pointed = empty = 0
    for dim, seed in CASES:
        rng = Random(7000 + 1000 * dim + seed)
        poly = PolyhedronH(dim, tuple(raw_rows(rng, dim)))
        got = h_to_v(poly)
        assert got == ref_h_to_v(poly), (dim, seed)
        assert h_to_v(polyhedron(dim, poly.halfspaces)) == got, (dim, seed)
        assert recession_cone(poly) == ref_recession_cone(poly), (dim, seed)
        c = ConeGen(dim, tuple(raw_rays(rng, dim)))
        assert cone_polar(c) == ref_cone_polar(c), (dim, seed)
        normals = [h.normal for h in poly.halfspaces]
        assert inequality_cone(normals, dim) == cone(dim, cone_rays(normals, dim))
        if got.is_empty:
            empty += 1
        elif got.rays and any(tuple(-v for v in r) in got.rays for r in got.rays):
            non_pointed += 1
        else:
            pointed += 1
    assert len(CASES) >= 1000
    assert min(pointed, non_pointed, empty) >= 50, (pointed, non_pointed, empty)


def random_max_affine(rng: Random, dim: int, restricted: bool) -> PolyhedralFunction:
    pieces = tuple(
        AffinePiece(tuple(F(rng.randint(-3, 3)) for _ in range(dim)), F(rng.randint(-2, 2)))
        for _ in range(rng.randint(1, dim + 2))
    )
    dom = whole_space(dim)
    if restricted:
        dom = polyhedron(dim, [HalfSpace(_direction(rng, dim), F(rng.randint(0, 3)))
                               for _ in range(rng.randint(1, dim + 1))])
    return PolyhedralFunction(dim, pieces, dom)


def test_unpruned_epigraph_gives_the_same_eps_subdifferential() -> None:
    unpruned = 0
    for seed in range(240):
        rng = Random(9100 + seed)
        dim = 1 + seed % 3
        f = random_max_affine(rng, dim, restricted=(seed // 3) % 2 == 1)
        x = tuple(F(rng.randint(-1, 1)) for _ in range(dim))
        eps = rng.choice((F(0), F(1, 2), F(1), F(3)))
        assert eps_subdifferential(f, x, eps) == ref_eps_subdifferential(f, x, eps), seed
        epi = epigraph_generators(f)
        ref = ref_h_to_v(epigraph_poly(f))
        assert set(ref.points) <= set(epi.points) and set(ref.rays) <= set(epi.rays)
        unpruned += epi != ref
    # The unpruned generating sets must really differ on some inputs.
    assert unpruned >= 10, unpruned


def epigraph_poly(f: PolyhedralFunction) -> PolyhedronH:
    rows = [HalfSpace(p.slope + (F(-1),), -p.intercept) for p in f.pieces]
    rows.extend(HalfSpace(h.normal + (F(0),), h.offset) for h in f.domain.halfspaces)
    return polyhedron(f.dim + 1, rows)


# --------------------------------------------------------------- counts


@pytest.fixture
def lp_calls(monkeypatch):
    calls = {"prune": 0, "solve": 0}
    prune, solve = lp.solve_nonneg_combination, lp.solve_min_eq

    def counted_prune(*args, **kwargs):
        calls["prune"] += 1
        return prune(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(lp, "solve_nonneg_combination", counted_prune)
    monkeypatch.setattr(lp, "solve_min_eq", counted_solve)
    return calls


def test_pointed_h_to_v_runs_no_pruning_lp(lp_calls) -> None:
    # {x >= 0, y >= 0, x + y >= 1}: two vertices and two extreme rays, where
    # LP pruning solves one LP per point and per ray.
    corner = polyhedron(
        2, [halfspace((-1, 0), 0), halfspace((0, -1), 0), halfspace((-1, -1), -1)]
    )
    units = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cube = polyhedron(3, [halfspace(e, 1) for e in units] + [
        halfspace(tuple(-v for v in e), 1) for e in units
    ])
    g = h_to_v(corner)
    assert g.points == (vec((0, 1)), vec((1, 0)))
    assert g.rays == (vec((0, 1)), vec((1, 0)))
    assert len(h_to_v(cube).points) == 8
    assert lp_calls["prune"] == 0


def test_non_pointed_h_to_v_falls_back_to_lp_pruning(lp_calls) -> None:
    # A slab in R^2 contains a line: rank 2 < 3, so LPs decide.
    slab = polyhedron(2, [halfspace((1, 0), 1), halfspace((-1, 0), 1)])
    g = h_to_v(slab)
    assert g.rays == (vec((0, -1)), vec((0, 1)))
    assert lp_calls["prune"] > 0


def test_equal_ray_tuples_settle_cone_equal_without_lp(lp_calls) -> None:
    a = cone(2, [vec((1, 0)), vec((0, 1)), vec((1, 1))], minimal=False)
    b = ConeGen(2, a.rays)
    assert cone_equal(a, b)
    assert compare_cones(a, b) == (EQUAL, None)
    assert lp_calls["solve"] == 0
    # Unequal tuples of one cone still go through the LPs.
    assert cone_equal(a, cone(2, [vec((1, 0)), vec((0, 1))]))
    assert lp_calls["solve"] > 0
    assert not cone_equal(a, ConeGen(3, ()))
