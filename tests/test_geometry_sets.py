"""Polyhedra, generator sets, and the conversions between them."""

from fractions import Fraction

import pytest

from supcone.errors import InputError, InternalCheckError
from supcone.geometry import lp
from supcone.geometry.sets import (
    GeneratorSet,
    cone,
    cone_contains,
    cone_equal,
    cone_polar,
    closed_conv_hull_union,
    empty_generators,
    empty_polyhedron,
    generator_member,
    generators,
    h_to_v,
    halfspace,
    intersect,
    is_empty_poly,
    lp_solve,
    minkowski_sum,
    poly_contains_generators,
    poly_contains_point,
    poly_equal,
    polyhedron,
    recession_cone,
    recession_of_generators,
    sup_distance_to_cone,
    support_function,
    v_to_h,
    whole_space,
)
from supcone.geometry import NEG_INF, POS_INF
from supcone.geometry.vec import vec

F = Fraction


def hs(normal, offset):
    return halfspace(vec(normal), F(offset))


def unit_box() -> object:
    return polyhedron(
        2,
        [hs((1, 0), 1), hs((-1, 0), 0), hs((0, 1), 1), hs((0, -1), 0)],
    )


def test_polyhedron_rejects_dim_mismatch() -> None:
    with pytest.raises(InputError):
        polyhedron(2, [hs((1, 0, 0), 1)])


def test_membership_and_emptiness() -> None:
    box = unit_box()
    assert poly_contains_point(box, vec(("1/2", "1/2")))
    assert poly_contains_point(box, vec((1, 0)))
    assert not poly_contains_point(box, vec((2, 0)))
    assert not is_empty_poly(box)
    assert is_empty_poly(empty_polyhedron(2))
    assert not is_empty_poly(whole_space(3))


def test_lp_solve_on_box() -> None:
    box = unit_box()
    res = lp_solve(vec((1, 1)), box)
    assert res.status == lp.OPTIMAL
    assert res.value == 2
    assert res.point == vec((1, 1))


def test_lp_solve_unbounded_direction() -> None:
    quad = polyhedron(2, [hs((1, 0), 0), hs((0, 1), 0)])
    # quad = {y <= 0 coordinatewise}; maximizing -y1 is unbounded.
    res = lp_solve(vec((-1, 0)), quad)
    assert res.status == lp.UNBOUNDED
    assert res.ray is not None
    assert res.ray[0] < 0


@pytest.mark.parametrize(
    "malformed",
    [lp.EqLpResult(lp.OPTIMAL), lp.EqLpResult(lp.UNBOUNDED, point=[F(0)] * 6)],
)
def test_lp_solve_rejects_malformed_simplex_result(monkeypatch, malformed) -> None:
    monkeypatch.setattr(lp, "solve_min_eq", lambda rows, rhs, cost: malformed)
    with pytest.raises(InternalCheckError):
        lp_solve(vec((1, 1)), unit_box())


def test_sup_distance_rejects_malformed_simplex_result(monkeypatch) -> None:
    monkeypatch.setattr(lp, "solve_min_eq", lambda rows, rhs, cost: lp.EqLpResult(lp.INFEASIBLE))
    with pytest.raises(InternalCheckError):
        sup_distance_to_cone(vec((1, 0)), cone(2, [vec((0, 1))]))


def test_intersect_dim_check() -> None:
    with pytest.raises(InputError):
        intersect(whole_space(2), whole_space(3))


def test_h_to_v_box_vertices() -> None:
    g = h_to_v(unit_box())
    assert set(g.points) == {vec((0, 0)), vec((1, 0)), vec((0, 1)), vec((1, 1))}
    assert g.rays == ()


def test_h_to_v_empty() -> None:
    g = h_to_v(empty_polyhedron(2))
    assert g.points == () and g.rays == ()


def test_v_to_h_round_trip_box() -> None:
    box = unit_box()
    assert poly_equal(v_to_h(h_to_v(box)), box)


def test_v_to_h_round_trip_unbounded() -> None:
    p = polyhedron(2, [hs((1, 1), 0), hs((1, -1), 0)])
    # Contains the ray cone{(-1,0)} plus width; round trip preserves the set.
    assert poly_equal(v_to_h(h_to_v(p)), p)


def test_generators_minimalization() -> None:
    g = generators(
        2,
        points=[vec((0, 0)), vec((1, 1)), vec(("1/2", "1/2")), vec((2, 2))],
        rays=[vec((1, 0)), vec((2, 0)), vec((1, 1))],
    )
    # Points on the (1,1) recession ray collapse into the base point;
    # the duplicate-direction ray (2,0) drops.
    assert set(g.points) == {vec((0, 0))}
    assert set(g.rays) == {vec((1, 0)), vec((1, 1))}


def test_generator_member_split() -> None:
    g = generators(2, points=[vec((0, 0)), vec((0, 2))], rays=[vec((1, 0))])
    assert generator_member(g, vec((3, 1))) is not None
    assert generator_member(g, vec((-1, 0))) is None
    assert generator_member(g, vec((0, 3))) is None


def test_cone_contains_and_equal() -> None:
    c = cone(2, rays=[vec((1, 0)), vec((0, 1))])
    assert cone_contains(c, vec((2, 3)))
    assert cone_contains(c, vec((0, 0)))
    assert not cone_contains(c, vec((-1, 0)))
    d = cone(2, rays=[vec((0, 2)), vec((3, 0)), vec((1, 1))])
    assert cone_equal(c, d)
    assert not cone_equal(c, cone(2, rays=[vec((1, 0))]))


def test_cone_polar_quadrant() -> None:
    c = cone(2, rays=[vec((1, 0)), vec((0, 1))])
    polar = cone_polar(c)
    # polar = {v : <v, y> <= 0 for all y in c} = nonpositive quadrant
    assert cone_equal(polar, cone(2, rays=[vec((-1, 0)), vec((0, -1))]))
    assert cone_equal(cone_polar(polar), c)


def test_recession_cone_of_slab() -> None:
    slab = polyhedron(2, [hs((0, 1), 1), hs((0, -1), 1)])
    rc = recession_cone(slab)
    assert cone_contains(rc, vec((1, 0)))
    assert cone_contains(rc, vec((-5, 0)))
    assert not cone_contains(rc, vec((0, 1)))


def test_recession_cone_skips_emptiness_lp_when_origin_inside(monkeypatch) -> None:
    from supcone.geometry import sets

    def no_lp(poly):
        raise AssertionError("emptiness LP run on a polyhedron that contains the origin")

    monkeypatch.setattr(sets, "is_empty_poly", no_lp)
    slab = polyhedron(2, [hs((0, 1), 1), hs((0, -1), 1)])
    assert cone_equal(recession_cone(slab), cone(2, rays=[vec((1, 0)), vec((-1, 0))]))


def test_recession_of_generators_matches_rays() -> None:
    g = generators(2, points=[vec((1, 1))], rays=[vec((1, 0)), vec((1, 1))])
    rc = recession_of_generators(g)
    assert cone_equal(rc, cone(2, rays=[vec((1, 0)), vec((1, 1))]))


def test_closed_conv_hull_union_two_segments() -> None:
    a = generators(1, points=[vec((0,)), vec((1,))])
    b = generators(1, points=[vec((3,)), vec((4,))])
    u = closed_conv_hull_union([a, b], minimal=True)
    assert set(u.points) == {vec((0,)), vec((4,))}


def test_closed_conv_hull_union_skips_empty() -> None:
    a = generators(2, points=[vec((0, 0))], rays=[vec((1, 0))])
    u = closed_conv_hull_union([a, empty_generators(2)], minimal=True)
    assert set(u.points) == {vec((0, 0))}
    assert set(u.rays) == {vec((1, 0))}


def test_minkowski_sum_box_plus_ray() -> None:
    seg = generators(2, points=[vec((0, 0)), vec((1, 0))])
    ray = generators(2, points=[vec((0, 0))], rays=[vec((0, 1))])
    s = minkowski_sum(seg, ray)
    p = v_to_h(s)
    assert poly_contains_point(p, vec(("1/2", 7)))
    assert not poly_contains_point(p, vec((0, -1)))


def test_support_function_values() -> None:
    g = h_to_v(unit_box())
    assert support_function(g, vec((1, 1))) == 2
    assert support_function(g, vec((-1, 0))) == 0
    ray = generators(2, points=[vec((0, 0))], rays=[vec((1, 0))])
    assert support_function(ray, vec((1, 0))) == POS_INF
    assert support_function(ray, vec((-1, 1))) == 0
    assert support_function(empty_generators(2), vec((1, 0))) == NEG_INF


def test_poly_contains_generators_checks_rays() -> None:
    quad = polyhedron(2, [hs((-1, 0), 0), hs((0, -1), 0)])
    inside = generators(2, points=[vec((1, 1))], rays=[vec((1, 0))])
    assert poly_contains_generators(quad, inside)
    escapes = generators(2, points=[vec((1, 1))], rays=[vec((-1, 0))])
    assert not poly_contains_generators(quad, escapes)


def test_poly_equal_different_presentations() -> None:
    a = polyhedron(2, [hs((1, 0), 1), hs((2, 0), 2), hs((-1, 0), 0)])
    b = polyhedron(2, [hs((1, 0), 1), hs((-1, 0), 0)])
    assert poly_equal(a, b)
    assert not poly_equal(a, whole_space(2))


def test_generator_set_is_hashable_value() -> None:
    g = generators(2, points=[vec((0, 0))])
    assert isinstance(g, GeneratorSet)
    assert g == generators(2, points=[vec((0, 0))])
