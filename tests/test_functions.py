"""Extended-real polyhedral functions, 1-d quasi-convex profiles, closures."""

from fractions import Fraction

import pytest

from supcone.errors import InputError, RefusedError
from supcone.functions import (
    Affine1,
    EMPTY_INTERVAL,
    ImproperFunction,
    Interval,
    QuasiConvex1D,
    affine_function,
    convex_sublevel_closure_identity,
    eps_normal_set,
    eps_subdifferential,
    evaluate,
    indicator,
    interval_equal,
    max_affine,
    qc1d_closed_hull,
    qc1d_sublevel,
    sublevel_set,
)
from supcone.geometry import (
    NEG_INF,
    POS_INF,
    generator_member,
    halfspace,
    poly_contains_point,
    poly_equal,
    polyhedron,
)
from supcone.geometry.vec import vec

F = Fraction


def hs(normal, offset):
    return halfspace(vec(normal), F(offset))


def aff1(slope, intercept) -> Affine1:
    return Affine1(F(slope), F(intercept))


# ---------------------------------------------------------------- evaluate


def test_evaluate_affine() -> None:
    f = affine_function((1, -2), 3)
    assert evaluate(f, vec((1, 1))) == 2
    assert evaluate(f, vec(("1/2", 0))) == F(7, 2)


def test_evaluate_max_affine_with_domain() -> None:
    dom = polyhedron(1, [hs((1,), 1)])
    f = max_affine(1, [((1,), 0), ((-1,), 0)], domain=dom)
    assert evaluate(f, vec((1,))) == 1
    assert evaluate(f, vec((-3,))) == 3
    assert evaluate(f, vec((2,))) == POS_INF


def test_evaluate_indicator() -> None:
    box = polyhedron(1, [hs((1,), 1), hs((-1,), 0)])
    f = indicator(box)
    assert evaluate(f, vec(("1/2",))) == 0
    assert evaluate(f, vec((2,))) == POS_INF


def test_evaluate_improper() -> None:
    dom = polyhedron(1, [hs((1,), 0)])
    f = ImproperFunction(1, dom)
    assert evaluate(f, vec((0,))) == NEG_INF
    assert evaluate(f, vec((1,))) == POS_INF


def test_max_affine_needs_a_piece() -> None:
    with pytest.raises(InputError):
        max_affine(2, [])


# ------------------------------------------------------------- sublevels


def test_sublevel_set_of_abs() -> None:
    # [|y| <= 2] as the zero sublevel of |y| - 2
    f = max_affine(1, [((1,), -2), ((-1,), -2)])
    s = sublevel_set(f)
    assert poly_contains_point(s, vec((2,)))
    assert poly_contains_point(s, vec((-2,)))
    assert not poly_contains_point(s, vec(("5/2",)))


def test_sublevel_set_respects_domain() -> None:
    dom = polyhedron(1, [hs((-1,), 0)])
    f = max_affine(1, [((0,), -1)], domain=dom)
    s = sublevel_set(f)
    assert poly_equal(s, dom)


# ------------------------------------------------- epsilon subdifferential


def test_eps_subdifferential_abs_at_origin() -> None:
    f = max_affine(1, [((1,), 0), ((-1,), 0)])
    g = eps_subdifferential(f, vec((0,)), 0)
    # d|.|(0) = [-1, 1] regardless of epsilon at the kink
    assert generator_member(g, vec((1,))) is not None
    assert generator_member(g, vec((-1,))) is not None
    assert generator_member(g, vec((2,))) is None


def test_eps_subdifferential_grows_with_eps() -> None:
    f = max_affine(1, [((1,), 0), ((-1,), 0)])
    at_one_exact = eps_subdifferential(f, vec((1,)), 0)
    at_one_loose = eps_subdifferential(f, vec((1,)), 2)
    # At x=1 only slope +1 is active; with eps=2 the slope -1 piece joins.
    assert generator_member(at_one_exact, vec((-1,))) is None
    assert generator_member(at_one_loose, vec((-1,))) is not None
    assert generator_member(at_one_loose, vec((1,))) is not None


def test_eps_subdifferential_subgradient_inequality() -> None:
    # Every g in d_eps f(x) satisfies f(y) >= f(x) + <g, y-x> - eps.
    f = max_affine(2, [((1, 0), 0), ((0, 1), 0), ((-1, -1), 1)])
    x = vec((0, 0))
    eps = F(1, 2)
    g = eps_subdifferential(f, x, eps)
    fx = evaluate(f, x)
    probes = [vec((1, 0)), vec((0, -2)), vec(("1/3", "1/5")), vec((-1, 4))]
    for p in list(g.points):
        for y in probes:
            fy = evaluate(f, y)
            lhs = fy - fx + eps
            rhs = sum(p[k] * (y[k] - x[k]) for k in range(2))
            assert lhs >= rhs


def test_eps_subdifferential_empty_off_domain() -> None:
    dom = polyhedron(1, [hs((1,), 0)])
    f = max_affine(1, [((1,), 0)], domain=dom)
    g = eps_subdifferential(f, vec((1,)), 1)
    assert g.points == () and g.rays == ()


def test_eps_subdifferential_rejects_negative_eps() -> None:
    f = affine_function((1,), 0)
    with pytest.raises(InputError):
        eps_subdifferential(f, vec((0,)), -1)


def test_eps_normal_set_is_indicator_subdifferential() -> None:
    box = polyhedron(2, [hs((1, 0), 1), hs((-1, 0), 0), hs((0, 1), 1), hs((0, -1), 0)])
    x = vec((1, "1/2"))
    eps = F(1, 4)
    n = eps_normal_set(box, x, eps)
    d = eps_subdifferential(indicator(box), x, eps)
    # Same object by definition: <v, y-x> <= eps over the box.
    for p in list(n.points) + [vec((0, 0))]:
        assert generator_member(d, p) is not None
    for p in list(d.points):
        assert generator_member(n, p) is not None


def test_eps_normal_set_zero_eps_at_corner() -> None:
    quad = polyhedron(2, [hs((-1, 0), 0), hs((0, -1), 0)])
    n = eps_normal_set(quad, vec((0, 0)), 0)
    assert generator_member(n, vec((-2, -3))) is not None
    assert generator_member(n, vec((1, 0))) is None


# ------------------------------------------------------------ 1-d profiles


def test_qc1d_validates_vee() -> None:
    q = QuasiConvex1D((F(0),), (aff1(-1, 0), aff1(1, 0)), (F(0),))
    assert q.value(F(-2)) == 2
    assert q.value(F(0)) == 0
    assert q.value(F(3)) == 3


def test_qc1d_rejects_camel_shape() -> None:
    # w-shape: two local minima; [f <= 0] would be disconnected.
    with pytest.raises(InputError):
        QuasiConvex1D(
            (F(-1), F(0), F(1)),
            (aff1(-1, -1), aff1(1, 1), aff1(-1, 1), aff1(1, -1)),
            (F(0), F(1), F(0)),
        )


def test_qc1d_rejects_disconnected_by_gap() -> None:
    # +inf gap between two finite wings splits sublevels.
    with pytest.raises(InputError):
        QuasiConvex1D(
            (F(0), F(1)),
            (aff1(-1, 0), None, aff1(1, -1)),
            (F(0), F(0)),
        )


def test_qc1d_rejects_improper() -> None:
    with pytest.raises(InputError):
        QuasiConvex1D((F(0),), (None, None), (None,))


def test_qc1d_rejects_jump_at_the_minimum() -> None:
    # |u| with value 5 at 0: [f <= 1] = [-1, 0) union (0, 1] splits.
    with pytest.raises(InputError):
        QuasiConvex1D((F(0),), (aff1(-1, 0), aff1(1, 0)), (F(5),))


def test_qc1d_accepts_jump_on_monotone_stretch() -> None:
    # Decreasing through 0 with an upward jump at the breakpoint: left
    # limit 3, value 2, right limit -1. Every sublevel stays an interval.
    q = QuasiConvex1D((F(0),), (aff1(-1, 3), aff1(1, -1)), (F(2),))
    assert q.value(F(0)) == 2
    s = qc1d_sublevel(q)
    assert interval_equal(s, Interval(F(0), False, F(1), True))


def test_qc1d_sublevel_of_vee() -> None:
    # [|u| <= 2] and [|u| <= -1] as the zero sublevels of |u| - 2 and |u| + 1
    q = QuasiConvex1D((F(0),), (aff1(-1, -2), aff1(1, -2)), (F(-2),))
    s = qc1d_sublevel(q)
    assert interval_equal(s, Interval(F(-2), True, F(2), True))
    q = QuasiConvex1D((F(0),), (aff1(-1, 1), aff1(1, 1)), (F(1),))
    assert qc1d_sublevel(q).is_empty


def test_qc1d_sublevel_open_end_from_domain() -> None:
    # Finite on (0, inf) via piece u, +inf at 0 and left of it.
    q = QuasiConvex1D((F(0),), (None, aff1(1, -3)), (None,))
    s = qc1d_sublevel(q)
    assert interval_equal(s, Interval(F(0), False, F(3), True))


def test_qc1d_closed_hull_drops_jump() -> None:
    q = QuasiConvex1D((F(0),), (aff1(-1, 3), aff1(1, -1)), (F(2),))
    h = qc1d_closed_hull(q)
    # lsc hull at the breakpoint: min(2, 3, -1) = -1.
    assert h.value(F(0)) == -1
    assert h.value(F(2)) == q.value(F(2))


# ------------------------------------------------------- closure identity


def test_closure_identity_polyhedral_always_holds() -> None:
    f = max_affine(2, [((1, 0), -1), ((0, 1), -1)])
    rep = convex_sublevel_closure_identity(f)
    assert rep.holds
    assert rep.witness is None


def test_closure_identity_holds_for_vee() -> None:
    q = QuasiConvex1D((F(0),), (aff1(-1, 0), aff1(1, 0)), (F(0),))
    rep = convex_sublevel_closure_identity(q)
    assert rep.holds


def test_closure_identity_holds_across_a_jump() -> None:
    q = QuasiConvex1D((F(0),), (aff1(-1, 3), aff1(1, -1)), (F(2),))
    # [q <= 0] = (0, 1]; the hull drops q(0) to -1, so [hull <= 0] = [0, 1],
    # which is exactly the closure of (0, 1].
    rep = convex_sublevel_closure_identity(q)
    assert rep.holds
    assert interval_equal(rep.lhs, Interval(F(0), True, F(1), True))
    assert interval_equal(rep.lhs, rep.rhs)


def test_closure_identity_holds_on_open_domain() -> None:
    # Finite only on (0, inf): [q <= 0] = (0, 1], closure [0, 1]; the lsc
    # hull gives the breakpoint the right-limit value -1, so the sides agree.
    q = QuasiConvex1D((F(0),), (None, aff1(1, -1)), (None,))
    rep = convex_sublevel_closure_identity(q)
    assert rep.holds


def test_closure_identity_witness_reporting() -> None:
    # A genuine gap cannot arise from a validated profile (the hull only
    # moves isolated breakpoint values), so exercise the witness picker on
    # a hand-built report pair instead.
    from supcone.functions import _interval_difference_point

    big = Interval(F(0), True, F(1), True)
    small = Interval(F(0), False, F(1), True)
    assert _interval_difference_point(big, small) == 0
    assert _interval_difference_point(big, big) is None


def test_closure_identity_refuses_empty_sublevel() -> None:
    q = QuasiConvex1D((F(0),), (aff1(-1, 2), aff1(1, 2)), (F(2),))
    with pytest.raises(RefusedError):
        convex_sublevel_closure_identity(q)


def test_interval_helpers() -> None:
    a = Interval(F(0), True, F(2), False)
    b = Interval(F(1), False, None, False)
    c = a.intersect(b)
    assert interval_equal(c, Interval(F(1), False, F(2), False))
    assert EMPTY_INTERVAL.is_empty
    assert a.closure().hi_closed
    assert not a.contains(F(2))
    assert a.contains(F(0))
