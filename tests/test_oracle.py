"""Independent polyhedral cross-check for the cone constructions."""

from fractions import Fraction

import pytest

from supcone.errors import InputError, PreconditionError
from supcone.formulas import (
    QCMember,
    SmoothQCMember,
    SublevelOracleQC,
    SupFamily,
    family_from_functions,
)
from supcone.functions import ImproperFunction, affine_function, max_affine
from supcone.geometry import cone, cone_equal, halfspace, poly_equal, polyhedron
from supcone.geometry.vec import vec
from supcone.oracle import (
    EQUAL,
    INSIDE,
    VIOLATION,
    compare_cones,
    dom_polyhedron,
    polyhedron_normal_cone,
    sup_sublevel_polyhedron,
    verify_formula_instance,
)

F = Fraction


def hs(normal, offset):
    return halfspace(vec(normal), F(offset))


def test_polyhedron_normal_cone_box_corner() -> None:
    box = polyhedron(2, [hs((1, 0), 1), hs((-1, 0), 0), hs((0, 1), 1), hs((0, -1), 0)])
    n = polyhedron_normal_cone(box, vec((1, 1)))
    assert cone_equal(n, cone(2, rays=[vec((1, 0)), vec((0, 1))]))
    edge = polyhedron_normal_cone(box, vec((1, "1/2")))
    assert cone_equal(edge, cone(2, rays=[vec((1, 0))]))
    inside = polyhedron_normal_cone(box, vec(("1/2", "1/2")))
    assert inside.rays == ()


def test_polyhedron_normal_cone_needs_membership() -> None:
    box = polyhedron(1, [hs((1,), 1), hs((-1,), 0)])
    with pytest.raises(PreconditionError):
        polyhedron_normal_cone(box, vec((2,)))


def test_polyhedron_normal_cone_redundant_tight_row() -> None:
    # A duplicated tight constraint adds a parallel normal: same cone.
    a = polyhedron(2, [hs((1, 0), 0)])
    b = polyhedron(2, [hs((1, 0), 0), hs((2, 0), 0)])
    x = vec((0, 5))
    assert cone_equal(polyhedron_normal_cone(a, x), polyhedron_normal_cone(b, x))


def test_sup_sublevel_polyhedron_mixed_family() -> None:
    f = affine_function((1, 0), 0)
    imp = ImproperFunction(2, polyhedron(2, [hs((0, 1), 0)]))
    got = sup_sublevel_polyhedron([f, imp])
    want = polyhedron(2, [hs((1, 0), 0), hs((0, 1), 0)])
    assert poly_equal(got, want)


def test_sup_sublevel_polyhedron_level_shift() -> None:
    # [y <= 2] as the zero sublevel of y - 2
    f = affine_function((1,), -2)
    got = sup_sublevel_polyhedron([f])
    assert poly_equal(got, polyhedron(1, [hs((1,), 2)]))


def test_sup_sublevel_rejects_empty_family() -> None:
    with pytest.raises(InputError):
        sup_sublevel_polyhedron([])


def test_dom_polyhedron_intersects_domains() -> None:
    d1 = polyhedron(1, [hs((1,), 1)])
    d2 = polyhedron(1, [hs((-1,), 0)])
    f = max_affine(1, [((1,), 0)], domain=d1)
    imp = ImproperFunction(1, d2)
    got = dom_polyhedron([f, imp])
    assert poly_equal(got, polyhedron(1, [hs((1,), 1), hs((-1,), 0)]))


def test_compare_cones_verdicts() -> None:
    quad = cone(2, rays=[vec((1, 0)), vec((0, 1))])
    ray = cone(2, rays=[vec((1, 0))])
    verdict, witness = compare_cones(quad, quad)
    assert verdict == EQUAL and witness is None
    verdict, witness = compare_cones(ray, quad)
    assert verdict == INSIDE and witness is None
    verdict, witness = compare_cones(quad, ray)
    assert verdict == VIOLATION
    assert witness == vec((0, 1))


def test_verify_sublevel_instance_equal() -> None:
    fam = family_from_functions([affine_function((1, 0), 0), affine_function((0, 1), 0)])
    rep = verify_formula_instance(fam, vec((0, 0)), 1, which="sublevel", instance_id="t1")
    assert rep.verdict == EQUAL
    assert rep.instance_id == "t1"
    assert rep.witness is None
    assert cone_equal(rep.formula_cone, rep.oracle_cone)


def test_verify_sampled_max_affine_instance() -> None:
    f = max_affine(2, [((1, 1), 0), ((-1, 1), 0)])
    rep = verify_formula_instance(family_from_functions([f]), vec((0, 0)), 1)
    assert rep.verdict == EQUAL


def test_verify_dom_instance() -> None:
    dom = polyhedron(2, [hs((1, 0), 0)])
    fam = SupFamily(
        2,
        (
            ("p", max_affine(2, [((0, 0), 0)], domain=dom)),
            ("i", ImproperFunction(2, polyhedron(2, [hs((0, 1), 0)]))),
        ),
    )
    rep = verify_formula_instance(fam, vec((0, 0)), 1, which="dom")
    assert rep.verdict == EQUAL


def test_verify_qc_instance() -> None:
    m1 = SmoothQCMember(vec((1, 0)), F(0), (F(0), F(1)), F(0))
    m2 = SmoothQCMember(vec((0, 1)), F(0), (F(0), F(0), F(0), F(1)), F(0))
    qc = SublevelOracleQC(
        2,
        (
            QCMember("m1", m1.zero_sublevel(), m1),
            QCMember("m2", m2.zero_sublevel(), m2),
        ),
    )
    rep = verify_formula_instance(qc, vec((0, 0)), 1, which="qc")
    assert rep.verdict == EQUAL


def test_verify_unknown_kind() -> None:
    fam = family_from_functions([affine_function((1,), 0)])
    with pytest.raises(InputError):
        verify_formula_instance(fam, vec((0,)), 1, which="nope")
