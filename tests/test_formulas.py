"""Normal-cone constructions for sup families and quasi-convex members."""

import random
from fractions import Fraction

import pytest

import supcone.formulas as formulas
from supcone.errors import InputError, PreconditionError, RefusedError
from supcone.formulas import (
    AffineComposed1D,
    QCMember,
    SGrid,
    SmoothQCMember,
    SublevelOracleQC,
    SupFamily,
    cc_condition_check,
    dom_sup_normal_cone,
    family_from_functions,
    frechet_outer_cone,
    inclusion_witness_check,
    qc_sublevel_normal_cone,
    reach_weights,
    strict_sublevel_normal_cone,
    sublevel_normal_cone_formula,
    sublevel_normal_cone_intersection,
)
from supcone.functions import (
    Affine1,
    ImproperFunction,
    QuasiConvex1D,
    affine_function,
    max_affine,
)
from supcone.generate import random_affine_family, random_qc_instance
from supcone.geometry import (
    cone,
    cone_contains,
    cone_equal,
    halfspace,
    polyhedron,
)
from supcone.geometry.vec import vec

F = Fraction


def hs(normal, offset):
    return halfspace(vec(normal), F(offset))


def aff(slope, intercept):
    return affine_function(slope, intercept)


def corner_family() -> SupFamily:
    # sup(y1, y2) <= 0 is the nonpositive quadrant; corner at the origin.
    return family_from_functions([aff((1, 0), 0), aff((0, 1), 0)])


# -------------------------------------------------------- exact affine mode


def test_corner_cone_is_nonneg_quadrant() -> None:
    res = sublevel_normal_cone_formula(corner_family(), vec((0, 0)), 1)
    assert res.mode == "exact-affine"
    assert res.exact
    assert cone_equal(res.cone, cone(2, rays=[vec((1, 0)), vec((0, 1))]))


def test_corner_cone_independent_of_eps() -> None:
    fam = corner_family()
    a = sublevel_normal_cone_formula(fam, vec((0, 0)), F(1, 8))
    b = sublevel_normal_cone_formula(fam, vec((0, 0)), 5)
    assert cone_equal(a.cone, b.cone)


def test_edge_point_gives_single_ray() -> None:
    res = sublevel_normal_cone_formula(corner_family(), vec((0, -3)), 1)
    assert cone_equal(res.cone, cone(2, rays=[vec((1, 0))]))


def test_interior_point_gives_zero_cone() -> None:
    res = sublevel_normal_cone_formula(corner_family(), vec((-1, -1)), 1)
    assert res.cone.rays == ()


def test_improper_member_contributes_domain_normals() -> None:
    # Improper member living on {y1 <= 0} adds the domain normal e1.
    dom = polyhedron(2, [hs((1, 0), 0)])
    fam = SupFamily(2, (("a", aff((0, 1), 0)), ("imp", ImproperFunction(2, dom))))
    res = sublevel_normal_cone_formula(fam, vec((0, 0)), 1)
    assert cone_equal(res.cone, cone(2, rays=[vec((1, 0)), vec((0, 1))]))


def test_off_point_rejected() -> None:
    with pytest.raises(PreconditionError):
        sublevel_normal_cone_formula(corner_family(), vec((1, 0)), 1)


def test_nonpositive_eps_rejected() -> None:
    with pytest.raises(InputError):
        sublevel_normal_cone_formula(corner_family(), vec((0, 0)), 0)


def test_dimension_mismatch_rejected() -> None:
    with pytest.raises(InputError):
        sublevel_normal_cone_formula(corner_family(), vec((0, 0, 0)), 1)


def test_exact_affine_mode_needs_affine_members() -> None:
    f = max_affine(1, [((1,), 0), ((-1,), 0)])
    fam = family_from_functions([f])
    with pytest.raises(InputError):
        sublevel_normal_cone_formula(fam, vec((0,)), 1, mode="exact-affine")


def test_unknown_mode_rejected() -> None:
    with pytest.raises(InputError):
        sublevel_normal_cone_formula(corner_family(), vec((0, 0)), 1, mode="best")


# ------------------------------------------------------------- sampled mode


def test_sampled_abs_gives_full_line() -> None:
    f = max_affine(2, [((1, 0), 0), ((-1, 0), 0)])
    res = sublevel_normal_cone_formula(family_from_functions([f]), vec((0, 0)), 1)
    assert res.mode == "sampled"
    # [|y1| <= 0] = the y2 axis; its normal cone at any point is the y1 line.
    assert cone_equal(res.cone, cone(2, rays=[vec((1, 0)), vec((-1, 0))]))
    assert res.exact
    assert res.grid_stable is True
    assert res.oracle_agrees is True


def test_sampled_mode_matches_exact_affine_on_affine_data() -> None:
    cases = [(corner_family(), vec((0, 0)), F(1))]
    for seed in range(1000, 1020):
        g = random_affine_family(random.Random(seed))
        cases.append((g.family, g.point, g.epsilon))
    for fam, x, eps in cases:
        a = sublevel_normal_cone_formula(fam, x, eps, mode="exact-affine")
        b = sublevel_normal_cone_formula(fam, x, eps, mode="sampled")
        assert a.cone.rays == b.cone.rays


def test_sampled_without_certification_leaves_flags_unset() -> None:
    f = max_affine(2, [((1, 0), 0), ((-1, 0), 0)])
    res = sublevel_normal_cone_formula(
        family_from_functions([f]), vec((0, 0)), 1, certify=False
    )
    assert res.oracle_agrees is None
    assert not res.exact


# ------------------------------------------------------------ grid handling


def test_grid_validation() -> None:
    with pytest.raises(InputError):
        SGrid(())
    with pytest.raises(InputError):
        SGrid((F(0), F(1)))
    with pytest.raises(InputError):
        SGrid((F(2), F(1)))
    with pytest.raises(InputError):
        SGrid.geometric(base=1)


def test_grid_from_values_sorts_and_dedupes() -> None:
    g = SGrid.from_values(["1/2", 2, "1/2", 1])
    assert g.values == (F(1, 2), F(1), F(2))


# -------------------------------------------------------- intersection form


def test_intersection_matches_single_eps_on_polyhedral_data() -> None:
    fam = corner_family()
    single = sublevel_normal_cone_formula(fam, vec((0, 0)), 1)
    inter = sublevel_normal_cone_intersection(fam, vec((0, 0)), [1, F(1, 2), F(1, 4)])
    assert cone_equal(single.cone, inter.cone)
    assert inter.stabilized
    assert len(inter.per_eps) == 3


def test_intersection_rejects_duplicate_eps() -> None:
    with pytest.raises(InputError):
        sublevel_normal_cone_intersection(corner_family(), vec((0, 0)), [1, 1])


def test_intersection_needs_some_eps() -> None:
    with pytest.raises(InputError):
        sublevel_normal_cone_intersection(corner_family(), vec((0, 0)), [])


# ------------------------------------------------------------ strict variant


def test_strict_cone_matches_nonstrict_under_slater() -> None:
    fam = corner_family()  # (-1,-1) is strictly feasible
    strict = strict_sublevel_normal_cone(fam, vec((0, 0)), 1)
    plain = sublevel_normal_cone_formula(fam, vec((0, 0)), 1)
    assert cone_equal(strict.cone, plain.cone)


def test_strict_refuses_without_slater_point() -> None:
    # f = max(y1, -y1) = |y1| has [f < 0] empty.
    f = max_affine(1, [((1,), 0), ((-1,), 0)])
    with pytest.raises(RefusedError):
        strict_sublevel_normal_cone(family_from_functions([f]), vec((0,)), 1)


def test_strict_needs_a_proper_member() -> None:
    dom = polyhedron(1, [hs((1,), 0)])
    fam = SupFamily(1, (("imp", ImproperFunction(1, dom)),))
    with pytest.raises(PreconditionError):
        strict_sublevel_normal_cone(fam, vec((0,)), 1)


# ------------------------------------------------------------ domain variant


def dom_family() -> SupFamily:
    # Proper member on {y1 <= 0}, improper member on {y2 <= 0}:
    # dom(sup) is the intersection, the nonpositive quadrant.
    dom1 = polyhedron(2, [hs((1, 0), 0)])
    dom2 = polyhedron(2, [hs((0, 1), 0)])
    proper = max_affine(2, [((0, 0), 0)], domain=dom1)
    return SupFamily(2, (("p", proper), ("i", ImproperFunction(2, dom2))))


def test_dom_cone_at_corner() -> None:
    res = dom_sup_normal_cone(dom_family(), vec((0, 0)), 1)
    assert res.mode == "dom"
    assert cone_equal(res.cone, cone(2, rays=[vec((1, 0)), vec((0, 1))]))


def test_dom_cone_alpha_ones_matches_reach_weights() -> None:
    fam = dom_family()
    a = dom_sup_normal_cone(fam, vec((0, 0)), 1, alpha=None)
    b = dom_sup_normal_cone(fam, vec((0, 0)), 1, alpha="ones")
    assert cone_equal(a.cone, b.cone)


def test_dom_cone_alpha_below_reach_rejected() -> None:
    fam = dom_family()
    with pytest.raises(PreconditionError):
        dom_sup_normal_cone(fam, vec((0, 0)), 1, alpha={"p": F(1, 100)})


def test_dom_cone_alpha_wrong_keys_rejected() -> None:
    with pytest.raises(InputError):
        dom_sup_normal_cone(dom_family(), vec((0, 0)), 1, alpha={"zz": F(1)})


def test_dom_cone_off_domain_rejected() -> None:
    with pytest.raises(PreconditionError):
        dom_sup_normal_cone(dom_family(), vec((1, 0)), 1)


def test_dom_cone_needs_finite_sup() -> None:
    dom = polyhedron(1, [hs((1,), 0)])
    fam = SupFamily(1, (("i", ImproperFunction(1, dom)),))
    with pytest.raises(PreconditionError):
        dom_sup_normal_cone(fam, vec((0,)), 1)


def test_reach_weights_in_unit_interval() -> None:
    fam = family_from_functions([aff((1, 0), 0), aff((0, 1), -5)])
    w = reach_weights(fam, vec((0, 0)), 1)
    assert set(w) == {"f0", "f1"}
    assert w["f0"] == 1  # attains the sup
    assert 0 < w["f1"] < 1  # value -5, far below the sup
    assert w["f1"] == F(1, 9)  # eps/(2*5 - eps) with eps = 1


# ------------------------------------------------------ closure compatibility


def vee_profile() -> QuasiConvex1D:
    return QuasiConvex1D((F(0),), (Affine1(F(-1), F(0)), Affine1(F(1), F(0))), (F(0),))


def left_open_profile() -> QuasiConvex1D:
    # [q <= 0] = (-inf, 0): finite everywhere, jump to 1 at 0.
    return QuasiConvex1D((F(0),), (Affine1(F(1), F(0)), Affine1(F(1), F(1))), (F(1),))


def right_open_profile() -> QuasiConvex1D:
    # [q <= 0] = (0, inf)
    return QuasiConvex1D((F(0),), (Affine1(F(-1), F(1)), Affine1(F(-1), F(0))), (F(1),))


def test_cc_sup_family_always_certified() -> None:
    rep = cc_condition_check(corner_family())
    assert rep.verdict == "cc2-holds"
    assert rep.cc2_holds and rep.cc3_holds


def test_cc_profiles_vee_pair_holds() -> None:
    rep = cc_condition_check([vee_profile(), vee_profile()])
    assert rep.verdict == "cc2-holds"


def test_cc_profiles_detect_failure_with_witness() -> None:
    # Sublevels (-inf, 0) and (0, inf) miss each other, but their closures
    # share the origin: cl of the intersection is strictly smaller.
    rep = cc_condition_check([left_open_profile(), right_open_profile()])
    assert rep.verdict == "fails"
    assert not rep.cc2_holds and not rep.cc3_holds
    assert rep.witness == 0


def test_cc_profiles_cc3_without_cc2() -> None:
    # Decreasing toward 0 on the left, +inf right of 0, value 1 at 0:
    # [q <= 0] is empty (so cc3 holds trivially) but the lsc hull drops
    # q(0) to 0 and picks up the origin, so cc2 fails there.
    q = QuasiConvex1D((F(0),), (Affine1(F(-1), F(0)), None), (F(1),))
    rep = cc_condition_check([q])
    assert rep.verdict == "cc3-holds"
    assert rep.cc3_holds and not rep.cc2_holds
    assert rep.witness == 0


def test_cc_rejects_junk() -> None:
    with pytest.raises(InputError):
        cc_condition_check([1, 2])


# ---------------------------------------------------- quasi-convex sublevels


def smooth(direction, coeffs, root, shift=0) -> SmoothQCMember:
    return SmoothQCMember(
        vec(direction), F(shift), tuple(F(c) for c in coeffs), F(root)
    )


def two_halfspace_qc() -> SublevelOracleQC:
    # Members u and u^3 in the two coordinates, roots at 0:
    # sublevels {y1 <= 0} and {y2 <= 0}.
    m1 = smooth((1, 0), (0, 1), 0)
    m2 = smooth((0, 1), (0, 0, 0, 1), 0)
    return SublevelOracleQC(
        2,
        (
            QCMember("m1", m1.zero_sublevel(), m1),
            QCMember("m2", m2.zero_sublevel(), m2),
        ),
    )


def test_qc_corner_cone() -> None:
    qc = two_halfspace_qc()
    res = qc_sublevel_normal_cone(qc, vec((0, 0)), 1)
    assert res.mode == "qc"
    assert cone_equal(res.cone, cone(2, rays=[vec((1, 0)), vec((0, 1))]))


def test_qc_off_point_rejected() -> None:
    with pytest.raises(PreconditionError):
        qc_sublevel_normal_cone(two_halfspace_qc(), vec((1, 1)), 1)


def test_validated_qc_families_pass_cc3() -> None:
    verdicts = set()
    for seed in range(80):
        qc = random_qc_instance(random.Random(7000 + seed)).qc
        rep = cc_condition_check(qc)
        assert rep.cc3_holds and rep.verdict in ("cc2-holds", "cc3-holds")
        verdicts.add(rep.verdict)
    assert "cc2-holds" in verdicts


def test_open_member_sublevel_is_rejected_at_construction() -> None:
    # [q <= 0] = (-inf, 0) along y1, declared as its closure y1 <= 0
    ev = AffineComposed1D(vec((1, 0)), F(0), left_open_profile())
    with pytest.raises(InputError) as exc:
        SublevelOracleQC(2, (QCMember("m", polyhedron(2, [hs((1, 0), 0)]), ev),))
    assert str(exc.value) == (
        "member 'm': declared sublevel and evaluator disagree at "
        "(0, 0) (value 1, declared inside)"
    )


def test_qc_oracle_rejects_mismatched_declaration() -> None:
    m = smooth((1, 0), (0, 1), 0)
    wrong = polyhedron(2, [hs((-1, 0), 0)])  # complement halfspace
    with pytest.raises(InputError):
        SublevelOracleQC(2, (QCMember("m", wrong, m),))


def test_qc_oracle_evaluates_each_u_once(monkeypatch) -> None:
    # u = y1 - 1 with sublevel {u <= 0}: the check reads the end u = 0 and
    # one level on either side, whatever the dimension.
    calls = []
    real = SmoothQCMember.value_at
    monkeypatch.setattr(
        SmoothQCMember, "value_at", lambda self, u: calls.append(u) or real(self, u)
    )
    for dim in (2, 7):
        calls.clear()
        m = smooth((1,) + (0,) * (dim - 1), (0, 1), 0, shift=-1)
        SublevelOracleQC(dim, (QCMember("m", m.zero_sublevel(), m),))
        assert calls == [F(0), F(-1), F(1)]


def test_qc_oracle_names_the_first_disagreeing_probe() -> None:
    # The ends of the two intervals in u are probed before the gaps between
    # them: (1/4, 0), on the end of {y1 <= 1/4}, is inside, with u = 1/4 > 0.
    m = smooth((1, 0), (0, 1), 0)
    with pytest.raises(InputError) as exc:
        SublevelOracleQC(2, (QCMember("m", polyhedron(2, [hs((4, 0), 1)]), m),))
    assert str(exc.value) == (
        "member 'm': declared sublevel and evaluator disagree at "
        "(1/4, 0) (value 1/4, declared inside)"
    )


def test_difference_witness_steps_once_along_a_far_ray() -> None:
    # the half-line y1 >= 0, y2 = 0 is unbounded along (1, 0); the
    # closed-form step lands past the far row at once, on the point the
    # unit-step loop reached
    big = polyhedron(2, [hs((-1, 0), 0), hs((0, 1), 0), hs((0, -1), 0)])
    far = polyhedron(2, [hs((1, 0), 10**9)])
    assert formulas._poly_difference_witness(big, far) == vec((10**9 + 1, 0))
    # <(2, 1), ray> = 2: the least k with 2k > 7 is 4
    near = polyhedron(2, [hs((2, 1), 7)])
    assert formulas._poly_difference_witness(big, near) == vec((4, 0))
    # neither set holds the other: a point of the first outside the second
    assert formulas._poly_difference_witness(near, big) == vec((-1, 9))
    assert formulas._poly_difference_witness(far, far) is None


def test_qc_oracle_rejects_duplicate_ids() -> None:
    m = smooth((1, 0), (0, 1), 0)
    s = m.zero_sublevel()
    with pytest.raises(InputError):
        SublevelOracleQC(2, (QCMember("m", s, m), QCMember("m", s, m)))


# ------------------------------------------------------------ smooth members


def test_smooth_member_requires_root() -> None:
    with pytest.raises(InputError):
        smooth((1,), (1, 1), 0)  # p(0) = 1 != 0


def test_smooth_member_rejects_non_monotone() -> None:
    # p = u^2 has derivative 2u: odd-power term.
    with pytest.raises(InputError):
        smooth((1,), (0, 0, 1), 0)


def test_smooth_member_rejects_constant() -> None:
    with pytest.raises(InputError):
        smooth((1,), (0,), 0)


def test_smooth_member_decreasing_sense() -> None:
    m = smooth((1,), (0, -1), 0)  # p(u) = -u, decreasing
    assert not m.increasing
    s = m.zero_sublevel()
    # [-u <= 0] = [u >= 0]
    from supcone.geometry import poly_contains_point

    assert poly_contains_point(s, vec((3,)))
    assert not poly_contains_point(s, vec((-1,)))


def test_smooth_member_gradient_of_cubic() -> None:
    m = smooth((2, 0), (0, 3, 0, 1), 0)  # p(u) = u^3 + 3u along 2*y1
    g = m.gradient(vec((1, 0)))  # u = 2, p'(2) = 3*4 + 3 = 15, chain: 15*(2,0)
    assert g == vec((30, 0))


def test_affine_composed_profile_member() -> None:
    m = AffineComposed1D(vec((1, 1)), F(0), vee_profile())
    assert m.value(vec((2, 1))) == 3
    assert m.value(vec((-1, 1))) == 0
    with pytest.raises(InputError):
        AffineComposed1D(vec((0, 0)), F(0), vee_profile())


# --------------------------------------------------------- outer estimates


def test_frechet_cone_contains_qc_cone() -> None:
    qc = two_halfspace_qc()
    x = vec((0, 0))
    fc = frechet_outer_cone(qc, x, F(1, 4))
    inner = qc_sublevel_normal_cone(qc, x, F(1, 4))
    for r in inner.cone.rays:
        assert cone_contains(fc.cone, r)
    assert fc.gradient_hits > 0


def test_frechet_needs_smooth_members() -> None:
    m = AffineComposed1D(vec((1, 0)), F(0), vee_profile())
    s = polyhedron(2, [hs((1, 0), 0), hs((-1, 0), 0)])
    qc = SublevelOracleQC(2, (QCMember("m", s, m),))
    with pytest.raises(InputError):
        frechet_outer_cone(qc, vec((0, 0)), 1)


def test_inclusion_witness_certifies_halfspace_normals() -> None:
    m = smooth((1, 0), (0, 3, 0, 1), 0)  # u^3 + 3u, root 0
    rep = inclusion_witness_check(m, vec((0, 0)), F(1, 16))
    assert rep.rho == F(1, 4)
    assert rep.all_found
    assert rep.witnesses
    for w in rep.witnesses:
        assert w.distance <= rep.rho


def test_inclusion_witness_polyhedral_input() -> None:
    f = max_affine(1, [((1,), 0), ((-1,), 0)])
    rep = inclusion_witness_check(f, vec((0,)), F(1, 4))
    assert rep.all_found


def test_inclusion_witness_rejects_non_square_eps() -> None:
    m = smooth((1,), (0, 1), 0)
    with pytest.raises(InputError):
        inclusion_witness_check(m, vec((0,)), F(1, 2))


def test_inclusion_witness_rejects_infeasible_point() -> None:
    m = smooth((1,), (0, 1), 0)
    with pytest.raises(PreconditionError):
        inclusion_witness_check(m, vec((5,)), F(1, 4))
