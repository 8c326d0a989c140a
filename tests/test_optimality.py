"""Certificate checkers for convex, semi-infinite linear, and qc programs."""

import random
from fractions import Fraction

import pytest

from supcone import functions
from supcone.errors import InputError, PreconditionError
from supcone.formulas import (
    AffineComposed1D,
    QCMember,
    SmoothQCMember,
    SublevelOracleQC,
    family_from_functions,
    inclusion_witness_check,
)
from supcone.functions import Affine1, QuasiConvex1D, affine_function, max_affine
from supcone.generate import random_direction, random_point
from supcone.geometry import halfspace, polyhedron
from supcone.geometry.vec import dot, vec, vscale
from supcone.optimality import (
    CircleSampler,
    LinearSIPInstance,
    ProgramInstance,
    QCProgram,
    Qualification,
    check_necessary_qc,
    check_optimal_convex,
    check_sip_linear,
    minimize_objective,
    verify_certificate,
)
from test_recession_rays import LINE
from test_single_evaluation import count_calls

F = Fraction


def hs(normal, offset):
    return halfspace(vec(normal), F(offset))


def corner_program(objective_slope) -> ProgramInstance:
    # Feasible set: nonpositive quadrant; candidate: the corner.
    fam = family_from_functions([affine_function((1, 0), 0), affine_function((0, 1), 0)])
    return ProgramInstance(
        objective=affine_function(objective_slope, 0),
        family=fam,
        point=vec((0, 0)),
        qualification=Qualification("objective-continuous", vec((-1, -1))),
    )


# ------------------------------------------------------------ convex programs


def test_optimal_at_corner() -> None:
    # Minimizing -y1 - y2 over the nonpositive quadrant peaks at the origin.
    rep = check_optimal_convex(corner_program((-1, -1)), 1)
    assert rep.verdict == "optimal"
    assert rep.certificate is not None
    assert rep.objective_at_point == 0
    assert verify_certificate(corner_program((-1, -1)), rep.certificate)


def test_not_optimal_with_improving_ray() -> None:
    # Minimizing +y1 pushes y1 to -inf: unbounded, candidate not optimal.
    rep = check_optimal_convex(corner_program((1, 0)), 1)
    assert rep.verdict == "not-optimal"
    assert rep.improving_ray is not None


def test_not_optimal_with_better_point() -> None:
    # Objective max(y1 + y2, -1): bounded below by -1 on the quadrant,
    # attained away from the corner.
    fam = family_from_functions([affine_function((1, 0), 0), affine_function((0, 1), 0)])
    prog = ProgramInstance(
        objective=max_affine(2, [((1, 1), 0), ((0, 0), -1)]),
        family=fam,
        point=vec((0, 0)),
        qualification=Qualification("objective-continuous", vec((-1, -1))),
    )
    rep = check_optimal_convex(prog, 1)
    assert rep.verdict == "not-optimal"
    assert rep.improving_point is not None
    assert rep.best_value == -1
    assert rep.objective_at_point == 0


def test_candidate_outside_objective_domain() -> None:
    dom = polyhedron(2, [hs((1, 0), -1)])  # y1 <= -1 excludes the corner
    fam = family_from_functions([affine_function((1, 0), 0), affine_function((0, 1), 0)])
    prog = ProgramInstance(
        objective=max_affine(2, [((0, 0), 0)], domain=dom),
        family=fam,
        point=vec((0, 0)),
        qualification=Qualification("objective-continuous", vec((-2, -2))),
    )
    with pytest.raises(PreconditionError):
        check_optimal_convex(prog, 1)


def test_bad_qualification_witness() -> None:
    fam = family_from_functions([affine_function((1, 0), 0), affine_function((0, 1), 0)])
    prog = ProgramInstance(
        objective=affine_function((-1, -1), 0),
        family=fam,
        point=vec((0, 0)),
        qualification=Qualification("objective-continuous", vec((5, 5))),  # infeasible
    )
    with pytest.raises(PreconditionError):
        check_optimal_convex(prog, 1)


def test_unknown_qualification_kind() -> None:
    fam = family_from_functions([affine_function((1, 0), 0)])
    prog = ProgramInstance(
        objective=affine_function((-1, 0), 0),
        family=fam,
        point=vec((0, 0)),
        qualification=Qualification("vibes", vec((-1, 0))),
    )
    with pytest.raises(InputError):
        check_optimal_convex(prog, 1)


def test_certificate_tamper_detected() -> None:
    import dataclasses

    prog = corner_program((-1, -1))
    rep = check_optimal_convex(prog, 1)
    cert = rep.certificate
    bad = dataclasses.replace(cert, q=vec((17, 0)))
    assert not verify_certificate(prog, bad)


def test_minimize_objective_direct() -> None:
    status, value, point, _ray = minimize_objective(corner_program((-1, -1)))
    assert status == "optimal"
    assert value == 0
    assert dot(vec((-1, -1)), point) == 0


# --------------------------------------------------------------- linear SIP


def test_sip_finite_optimal() -> None:
    # min -y1 - y2 s.t. y1 <= 1, y2 <= 1 at (1, 1).
    inst = LinearSIPInstance(
        dim=2,
        cost=vec((-1, -1)),
        point=vec((1, 1)),
        constraints=(
            (vec((1, 0)), F(1)),
            (vec((0, 1)), F(1)),
        ),
    )
    rep = check_sip_linear(inst)
    assert rep.verdict == "optimal"
    assert rep.residuals[-1] == 0
    assert rep.multipliers is not None
    # -cost = sum coeff * a_i over active constraints
    total = [F(0), F(0)]
    for idx, coeff in rep.multipliers:
        a = inst.constraints[int(idx)][0]
        total = [total[k] + coeff * a[k] for k in range(2)]
    assert tuple(total) == vec((1, 1))


def test_sip_finite_descent() -> None:
    inst = LinearSIPInstance(
        dim=2,
        cost=vec((0, 1)),
        point=vec((1, 1)),
        constraints=((vec((1, 0)), F(1)), (vec((0, 1)), F(1))),
    )
    rep = check_sip_linear(inst)
    assert rep.verdict == "not-optimal"
    assert rep.improving_ray is not None
    # The ray must be feasible for the active constraints and descend.
    assert dot(inst.cost, rep.improving_ray) < 0


def test_sip_infeasible_candidate_rejected() -> None:
    inst = LinearSIPInstance(
        dim=2,
        cost=vec((1, 0)),
        point=vec((5, 0)),
        constraints=((vec((1, 0)), F(1)),),
    )
    with pytest.raises(PreconditionError):
        check_sip_linear(inst)


def test_sip_circle_vertex_certified() -> None:
    # Feasible set: intersection of <a(u), y> <= 1 over the rational circle;
    # (1, 0) is touched by the u = 0 constraint a = (1, 0).
    inst = LinearSIPInstance(
        dim=2,
        cost=vec((-1, 0)),
        point=vec((1, 0)),
        sampler=CircleSampler(),
        levels=(1, 2, 3),
    )
    rep = check_sip_linear(inst)
    assert rep.verdict == "optimal"
    assert rep.residuals[-1] == 0
    assert rep.levels == (1, 2, 3)


def test_sip_circle_residuals_non_increasing() -> None:
    # Optimum direction (1, 1)/sqrt2 is irrational: never sampled exactly,
    # residuals must shrink monotonically and the run stays inconclusive.
    inst = LinearSIPInstance(
        dim=2,
        cost=vec((-1, -1)),
        point=vec((1, 0)),
        sampler=CircleSampler(),
        levels=(2, 3, 4, 5),
    )
    rep = check_sip_linear(inst)
    assert rep.verdict == "inconclusive"
    for a, b in zip(rep.residuals, rep.residuals[1:]):
        assert b <= a
    assert all(r > 0 for r in rep.residuals)


@pytest.mark.parametrize(
    "inst, want",
    [
        # two unit normals listed against their lex order
        (
            LinearSIPInstance(
                dim=2,
                cost=vec((-1, -2)),
                point=vec((0, 0)),
                constraints=((vec((1, 0)), F(0)), (vec((0, 1)), F(0))),
            ),
            ((F(0), F(1)), (F(1), F(2))),
        ),
        # a normal that is not primitive
        (
            LinearSIPInstance(
                dim=2,
                cost=vec((-1, 0)),
                point=vec((0, 0)),
                constraints=((vec(("1/2", 0)), F(0)),),
            ),
            ((F(0), F(2)),),
        ),
        # the circle sampler's u = 1/2 normal, (3/5, 4/5)
        (
            LinearSIPInstance(
                dim=2,
                cost=vec(("-3/5", "-4/5")),
                point=vec(("3/5", "4/5")),
                sampler=CircleSampler(),
                levels=(2, 3, 4),
            ),
            ((F(1, 2), F(1)),),
        ),
    ],
)
def test_sip_multipliers_belong_to_their_constraints(inst, want) -> None:
    rep = check_sip_linear(inst)
    assert rep.verdict == "optimal"
    assert rep.multipliers == want
    total = [F(0), F(0)]
    for key, m in rep.multipliers:
        if inst.constraints is not None:
            a = inst.constraints[int(key)][0]
        else:
            a = ((1 - key * key) / (1 + key * key), 2 * key / (1 + key * key))
        total = [t + m * c for t, c in zip(total, a)]
    assert tuple(total) == vscale(F(-1), inst.cost)


def test_sip_validation() -> None:
    with pytest.raises(InputError):
        LinearSIPInstance(dim=2, cost=vec((1, 0)), point=vec((0, 0)))
    with pytest.raises(InputError):
        LinearSIPInstance(
            dim=3, cost=vec((1, 0, 0)), point=vec((0, 0, 0)), sampler=CircleSampler()
        )
    with pytest.raises(InputError):
        LinearSIPInstance(
            dim=2,
            cost=vec((1, 0)),
            point=vec((0, 0)),
            sampler=CircleSampler(),
            levels=(3, 2),
        )


def test_circle_sampler_points_on_circle_and_nested() -> None:
    s = CircleSampler()
    lvl2 = s.points(2)
    for a, b in lvl2:
        assert a[0] * a[0] + a[1] * a[1] == 1
        assert b == 1
    params2 = {a for a, _ in lvl2}
    params3 = {a for a, _ in s.points(3)}
    assert params2 < params3
    assert (vec((1, 0)), F(1)) in lvl2  # u = 0


# ------------------------------------------------------------- qc necessary


def qc_box() -> SublevelOracleQC:
    # y1 <= 0 via u; y2 <= 0 via u^3 + u: two smooth members.
    m1 = SmoothQCMember(vec((1, 0)), F(0), (F(0), F(1)), F(0))
    m2 = SmoothQCMember(vec((0, 1)), F(0), (F(0), F(1), F(0), F(1)), F(0))
    return SublevelOracleQC(
        2,
        (
            QCMember("m1", m1.zero_sublevel(), m1),
            QCMember("m2", m2.zero_sublevel(), m2),
        ),
    )


def test_qc_necessary_condition_holds() -> None:
    prog = QCProgram(
        objective=affine_function((-1, -1), 0),
        constraints=qc_box(),
        point=vec((0, 0)),
    )
    rep = check_necessary_qc(prog, F(1, 4))
    assert rep.verdict == "condition-holds"
    assert rep.certificate is not None
    assert rep.outer_verified is True


def test_qc_necessary_flags_improvable_point() -> None:
    prog = QCProgram(
        objective=affine_function((1, 0), 0),
        constraints=qc_box(),
        point=vec((0, 0)),
    )
    rep = check_necessary_qc(prog, F(1, 4))
    assert rep.verdict == "not-optimal"
    assert rep.improving_point is not None
    # The reported point must actually be feasible and better.
    y = rep.improving_point
    assert all(m.evaluator.value(y) <= 0 for m in prog.constraints.members)
    assert dot(vec((1, 0)), y) < 0


def test_qc_necessary_off_domain_candidate() -> None:
    dom = polyhedron(2, [hs((1, 0), -1)])
    prog = QCProgram(
        objective=max_affine(2, [((0, 0), 0)], domain=dom),
        constraints=qc_box(),
        point=vec((0, 0)),
    )
    with pytest.raises(PreconditionError):
        check_necessary_qc(prog, F(1, 4))


def vee_line() -> SublevelOracleQC:
    # |y1| <= 0 through a vee profile: the line y1 = 0, with no gradient
    vee = QuasiConvex1D((F(0),), (Affine1(F(-1), F(0)), Affine1(F(1), F(0))), (F(0),))
    ev = AffineComposed1D(vec((1, 0)), F(0), vee)
    line = polyhedron(2, [hs((1, 0), 0), hs((-1, 0), 0)])
    return SublevelOracleQC(2, (QCMember("v", line, ev),))


def test_qc_necessary_with_a_profile_member() -> None:
    # y1 is constant on the line: the condition holds, and the gradient
    # outer estimate, which needs smooth members, is left out
    origin = vec((0, 0))
    holds = check_necessary_qc(QCProgram(affine_function((1, 0), 0), vee_line(), origin), F(1, 4))
    assert holds.verdict == "condition-holds"
    assert holds.certificate is not None
    assert holds.outer_verified is None
    # y1 + y2 falls along the line
    flagged = check_necessary_qc(QCProgram(affine_function((1, 1), 0), vee_line(), origin), F(1, 4))
    assert flagged.verdict == "not-optimal"


# ------------------------------------------- d_0 f0(x) off the active pieces


ORIGIN = vec((0, 0))
# y1 <= 0 with the strictly feasible witness (-1, 0) or (-1, -1)
HALF_PLANE = family_from_functions([affine_function((1, 0), 0)])
# -y1 + |y2| beside an inactive piece, on the whole space, on {y2 <= 0}
# (N_D(0) = cone{(0, 1)} is pointed) and on the line {y2 = 0}
D0_OBJECTIVES = {
    "whole space": (max_affine(2, [((-1, 1), 0), ((-1, -1), 0), ((1, 1), -1)]), (-1, -1)),
    "pointed domain": (
        max_affine(2, [((-1, 1), 0), ((-1, -1), 0)], polyhedron(2, [hs((0, 1), 0)])),
        (-1, -1),
    ),
    "line domain": (max_affine(2, [((-1, 1), 0), ((-1, -1), 0)], LINE), (-1, 0)),
}


def d0_checker_calls(monkeypatch, objective, witness) -> dict:
    """The eps_subdifferential calls each checker makes with objective at
    the origin: the convex check, its certificate, the qc condition and the
    inclusion witnesses of [objective <= 0]."""
    prog = ProgramInstance(
        objective, HALF_PLANE, ORIGIN, Qualification("interior-feasible", vec(witness))
    )
    calls = count_calls(monkeypatch, functions.eps_subdifferential)
    out = {}
    rep = check_optimal_convex(prog, 1)
    assert rep.verdict == "optimal"
    out["check_optimal_convex"] = list(calls)
    calls.clear()
    assert verify_certificate(prog, rep.certificate)
    out["verify_certificate"] = list(calls)
    calls.clear()
    qc = check_necessary_qc(QCProgram(objective, qc_box(), ORIGIN), F(1, 4))
    assert qc.verdict == "condition-holds"
    out["check_necessary_qc"] = list(calls)
    calls.clear()
    assert inclusion_witness_check(objective, ORIGIN, F(1, 4)).all_found
    out["inclusion_witness_check"] = list(calls)
    return out


@pytest.mark.parametrize("name", ["whole space", "pointed domain"])
def test_checkers_read_d0_off_the_active_pieces(monkeypatch, name) -> None:
    objective, witness = D0_OBJECTIVES[name]
    calls = d0_checker_calls(monkeypatch, objective, witness)
    assert {k: len(v) for k, v in calls.items()} == dict.fromkeys(calls, 0)


def test_checkers_convert_d0_when_the_domain_normal_cone_has_a_line(monkeypatch) -> None:
    objective, witness = D0_OBJECTIVES["line domain"]
    calls = d0_checker_calls(monkeypatch, objective, witness)
    for name in ("check_optimal_convex", "verify_certificate", "check_necessary_qc"):
        assert [args for args, _ in calls[name]] == [(objective, ORIGIN, 0)], name
    points = [args[1] for args, _ in calls["inclusion_witness_check"]]
    assert ORIGIN in points
    assert all(y[1] == 0 for y in points)


def dim7_program(rng: random.Random, k: int, optimal: bool) -> ProgramInstance:
    """Three affine constraints, two of them active at x, and a whole-space
    objective of k pieces, two of them active at x. When optimal, one active
    slope is minus an active constraint's slope, so theta lies in
    d f0(x) + N and x is optimal."""
    dim = 7
    x = random_point(rng, dim)
    slopes = [random_direction(rng, dim) for _ in range(3)]
    margins = (0, 0, rng.randint(0, 2))
    fam = family_from_functions(
        [affine_function(a, -dot(a, x) - m) for a, m in zip(slopes, margins)]
    )
    level = F(rng.randint(-3, 3))
    first = vscale(F(-1), slopes[0]) if optimal else random_direction(rng, dim)
    active = [first, random_direction(rng, dim)]
    pieces = [(a, level - dot(a, x)) for a in active]
    for _ in range(k - 2):
        a = random_direction(rng, dim)
        pieces.append((a, level - dot(a, x) - rng.randint(1, 3)))
    rng.shuffle(pieces)
    return ProgramInstance(
        max_affine(dim, pieces), fam, x, Qualification("objective-continuous", x)
    )


def test_dim7_check_optimal_takes_no_epigraph_conversion(monkeypatch) -> None:
    # Converting the epigraph of one of these objectives takes minutes.
    calls = count_calls(monkeypatch, functions.epigraph_generators)
    verdicts = []
    for seed in range(4):
        prog = dim7_program(random.Random(7000 + seed), 12, optimal=seed % 2 == 0)
        rep = check_optimal_convex(prog, 1)
        verdicts.append(rep.verdict)
        if rep.certificate is not None:
            assert verify_certificate(prog, rep.certificate)
    assert verdicts == ["optimal", "not-optimal"] * 2
    assert calls == []
