"""Curated verification cases and the suite runner.

Each case pins an instance together with its expected outcome (verdict,
exactness flag, cone rays, or the error it must raise). The runner replays
every case, cross-checks formulas against the polyhedral oracle, and appends a
block of seeded random instances. A deliberate mutation hook tampers one
computed cone so the harness can prove it actually catches violations.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import reports
from .errors import InputError, RefusedError
from .formulas import (
    AffineComposed1D,
    QCMember,
    SmoothQCMember,
    SublevelOracleQC,
    SupFamily,
    cc_condition_check,
    dom_sup_normal_cone,
    frechet_outer_cone,
    inclusion_witness_check,
    qc_sublevel_normal_cone,
    strict_sublevel_normal_cone,
    sublevel_normal_cone_formula,
    sublevel_normal_cone_intersection,
)
from .functions import (
    Affine1,
    ImproperFunction,
    QuasiConvex1D,
    affine_function,
    convex_sublevel_closure_identity,
    evaluate,
    max_affine,
)
from .generate import (
    GeneratedCone,
    random_affine_family,
    random_dom_family,
    random_max_affine_family,
    random_program,
    random_qc_instance,
)
from .geometry import (
    ConeGen,
    HalfSpace,
    Vec,
    cone_contains,
    cone_equal,
    format_rat,
    polyhedron,
    primitive_ints,
    vec,
)
from .optimality import (
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
from .oracle import EQUAL, compare_cones, verify_formula_instance, verify_result

F = Fraction


def _hs(normal, offset) -> HalfSpace:
    return HalfSpace(vec(normal), F(offset))


def _smooth(direction, shift, coeffs, root) -> SmoothQCMember:
    return SmoothQCMember(vec(direction), F(shift), tuple(F(c) for c in coeffs), F(root))


@dataclass(frozen=True)
class SuiteCase:
    ident: str
    kind: str
    build: Callable[[], dict]
    expected: dict


# --- curated cases --------------------------------------------------------------


def _box_family() -> SupFamily:
    return SupFamily(
        2,
        (
            ("a", affine_function((1, 0), -1)),
            ("b", affine_function((0, 1), -1)),
        ),
    )


def curated_cases() -> tuple[SuiteCase, ...]:
    cases: list[SuiteCase] = []
    add = cases.append

    add(SuiteCase(
        "nc-corner", "normal-cone",
        lambda: {"family": _box_family(), "point": (F(1), F(1)), "epsilon": F(1)},
        {"verdict": EQUAL, "cone_rays": [["0", "1"], ["1", "0"]]},
    ))
    add(SuiteCase(
        "nc-edge", "normal-cone",
        lambda: {"family": _box_family(), "point": (F(1), F(0)), "epsilon": F(1, 2)},
        {"verdict": EQUAL, "cone_rays": [["1", "0"]]},
    ))
    add(SuiteCase(
        "nc-interior", "normal-cone",
        lambda: {"family": _box_family(), "point": (F(0), F(0)), "epsilon": F(1)},
        {"verdict": EQUAL, "cone_rays": []},
    ))
    add(SuiteCase(
        "nc-improper-mix", "normal-cone",
        lambda: {"family": SupFamily(2, (
            ("a", affine_function((1, 0), -1)),
            ("i", ImproperFunction(2, polyhedron(2, [_hs((0, 1), 0)]))),
        )), "point": (F(1), F(0)), "epsilon": F(1)},
        {"verdict": EQUAL, "cone_rays": [["0", "1"], ["1", "0"]]},
    ))
    add(SuiteCase(
        "nc-duplicate-members", "normal-cone",
        lambda: {"family": SupFamily(2, (
            ("a", affine_function((1, 1), -2)),
            ("b", affine_function((1, 1), -2)),
        )), "point": (F(1), F(1)), "epsilon": F(1, 4)},
        {"verdict": EQUAL, "cone_rays": [["1", "1"]]},
    ))
    add(SuiteCase(
        "nc-off-point", "normal-cone",
        lambda: {"family": _box_family(), "point": (F(2), F(0)), "epsilon": F(1)},
        {"error": "PreconditionError"},
    ))
    add(SuiteCase(
        "nc-sampled-slab", "normal-cone",
        lambda: {"family": SupFamily(2, (
            ("m", max_affine(2, (((1, 0), -1), ((-1, 0), -1)))),
        )), "point": (F(1), F(0)), "epsilon": F(1, 2), "mode": "sampled"},
        {"verdict": EQUAL, "exact": True, "cone_rays": [["1", "0"]]},
    ))
    add(SuiteCase(
        "nc-sampled-domain", "normal-cone",
        lambda: {"family": SupFamily(2, (
            ("m", max_affine(2, (((1, 1), -2),), domain=polyhedron(2, [_hs((1, 0), 1)]))),
        )), "point": (F(1), F(1)), "epsilon": F(1), "mode": "sampled"},
        {"verdict": EQUAL, "exact": True, "cone_rays": [["1", "0"], ["1", "1"]]},
    ))
    add(SuiteCase(
        "nc-eps-intersection-box", "eps-intersection",
        lambda: {"family": _box_family(), "point": (F(1), F(1)),
                 "epsilons": (F(1), F(1, 2), F(1, 4))},
        {"stabilized": True, "matches_per_eps": True,
         "cone_rays": [["0", "1"], ["1", "0"]]},
    ))
    add(SuiteCase(
        "nc-strict-slater", "strict-cone",
        lambda: {"family": _box_family(), "point": (F(1), F(1)), "epsilon": F(1)},
        {"verdict": EQUAL, "cone_rays": [["0", "1"], ["1", "0"]]},
    ))
    add(SuiteCase(
        "nc-strict-refused", "strict-cone",
        # f = max(y1, -y1) has [f < 0] empty
        lambda: {"family": SupFamily(1, (
            ("a", affine_function((1,), 0)),
            ("b", affine_function((-1,), 0)),
        )), "point": (F(0),), "epsilon": F(1)},
        {"error": "RefusedError"},
    ))
    add(SuiteCase(
        "dom-reach-weights", "dom-cone",
        lambda: {"family": SupFamily(2, (
            ("p", max_affine(2, (((1, 1), 0),), domain=polyhedron(2, [_hs((1, 0), 0)]))),
            ("i", ImproperFunction(2, polyhedron(2, [_hs((0, 1), 0)]))),
        )), "point": (F(0), F(0)), "epsilon": F(1), "alpha": None},
        {"verdict": EQUAL, "cone_rays": [["0", "1"], ["1", "0"]]},
    ))
    add(SuiteCase(
        "dom-alpha-ones", "dom-cone",
        lambda: {"family": SupFamily(2, (
            ("p", max_affine(2, (((1, 1), 0),), domain=polyhedron(2, [_hs((1, 0), 0)]))),
            ("i", ImproperFunction(2, polyhedron(2, [_hs((0, 1), 0)]))),
        )), "point": (F(0), F(0)), "epsilon": F(1), "alpha": "ones"},
        {"verdict": EQUAL, "cone_rays": [["0", "1"], ["1", "0"]]},
    ))
    add(SuiteCase(
        "dom-alpha-below-reach", "dom-cone",
        lambda: {"family": SupFamily(2, (
            ("p", max_affine(2, (((1, 1), 0),), domain=polyhedron(2, [_hs((1, 0), 0)]))),
            ("i", ImproperFunction(2, polyhedron(2, [_hs((0, 1), 0)]))),
        )), "point": (F(0), F(0)), "epsilon": F(1), "alpha": {"p": F(1, 1000)}},
        {"error": "PreconditionError"},
    ))
    add(SuiteCase(
        "qc-two-halfspaces", "qc-cone",
        lambda: {"qc": SublevelOracleQC(2, (
            QCMember("s1", _smooth((1, 0), 0, (0, 1), 0).zero_sublevel(), _smooth((1, 0), 0, (0, 1), 0)),
            QCMember("s2", _smooth((0, 1), 0, (0, 1, 0, 1), 0).zero_sublevel(), _smooth((0, 1), 0, (0, 1, 0, 1), 0)),
        )), "point": (F(0), F(0)), "epsilon": F(1, 4)},
        {"verdict": EQUAL, "cone_rays": [["0", "1"], ["1", "0"]]},
    ))
    add(SuiteCase(
        "qc-slab-edge", "qc-cone",
        lambda: {"qc": _abs_slab_qc(), "point": (F(0), F(0)), "epsilon": F(1, 2)},
        {"verdict": EQUAL, "cone_rays": [["0", "-1"], ["0", "1"]]},
    ))
    add(SuiteCase(
        "cc-family-asymptote", "cc-family",
        lambda: {"qc": _asymptote_qc()},
        {"cc_verdict": "cc3-holds"},
    ))
    add(SuiteCase(
        "cc-profile-gap", "cc-profiles",
        lambda: {"profiles": [_left_open_profile(), _right_open_profile()]},
        {"cc_verdict": "fails", "witness": "0"},
    ))
    add(SuiteCase(
        "cc-profile-holds", "cc-profiles",
        lambda: {"profiles": [_abs_profile(), _hinge_profile()]},
        {"cc_verdict": "cc2-holds"},
    ))
    add(SuiteCase(
        "closure-polyhedral", "closure",
        lambda: {"f": max_affine(1, (((1,), -1),))},
        {"identity": True},
    ))
    add(SuiteCase(
        "closure-jump", "closure",
        lambda: {"f": QuasiConvex1D(
            (F(0),),
            (Affine1(F(1), F(0)), Affine1(F(1), F(10))),
            (F(5),),
        )},
        {"identity": True},
    ))
    add(SuiteCase(
        "closure-asymptote-refused", "closure",
        lambda: {"f": QuasiConvex1D(
            (F(0),),
            (None, Affine1(F(1), F(0))),
            (None,),
        )},
        {"error": "RefusedError"},
    ))
    add(SuiteCase(
        "opt-corner", "check-optimal",
        lambda: {"program": ProgramInstance(
            affine_function((-1, -1), 0), _box_family(), (F(1), F(1)),
            Qualification("objective-continuous", (F(0), F(0))),
        ), "epsilon": F(1)},
        {"verdict": "optimal"},
    ))
    add(SuiteCase(
        "opt-wrong-corner", "check-optimal",
        lambda: {"program": ProgramInstance(
            affine_function((1, 1), 0), _box_family(), (F(1), F(1)),
            Qualification("objective-continuous", (F(0), F(0))),
        ), "epsilon": F(1)},
        {"verdict": "not-optimal"},
    ))
    add(SuiteCase(
        "opt-unbounded", "check-optimal",
        lambda: {"program": ProgramInstance(
            affine_function((-1, 0), 0),
            SupFamily(2, (("b", affine_function((0, 1), -1)),)),
            (F(0), F(0)),
            Qualification("objective-continuous", (F(0), F(0))),
        ), "epsilon": F(1)},
        {"verdict": "not-optimal"},
    ))
    add(SuiteCase(
        "opt-qualification-bad", "check-optimal",
        lambda: {"program": ProgramInstance(
            affine_function((-1, -1), 0), _box_family(), (F(1), F(1)),
            Qualification("objective-continuous", (F(3), F(3))),
        ), "epsilon": F(1)},
        {"error": "PreconditionError"},
    ))
    add(SuiteCase(
        "sip-finite-optimal", "check-sip",
        lambda: {"sip": LinearSIPInstance(2, (F(0), F(1)), (F(0), F(-1)), constraints=(
            ((F(0), F(-1)), F(1)), ((F(1), F(0)), F(1)),
        ))},
        {"verdict": "optimal"},
    ))
    add(SuiteCase(
        "sip-finite-descent", "check-sip",
        lambda: {"sip": LinearSIPInstance(2, (F(0), F(1)), (F(0), F(0)), constraints=(
            ((F(0), F(-1)), F(1)),
        ))},
        {"verdict": "not-optimal"},
    ))
    add(SuiteCase(
        "sip-circle-vertex", "check-sip",
        lambda: {"sip": LinearSIPInstance(2, (F(-1), F(0)), (F(1), F(0)), sampler=CircleSampler())},
        {"verdict": "optimal", "final_residual": "0"},
    ))
    add(SuiteCase(
        "sip-circle-unsampled", "check-sip",
        lambda: {"sip": LinearSIPInstance(2, (F(0), F(-1)), (F(0), F(1)), sampler=CircleSampler())},
        {"verdict": "inconclusive"},
    ))
    add(SuiteCase(
        "qcnec-holds", "qc-necessary",
        lambda: {"program": QCProgram(
            affine_function((-1, -1), 0), _corner_qc(), (F(0), F(0))
        ), "epsilon": F(1, 4)},
        {"verdict": "condition-holds", "outer_verified": True},
    ))
    add(SuiteCase(
        "qcnec-improvable", "qc-necessary",
        lambda: {"program": QCProgram(
            affine_function((1, 1), 0), _corner_qc(), (F(0), F(0))
        ), "epsilon": F(1, 4)},
        {"verdict": "not-optimal"},
    ))
    add(SuiteCase(
        "frechet-contains", "frechet",
        lambda: {"qc": _corner_qc(), "point": (F(0), F(0)), "epsilon": F(1, 4)},
        {"contains_qc": True},
    ))
    add(SuiteCase(
        "inclusion-cubic", "inclusion-witness",
        lambda: {"f": _smooth((1, 0), 0, (0, 1, 0, 1), 0), "point": (F(0), F(0)),
                 "epsilon": F(1, 16)},
        {"all_found": True},
    ))
    return tuple(cases)


def _abs_profile() -> QuasiConvex1D:
    return QuasiConvex1D((F(0),), (Affine1(F(-1), F(0)), Affine1(F(1), F(0))), (F(0),))


def _hinge_profile() -> QuasiConvex1D:
    return QuasiConvex1D((F(1),), (Affine1(F(0), F(0)), Affine1(F(1), F(-1))), (F(0),))


def _left_open_profile() -> QuasiConvex1D:
    # [q <= 0] = (-inf, 0), not closed
    return QuasiConvex1D((F(0),), (Affine1(F(1), F(0)), Affine1(F(1), F(1))), (F(1),))


def _right_open_profile() -> QuasiConvex1D:
    # [q <= 0] = (0, inf), not closed
    return QuasiConvex1D((F(0),), (Affine1(F(-1), F(1)), Affine1(F(-1), F(0))), (F(1),))


def _abs_slab_qc() -> SublevelOracleQC:
    prof = _abs_profile()
    ev = AffineComposed1D((F(0), F(1)), F(0), prof)
    sub = polyhedron(2, [_hs((0, 1), 0), _hs((0, -1), 0)])
    return SublevelOracleQC(2, (QCMember("v", sub, ev),))


def _asymptote_qc() -> SublevelOracleQC:
    # profile is +inf left of 0 and u right of it: [q <= 0] is empty while the
    # lsc hull reaches 0 at the origin, so cc2 fails and cc3 holds
    prof = QuasiConvex1D((F(0),), (None, Affine1(F(1), F(0))), (None,))
    ev = AffineComposed1D((F(1), F(0)), F(0), prof)
    empty = polyhedron(2, [_hs((0, 0), -1)])
    return SublevelOracleQC(2, (QCMember("a", empty, ev),))


def _corner_qc() -> SublevelOracleQC:
    s1 = _smooth((1, 0), 0, (0, 1), 0)
    s2 = _smooth((0, 1), 0, (0, 1), 0)
    return SublevelOracleQC(2, (
        QCMember("s1", s1.zero_sublevel(), s1),
        QCMember("s2", s2.zero_sublevel(), s2),
    ))


# --- criterion instance lists ----------------------------------------------------


def curated_sampled_instances() -> tuple[tuple[str, GeneratedCone], ...]:
    """25 max-affine instances whose sampled cone must come out exact."""
    out: list[tuple[str, GeneratedCone]] = []

    def fam(ident: str, members, point, eps) -> None:
        out.append((ident, GeneratedCone(SupFamily(len(point), tuple(members)), vec(point), F(eps))))

    fam("abs-face", [("m", max_affine(2, (((1, 0), -1), ((-1, 0), -1))))], (1, 0), 1)
    fam("box-corner", [
        ("mx", max_affine(2, (((1, 0), -1), ((-1, 0), -1)))),
        ("my", max_affine(2, (((0, 1), -1), ((-1, 0), -1)))),
    ], (1, 1), F(1, 2))
    fam("diamond-vertex", [
        ("m", max_affine(2, (((1, 1), -2), ((1, -1), -2), ((-1, 1), -2), ((-1, -1), -2)))),
    ], (2, 0), 1)
    fam("domain-cut", [
        ("m", max_affine(2, (((1, 0), 0),), domain=polyhedron(2, [_hs((0, 1), 0)]))),
    ], (0, 0), F(1, 2))
    fam("improper-corner", [
        ("m", max_affine(2, (((1, 0), -1),))),
        ("i", ImproperFunction(2, polyhedron(2, [_hs((0, 1), 1)]))),
    ], (1, 1), 1)
    fam("slab-interior", [("m", max_affine(2, (((1, 0), -1), ((-1, 0), -1))))], (0, 0), F(1, 4))
    fam("oct-corner-3d", [
        ("x", max_affine(3, (((1, 0, 0), -1),))),
        ("y", max_affine(3, (((0, 1, 0), -1),))),
        ("z", max_affine(3, (((0, 0, 1), -1),))),
    ], (1, 1, 1), 1)
    fam("skewed-corner", [
        ("m", max_affine(2, (((2, 1), -3), ((1, 2), -3)))),
    ], (1, 1), F(1, 2))
    fam("duplicate-pieces", [
        ("m", max_affine(2, (((1, 1), -2), ((1, 1), -2), ((0, 1), -1)))),
    ], (1, 1), 1)
    fam("deep-inactive", [
        ("a", max_affine(2, (((1, 0), -5),))),
        ("b", max_affine(2, (((0, 1), -5),))),
    ], (0, 0), F(1, 4))
    rng_base = 2000
    for i in range(15):
        g = random_max_affine_family(random.Random(rng_base + i))
        out.append((f"seeded-{i}", g))
    return tuple(out)


def curated_smooth_qc() -> tuple[tuple[str, SublevelOracleQC, Vec], ...]:
    """20 smooth quasi-convex instances shared by the outer-estimate and
    inclusion-witness checks."""
    specs = [
        # (direction, coeffs, root, point, margin): u(point) = root - margin
        # for increasing members, root + margin for decreasing ones
        ("lin-x", (1, 0), (0, 1), 0, (0, 0), 0),
        ("lin-y", (0, 1), (0, 2), 0, (0, 0), 0),
        ("lin-diag", (1, 1), (0, 1), 0, (0, 0), 0),
        ("lin-skew", (2, 1), (0, 1), 0, (0, 0), 0),
        ("lin-neg", (1, -1), (0, 3), 0, (0, 0), 0),
        ("lin-shift", (1, 0), (-1, 1), 1, (1, 0), 0),
        ("lin-dec", (1, 0), (0, -1), 0, (0, 0), 0),
        ("cube-x", (1, 0), (0, 0, 0, 1), 0, (0, 0), 0),
        ("cube-xlin", (1, 0), (0, 1, 0, 1), 0, (0, 0), 0),
        ("cube-y", (0, 1), (0, 2, 0, 1), 0, (0, 0), 0),
        ("cube-diag", (1, 1), (0, 0, 0, 1), 0, (0, 0), 0),
        ("cube-dec", (0, 1), (0, 0, 0, -1), 0, (0, 0), 0),
        ("cube-root1", (1, 0), (-2, 1, 0, 1), 1, (1, 0), 0),
        ("quint-x", (1, 0), (0, 0, 0, 0, 0, 1), 0, (0, 0), 0),
        ("quint-lin", (1, 0), (0, 1, 0, 0, 0, 1), 0, (0, 0), 0),
        ("quint-skew", (1, 2), (0, 1, 0, 0, 0, 1), 0, (0, 0), 0),
        ("pair-box", None, None, None, (0, 0), 0),
        ("pair-wedge", None, None, None, (0, 0), 0),
        ("pair-mixed", None, None, None, (0, 0), 0),
        ("interior-pt", (1, 0), (0, 1), 0, (-1, 0), 1),
    ]
    out: list[tuple[str, SublevelOracleQC, Vec]] = []
    for ident, direction, coeffs, root, point, margin in specs:
        x = vec(point)
        if ident == "pair-box":
            qc = _corner_qc()
        elif ident == "pair-wedge":
            a = _smooth((1, 1), 0, (0, 1), 0)
            b = _smooth((1, -1), 0, (0, 1), 0)
            qc = SublevelOracleQC(2, (
                QCMember("a", a.zero_sublevel(), a),
                QCMember("b", b.zero_sublevel(), b),
            ))
        elif ident == "pair-mixed":
            a = _smooth((1, 0), 0, (0, 0, 0, 1), 0)
            b = _smooth((0, 1), 0, (0, -1), 0)
            qc = SublevelOracleQC(2, (
                QCMember("a", a.zero_sublevel(), a),
                QCMember("b", b.zero_sublevel(), b),
            ))
        else:
            u0 = sum(F(d) * c for d, c in zip(direction, x))
            probe = _smooth(direction, F(root) - u0, coeffs, root)
            sign = -1 if probe.increasing else 1
            s = _smooth(direction, F(root) - u0 + sign * F(margin), coeffs, root)
            qc = SublevelOracleQC(2, (QCMember("s", s.zero_sublevel(), s),))
        out.append((ident, qc, x))
    return tuple(out)


def closure_gallery() -> tuple[tuple[str, object, str], ...]:
    """20 one-dimensional closure-identity cases, mostly non-lsc; expected is
    "holds" or "refused" (empty exact sublevel, where the identity genuinely
    breaks and the checker must decline instead of answering)."""

    def q(bps, pieces, values) -> QuasiConvex1D:
        ps = tuple(None if p is None else Affine1(F(p[0]), F(p[1])) for p in pieces)
        vs = tuple(None if v is None else F(v) for v in values)
        return QuasiConvex1D(tuple(F(b) for b in bps), ps, vs)

    cases: list[tuple[str, object, str]] = [
        ("poly-line", max_affine(1, (((1,), -1),)), "holds"),
        ("poly-vee", max_affine(1, (((1,), 0), ((-1,), 0))), "holds"),
        ("poly-domain", max_affine(1, (((1,), -2),), domain=polyhedron(1, [_hs((-1,), 0)])), "holds"),
        ("const-neg", q((), (((0, -1)),), ()), "holds"),
        ("const-zero", q((), (((0, 0)),), ()), "holds"),
        ("line-up", q((), (((1, 0)),), ()), "holds"),
        ("line-down", q((), (((-1, 0)),), ()), "holds"),
        ("abs", _abs_profile(), "holds"),
        ("hinge", _hinge_profile(), "holds"),
        ("jump-right", q((0,), ((1, 0), (1, 10)), (5,)), "holds"),
        ("jump-left", q((0,), ((-1, 10), (-1, 0)), (5,)), "holds"),
        ("jump-above", q((0,), ((-1, 3), (1, -1)), (2,)), "holds"),
        ("dom-edge-jump", q((0,), (None, (1, -2)), (3,)), "holds"),
        ("dom-edge-left", q((0,), ((-1, -2), None), (3,)), "holds"),
        ("open-dom", q((0, 1), (None, (0, -1), None), (None, None)), "holds"),
        ("asymptote-right", q((0,), (None, (1, 0)), (None,)), "refused"),
        ("asymptote-left", q((0,), ((-1, 0), None), (None,)), "refused"),
        ("hinge-lifted", q((0,), ((0, 2), (1, 2)), (2,)), "refused"),
        ("const-pos", q((), (((0, 1)),), ()), "refused"),
        ("vee-lifted", q((0,), ((-1, 1), (1, 1)), (1,)), "refused"),
    ]
    return tuple(cases)


# --- runner ----------------------------------------------------------------------


_MUTATION_TARGET = "nc-corner"
_BOGUS_RAY_CANDIDATES = ((-1, -1), (-1, 0), (0, -1), (1, 0), (0, 1))


def run_case(case: SuiteCase, mutate: bool = False) -> tuple[dict, bool]:
    expected = case.expected
    try:
        payload = case.build()
        rec, got = _dispatch(case, payload, mutate)
    except InputError as exc:
        name = type(exc).__name__
        ok = expected.get("error") == name
        rec = {
            "kind": "suite-case",
            "id": case.ident,
            "error": name,
            "detail": str(exc),
        }
        rec["outcome"] = "pass" if ok else "fail"
        return rec, ok
    if "error" in expected:
        rec["outcome"] = "fail"
        rec["detail"] = f"expected {expected['error']}, got a result"
        return rec, False
    problems = [
        f"{key}: expected {want!r}, got {got.get(key)!r}"
        for key, want in expected.items()
        if got.get(key) != want
    ]
    rec["outcome"] = "pass" if not problems else "fail"
    if problems:
        rec["detail"] = "; ".join(problems)
    return rec, not problems


def _dispatch(case: SuiteCase, payload: dict, mutate: bool) -> tuple[dict, dict]:
    kind = case.kind
    if kind == "normal-cone":
        res = sublevel_normal_cone_formula(
            payload["family"], payload["point"], payload["epsilon"],
            mode=payload.get("mode", "auto"), certify=False,
        )
        rep = verify_result(res, payload["family"], payload["point"], instance_id=case.ident)
        # exact and oracle_agrees judge the computed cone, not the tampered one
        res = res.with_oracle_agreement(rep.verdict == EQUAL)
        verdict, formula_cone = rep.verdict, res.cone
        if mutate:
            formula_cone, verdict = _tampered(rep)
        rec = reports.cone_result_record("normal-cone", case.ident, res)
        rec["verdict"] = verdict
        rec["cone_rays"] = reports.rays_text(formula_cone)
        got = {"verdict": verdict, "cone_rays": rec["cone_rays"], "exact": res.exact}
        return rec, got
    if kind == "strict-cone":
        res = strict_sublevel_normal_cone(
            payload["family"], payload["point"], payload["epsilon"], certify=False
        )
        rep = verify_result(res, payload["family"], payload["point"], instance_id=case.ident)
        res = res.with_oracle_agreement(rep.verdict == EQUAL)
        rec = reports.cone_result_record("strict-cone", case.ident, res, rep)
        got = {"verdict": rep.verdict, "cone_rays": rec["cone_rays"], "exact": res.exact}
        return rec, got
    if kind == "eps-intersection":
        inter = sublevel_normal_cone_intersection(
            payload["family"], payload["point"], payload["epsilons"]
        )
        matches = all(
            cone_equal(inter.cone, per.cone) for per in inter.per_eps
        )
        rec = reports.intersection_record(case.ident, inter)
        rec["matches_per_eps"] = matches
        got = {
            "stabilized": inter.stabilized,
            "matches_per_eps": matches,
            "cone_rays": rec["cone_rays"],
        }
        return rec, got
    if kind == "dom-cone":
        res = dom_sup_normal_cone(
            payload["family"], payload["point"], payload["epsilon"],
            alpha=payload.get("alpha"),
        )
        rep = verify_result(
            res, payload["family"], payload["point"], which="dom", instance_id=case.ident
        )
        rec = reports.cone_result_record("dom-cone", case.ident, res)
        rec["verdict"] = rep.verdict
        got = {"verdict": rep.verdict, "cone_rays": rec["cone_rays"]}
        return rec, got
    if kind == "qc-cone":
        res = qc_sublevel_normal_cone(payload["qc"], payload["point"], payload["epsilon"])
        rep = verify_result(
            res, payload["qc"], payload["point"], which="qc", instance_id=case.ident
        )
        rec = reports.cone_result_record("qc-cone", case.ident, res, rep)
        got = {"verdict": rep.verdict, "cone_rays": rec["cone_rays"]}
        return rec, got
    if kind in ("cc-profiles", "cc-family"):
        cc = cc_condition_check(payload.get("profiles") or payload["qc"])
        rec = reports.cc_record(case.ident, cc)
        got = {"cc_verdict": cc.verdict, "witness": rec.get("witness")}
        return rec, got
    if kind == "closure":
        rep = convex_sublevel_closure_identity(payload["f"])
        rec = {
            "kind": "closure-identity",
            "id": case.ident,
            "identity": rep.holds,
        }
        got = {"identity": rep.holds}
        return rec, got
    if kind == "check-optimal":
        rep = check_optimal_convex(payload["program"], payload["epsilon"])
        rec = reports.optimality_record(case.ident, rep)
        got = {"verdict": rep.verdict}
        if rep.verdict == "optimal":
            got["certificate_ok"] = verify_certificate(payload["program"], rep.certificate)
        return rec, got
    if kind == "check-sip":
        rep = check_sip_linear(payload["sip"])
        rec = reports.sip_record(case.ident, rep)
        got = {"verdict": rep.verdict}
        if rep.residuals:
            got["final_residual"] = rec["residuals"][-1]
        return rec, got
    if kind == "qc-necessary":
        rep = check_necessary_qc(payload["program"], payload["epsilon"])
        rec = reports.qc_necessary_record(case.ident, rep)
        got = {"verdict": rep.verdict, "outer_verified": rep.outer_verified}
        return rec, got
    if kind == "frechet":
        fc = frechet_outer_cone(payload["qc"], payload["point"], payload["epsilon"])
        res = qc_sublevel_normal_cone(payload["qc"], payload["point"], payload["epsilon"])
        contains = all(cone_contains(fc.cone, r) for r in res.cone.rays)
        rec = reports.frechet_record(case.ident, fc, contains)
        got = {"contains_qc": contains}
        return rec, got
    if kind == "inclusion-witness":
        rep = inclusion_witness_check(payload["f"], payload["point"], payload["epsilon"])
        rec = reports.inclusion_record(case.ident, rep)
        got = {"all_found": rep.all_found}
        return rec, got
    raise InputError(f"unknown case kind {kind!r}")


def _tampered(rep) -> tuple[object, str]:
    """Append a ray outside the oracle cone, then re-compare. Used by the
    mutation hook to prove violations are caught."""
    dim = len(rep.formula_cone.rays[0]) if rep.formula_cone.rays else rep.oracle_cone.dim
    for cand in _BOGUS_RAY_CANDIDATES:
        v = vec(cand + (0,) * (dim - len(cand)))
        if not cone_contains(rep.oracle_cone, v):
            # unpruned on purpose: cone() would drop a redundant formula ray
            bad = ConeGen(dim, tuple(sorted({*rep.formula_cone.rays, primitive_ints(v)})))
            verdict, _ = compare_cones(bad, rep.oracle_cone)
            return bad, verdict
    raise InputError("mutation target has a full cone; nothing to tamper with")


def _random_block(seed: int) -> tuple[list[dict], int]:
    records: list[dict] = []
    failures = 0
    rng = random.Random(seed)

    def check(ident: str, family, point, eps, which: str, mode: str = "auto") -> None:
        nonlocal failures
        rep = verify_formula_instance(
            family, point, eps, which=which, instance_id=ident, mode=mode
        )
        rec = {
            "kind": f"random-{which}",
            "id": ident,
            "epsilon": format_rat(eps),
            "verdict": rep.verdict,
            "cone_rays": reports.rays_text(rep.formula_cone),
        }
        if rep.verdict != EQUAL:
            failures += 1
            rec["witness"] = reports.vec_text(rep.witness) if rep.witness else None
        records.append(rec)

    for i in range(6):
        g = random_affine_family(rng)
        check(f"rand-affine-{i}", g.family, g.point, g.epsilon, "sublevel")
    for i in range(3):
        g = random_max_affine_family(rng)
        check(f"rand-sampled-{i}", g.family, g.point, g.epsilon, "sublevel", mode="sampled")
    for i in range(4):
        g = random_dom_family(rng)
        check(f"rand-dom-{i}", g.family, g.point, g.epsilon, "dom")
    for i in range(4):
        g = random_qc_instance(rng)
        check(f"rand-qc-{i}", g.qc, g.point, g.epsilon, "qc")
    for i in range(3):
        g = random_program(rng)
        rep = check_optimal_convex(g.program, g.epsilon)
        status, best, _, _ = minimize_objective(g.program)
        fx = evaluate(g.program.objective, g.program.point)
        agrees = (rep.verdict == "optimal") == (status == "optimal" and best == fx)
        cert_ok = (
            verify_certificate(g.program, rep.certificate)
            if rep.verdict == "optimal"
            else None
        )
        rec = reports.optimality_record(f"rand-program-{i}", rep)
        rec["kind"] = "random-program"
        rec["agrees_with_minimizer"] = agrees
        if cert_ok is not None:
            rec["certificate_ok"] = cert_ok
        if not agrees or cert_ok is False:
            failures += 1
        records.append(rec)
    return records, failures


def run_suite(seed: int = 7, mutate: str | None = None) -> tuple[list[dict], int]:
    """Run curated cases plus a seeded random block.

    mutate: identifier of the curated normal-cone case whose computed cone
    gets a bogus extra ray ("first" targets the designated default); any
    other identifier is an InputError. Returns (records, failures).
    """
    records: list[dict] = []
    failures = 0
    target = _MUTATION_TARGET if mutate in ("first", "") else mutate
    cases = curated_cases()
    if target is not None and not any(
        c.ident == target and c.kind == "normal-cone" for c in cases
    ):
        raise InputError(f"mutation target must be a curated normal-cone case, got {target!r}")
    for case in cases:
        rec, ok = run_case(case, mutate=(target == case.ident))
        records.append(rec)
        if not ok:
            failures += 1
    for ident, f, expected in closure_gallery():
        try:
            rep = convex_sublevel_closure_identity(f)
            outcome = "holds" if rep.holds else "fails"
        except RefusedError:
            outcome = "refused"
        ok = outcome == expected
        records.append({
            "kind": "closure-identity",
            "id": f"closure-{ident}",
            "expected": expected,
            "got": outcome,
            "outcome": "pass" if ok else "fail",
        })
        if not ok:
            failures += 1
    block, bad = _random_block(seed)
    records.extend(block)
    failures += bad
    records.append({
        "kind": "suite-summary",
        "total": len(records),
        "passed": len(records) - failures,
        "failed": failures,
        "mutated": target is not None,
    })
    return records, failures
