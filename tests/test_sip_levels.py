"""check_sip_linear on nested levels built once, against the per-level check.

``ref_points`` and ``ref_check_sip_linear`` are ``CircleSampler.points`` and
``check_sip_linear`` as they were when every level rebuilt its own sample
(the coarser levels' points included) and took ``<a, x>`` twice per point.
They live here only to pin the one-pass check to equal reports and equal
errors on circle and finite instances. Their multipliers come from the
active normals as given, one per active index, as in the checked code.
"""

from __future__ import annotations

import json
from fractions import Fraction

import pytest

from supcone.cli import main
from supcone.errors import InternalCheckError, PreconditionError, SizingError
from supcone.geometry import ConeGen, dot, lp, sup_distance_to_cone, vec, vscale
from supcone.geometry.sets import _canonical_rays
from supcone.optimality import (
    CircleSampler,
    LinearSIPInstance,
    SipReport,
    _descent_ray,
    check_sip_linear,
)

F = Fraction


def ref_points(level: int):
    half = 2 ** (level - 1)
    out = []
    for j in range(-half, half):
        u = Fraction(j, half)
        den = 1 + u * u
        out.append((((1 - u * u) / den, 2 * u / den), Fraction(1)))
    return out


def ref_active_cone(constraints, x):
    active = [i for i, (a, b) in enumerate(constraints) if dot(a, x) == b]
    # the unpruned canonical cone: distinct primitive rays, sorted
    rays = _canonical_rays(len(x), [constraints[i][0] for i in active])
    return active, ConeGen(len(x), tuple(rays))


def ref_check_sip_linear(instance: LinearSIPInstance) -> SipReport:
    x = vec(instance.point)
    c = vec(instance.cost)
    minus_c = vscale(Fraction(-1), c)
    if instance.constraints is not None:
        for i, (a, b) in enumerate(instance.constraints):
            if dot(a, x) > b:
                raise PreconditionError(f"candidate point violates constraint {i}")
        active, _ = ref_active_cone(instance.constraints, x)
        normals = [instance.constraints[i][0] for i in active]
        mults = lp.solve_nonneg_combination(normals, minus_c)
        if mults is not None:
            pairs = tuple((Fraction(i), m) for i, m in zip(active, mults) if m != 0)
            return SipReport("optimal", (), (Fraction(0),), multipliers=pairs)
        ray = _descent_ray(instance.constraints, active, c, x)
        return SipReport("not-optimal", (), (), improving_ray=ray)
    residuals = []
    last_level_pts = None
    for level in instance.levels:
        pts = ref_points(level)
        for a, b in pts:
            if dot(a, x) > b:
                raise PreconditionError(
                    f"candidate point violates a level-{level} sampled constraint"
                )
        _, k = ref_active_cone(pts, x)
        dist, _ = sup_distance_to_cone(minus_c, k)
        if residuals and dist > residuals[-1]:
            raise InternalCheckError("residual increased along nested levels")
        residuals.append(dist)
        last_level_pts = pts
    if residuals[-1] == 0:
        active, _ = ref_active_cone(last_level_pts, x)
        normals = [last_level_pts[i][0] for i in active]
        mults = lp.solve_nonneg_combination(normals, minus_c)
        half = 2 ** (instance.levels[-1] - 1)
        pairs = [
            (Fraction(idx - half, half), m) for idx, m in zip(active, mults) if m != 0
        ]
        return SipReport(
            "optimal", tuple(instance.levels), tuple(residuals), multipliers=tuple(pairs)
        )
    return SipReport("inconclusive", tuple(instance.levels), tuple(residuals))


def outcome(check, inst):
    try:
        return check(inst)
    except PreconditionError as exc:
        return ("PreconditionError", str(exc))


LEVELS = [(1,), (3, 5, 9), (4, 5, 6, 7, 8, 9, 10), (1, 2, 3, 4), (2, 6)]
# (cost, point): optimal at (1, 0) and (3/5, 4/5), whose u = 1/2 first
# appears at level 2; inconclusive at an irrational optimum direction and
# in the interior; (1, 1/2) violates the u = 1/4 constraint from level 3 on
CANDIDATES = [
    ((-1, 0), (1, 0)),
    ((F(-3, 5), F(-4, 5)), (F(3, 5), F(4, 5))),
    ((-1, -1), (1, 0)),
    ((1, 0), (0, 0)),
    ((0, 1), (0, -1)),
    ((-1, 0), (1, F(1, 2))),
]


def circle(cost, point, levels) -> LinearSIPInstance:
    return LinearSIPInstance(2, vec(cost), vec(point), sampler=CircleSampler(), levels=levels)


def test_circle_points_match_the_fraction_formula() -> None:
    for level in range(1, 11):
        assert CircleSampler().points(level) == ref_points(level)


@pytest.mark.parametrize("levels", LEVELS)
def test_circle_reports_match_the_per_level_check(levels) -> None:
    verdicts = set()
    for cost, point in CANDIDATES:
        want = outcome(ref_check_sip_linear, circle(cost, point, levels))
        assert outcome(check_sip_linear, circle(cost, point, levels)) == want
        verdicts.add(want[0] if isinstance(want, tuple) else want.verdict)
    if levels != (1,):
        assert verdicts == {"optimal", "inconclusive", "PreconditionError"}


def test_infeasible_point_names_the_first_violated_level() -> None:
    for levels, first in (((3, 5, 9), 3), ((4, 5, 6, 7, 8, 9, 10), 4), ((1, 2, 3, 4), 3)):
        inst = circle((-1, 0), (1, F(1, 2)), levels)
        with pytest.raises(PreconditionError, match=f"level-{first} sampled"):
            check_sip_linear(inst)


FINITE = [
    ((-1, -1), (1, 1), (((1, 0), 1), ((0, 1), 1))),
    ((0, 1), (1, 1), (((1, 0), 1), ((0, 1), 1))),
    ((1, 0), (5, 0), (((1, 0), 1),)),
    ((1, 0), (1, 1), (((1, 0), 1), ((0, 1), 0), ((1, 1), 3))),
    ((-1, 0), (F(1, 2), 0), (((1, 0), 1), ((1, 1), F(1, 2)), ((2, 1), 1))),
]


@pytest.mark.parametrize("cost,point,rows", FINITE)
def test_finite_reports_match_the_per_level_check(cost, point, rows) -> None:
    cons = tuple((vec(a), F(b)) for a, b in rows)
    inst = LinearSIPInstance(2, vec(cost), vec(point), constraints=cons)
    assert outcome(check_sip_linear, inst) == outcome(ref_check_sip_linear, inst)


def test_one_sample_per_check(monkeypatch) -> None:
    calls = []
    real = CircleSampler.points
    monkeypatch.setattr(
        CircleSampler, "points", lambda self, level: calls.append(level) or real(self, level)
    )
    check_sip_linear(circle((-1, 0), (1, 0), (4, 5, 6, 7, 8, 9, 10)))
    assert calls == [10]


def test_oversized_level_is_refused_before_sampling() -> None:
    # 2^20 points exceed the DD row cap of 10^6; 2^19 do not
    with pytest.raises(SizingError):
        CircleSampler().points(20)
    with pytest.raises(SizingError):
        check_sip_linear(circle((-1, 0), (1, 0), (4, 40)))


def test_cli_refuses_an_oversized_level(tmp_path, capsys) -> None:
    doc = {
        "format_version": 1,
        "kind": "check-sip",
        "id": "huge",
        "dim": 2,
        "cost": [-1, 0],
        "point": [1, 0],
        "sampler": "circle",
        "levels": [22],
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    code = main(["check-sip", str(path), "--format", "machine"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.startswith("refused: ")
