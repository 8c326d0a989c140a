"""The exact qc sublevel check against two references.

``ref_validate`` is the probe loop ``SublevelOracleQC.__post_init__`` ran
before the exact check: the declared vertices, then the 5^dim half-integer
lattice. It is one-sided: every input it rejects must still be rejected,
while a mismatch that no probe lands in got through it. ``ref_exact`` is the
equality the check decides, stated directly: the evaluator's zero-sublevel
interval I is closed (or empty) and the declared polyhedron equals
{y : <d, y> + shift in I} (``poly_equal``). Every point a rejection names is
re-verified against the member it names.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import replace
from fractions import Fraction
from random import Random

from supcone import geometry
from supcone.errors import InputError
from supcone.formulas import (
    AffineComposed1D,
    QCMember,
    SmoothQCMember,
    SublevelOracleQC,
    _interval_rows,
)
from supcone.functions import Affine1, QuasiConvex1D, domain_generators, interval_equal
from supcone.generate import random_qc_instance
from supcone.geometry import (
    HalfSpace,
    dot,
    format_rat,
    poly_contains_point,
    poly_equal,
    polyhedron,
    vscale,
)
from test_single_evaluation import count_calls

F = Fraction


def ref_validate(dim: int, members) -> None:
    probes = []
    for m in members:
        probes.extend(domain_generators(m.sublevel).points)
    half = Fraction(1, 2)
    for combo in itertools.product(range(-2, 3), repeat=dim):
        probes.append(tuple(half * c for c in combo))
    for m in members:
        ev = m.evaluator
        values = {}
        for y in probes:
            inside = poly_contains_point(m.sublevel, y)
            u = dot(ev.direction, y) + ev.shift
            val = values.get(u)
            if val is None:
                val = values[u] = ev.value_at(u)
            if inside != (val <= 0):
                probe = ", ".join(format_rat(c) for c in y)
                raise InputError(
                    f"member {m.ident!r}: declared sublevel and evaluator disagree "
                    f"at ({probe}) (value {val}, declared {'inside' if inside else 'outside'})"
                )


def ref_exact(dim: int, members) -> None:
    for m in members:
        ev = m.evaluator
        iv = ev.zero_sublevel_interval()
        closed = interval_equal(iv, iv.closure())
        evaluator_set = polyhedron(dim, _interval_rows(ev.direction, ev.shift, iv))
        if not (closed and poly_equal(m.sublevel, evaluator_set)):
            raise InputError(f"member {m.ident!r}")


def error_text(check, dim: int, members) -> str | None:
    try:
        check(dim, tuple(members))
    except InputError as exc:
        return str(exc)
    return None


MESSAGE = re.compile(
    r"member '(.+)': declared sublevel and evaluator disagree "
    r"at \((.*)\) \(value (.+), declared (inside|outside)\)"
)


def reverify(members, text: str) -> None:
    """The named point is one where the named member's declared set and its
    evaluator disagree, with the value and side the text gives."""
    ident, point, value, side = MESSAGE.fullmatch(text).groups()
    m = next(m for m in members if m.ident == ident)
    y = tuple(F(c) for c in point.split(", "))
    val = m.evaluator.value(y)
    inside = poly_contains_point(m.sublevel, y)
    assert str(val) == value
    assert inside == (side == "inside")
    assert inside != (val <= 0)


def decide_exactly(dim: int, members) -> str | None:
    """The exact check's error text, None for an accepted input: it accepts
    iff ref_exact does and names a point that re-verifies."""
    got = error_text(SublevelOracleQC, dim, members)
    if got is not None:
        reverify(members, got)
    assert (got is None) == (error_text(ref_exact, dim, members) is None)
    return got


def decide(dim: int, members) -> tuple[str | None, str | None]:
    """(the exact check's error text, the lattice's): decide_exactly, which
    also rejects whatever the lattice rejects."""
    got = decide_exactly(dim, members)
    lattice = error_text(ref_validate, dim, members)
    assert lattice is None or got is not None
    return got, lattice


def seeded_instances(count: int = 80):
    return [random_qc_instance(Random(7000 + seed)).qc for seed in range(count)]


def flipped(m: QCMember, k: int) -> QCMember:
    rows = list(m.sublevel.halfspaces)
    h = rows[k]
    rows[k] = HalfSpace(vscale(F(-1), h.normal), -h.offset)
    return replace(m, sublevel=polyhedron(m.sublevel.dim, rows))


def with_oblique_row(m: QCMember) -> QCMember:
    # adds <d + e_k, y> <= 1 with e_k not parallel to d: the declared set is
    # no longer a cylinder along d's orthogonal complement
    d = m.evaluator.direction
    k = next(k for k in range(len(d)) if any(c != 0 for j, c in enumerate(d) if j != k))
    normal = tuple(c + (1 if j == k else 0) for j, c in enumerate(d))
    rows = list(m.sublevel.halfspaces) + [HalfSpace(normal, F(1))]
    return replace(m, sublevel=polyhedron(m.sublevel.dim, rows))


SHIFTS = (F(1, 2), F(-1), F(1, 3), F(-1, 5), F(1, 1024))


def test_seeded_instances_are_accepted_by_both_checks() -> None:
    seen_dims, seen_types = set(), set()
    for qc in seeded_instances():
        assert error_text(ref_validate, qc.dim, qc.members) is None
        assert error_text(ref_exact, qc.dim, qc.members) is None
        seen_dims.add(qc.dim)
        seen_types.update(type(m.evaluator) for m in qc.members)
    assert seen_dims == {2, 3}
    assert seen_types == {SmoothQCMember, AffineComposed1D}


def test_planted_mismatches_are_rejected_exactly() -> None:
    # every variant is a real mismatch, so every one is rejected, the ones
    # the lattice rejected and the ones no lattice probe landed in alike
    planted = 0
    for qc in seeded_instances():
        members = list(qc.members)
        for i, m in enumerate(members):
            variants = [
                # the evaluator's root moves along its direction
                replace(m, evaluator=replace(m.evaluator, shift=m.evaluator.shift + d))
                for d in SHIFTS
            ]
            variants.extend(flipped(m, k) for k in range(len(m.sublevel.halfspaces)))
            variants.append(with_oblique_row(m))
            for v in variants:
                assert decide_exactly(qc.dim, members[:i] + [v] + members[i + 1 :]) is not None
                planted += 1
    assert planted > 1100


def non_closed_member(direction, shift) -> QCMember:
    # q = -1 on (-inf, 0), +inf from 0 on: [q <= 0] = (-inf, 0) is open,
    # while the declared set {u <= 0} is its closure
    prof = QuasiConvex1D((F(0),), (Affine1(F(0), F(-1)), None), (None,))
    ev = AffineComposed1D(direction, shift, prof)
    d = len(direction)
    return QCMember("open", polyhedron(d, [HalfSpace(direction, -shift)]), ev)


def test_non_closed_profile_is_rejected_the_same_way() -> None:
    for direction, shift in (
        ((F(1), F(0)), F(0)),
        ((F(2), F(-1)), F(1, 2)),
        ((F(1), F(1), F(1)), F(-1)),
        ((F(1, 3), F(2, 5)), F(1, 7)),
    ):
        got, lattice = decide(len(direction), [non_closed_member(direction, shift)])
        assert "declared inside" in got and "declared inside" in lattice


def fractional_smooth(direction, shift, root=F(0)) -> QCMember:
    # p(u) = u^3 + u - root^3 - root, increasing with root as its only zero
    coeffs = (-(root**3) - root, F(1), F(0), F(1))
    ev = SmoothQCMember(direction, shift, coeffs, root)
    return QCMember("frac", ev.zero_sublevel(), ev)


def test_fractional_direction_and_shift() -> None:
    rng = Random(11)
    rejected = accepted = 0
    for _ in range(60):
        dim = rng.choice((2, 3))
        direction = tuple(F(rng.randint(-4, 4), rng.randint(1, 7)) for _ in range(dim))
        if all(c == 0 for c in direction):
            continue
        shift = F(rng.randint(-6, 6), rng.randint(1, 6))
        m = fractional_smooth(direction, shift)
        assert decide_exactly(dim, [m]) is None
        accepted += 1
        for d in (F(1, 6), F(-1, 4), F(1, 2)):
            moved = replace(m, evaluator=replace(m.evaluator, shift=shift + d))
            assert decide_exactly(dim, [moved]) is not None
            rejected += 1
        for k in range(len(m.sublevel.halfspaces)):
            assert decide_exactly(dim, [flipped(m, k)]) is not None
            rejected += 1
    assert rejected > 200 and accepted > 50


def test_off_lattice_declaration_is_rejected() -> None:
    # u = y1 - 1/3 declared as y1 <= 1/4: no lattice probe has 1/4 < y1 <= 1/3
    ev = SmoothQCMember((F(1), F(0)), F(-1, 3), (F(0), F(1)), F(0))
    m = QCMember("m", polyhedron(2, [HalfSpace((F(1), F(0)), F(1, 4))]), ev)
    got, lattice = decide(2, [m])
    assert lattice is None
    assert got == (
        "member 'm': declared sublevel and evaluator disagree at "
        "(1/3, 0) (value 0, declared outside)"
    )
    # roots and declared bounds at thirds, fifths and 1/1024, off by little
    missed = 0
    for root, bound in (
        (F(2, 3), F(3, 5)),
        (F(-1, 5), F(-1, 3)),
        (F(1, 1024), F(0)),
        (F(0), F(1, 1024)),
        (F(7, 5), F(4, 3)),
    ):
        ev = SmoothQCMember((F(1), F(-1)), -root, (F(0), F(1)), F(0))
        declared = polyhedron(2, [HalfSpace((F(1), F(-1)), bound)])
        got, lattice = decide(2, [QCMember("m", declared, ev)])
        assert got is not None
        missed += lattice is None
    assert missed >= 4


def test_open_end_corner_is_rejected() -> None:
    # [q <= 0] = (0, inf) declared as the closed u >= 1/4: an LP point of the
    # closure {u >= 0} sits at u = 0, where both sets leave it out, so the
    # witness comes from the gap level u = 1/8
    prof = QuasiConvex1D((F(0),), (Affine1(F(0), F(1)), Affine1(F(0), F(-1))), (F(1),))
    ev = AffineComposed1D((F(1), F(0)), F(0), prof)
    m = QCMember("c", polyhedron(2, [HalfSpace((F(-4), F(0)), F(-1))]), ev)
    got, lattice = decide(2, [m])
    assert lattice is None
    assert got == (
        "member 'c': declared sublevel and evaluator disagree at "
        "(1/8, 0) (value -1, declared outside)"
    )


def test_open_pair_off_the_lattice_is_rejected() -> None:
    # [y2 > 0] and [y2 < 0] declared as wedges that both reach (3, 0), each
    # with its vertex inside its own set and no lattice probe in a gap; the
    # lattice let them load, and the formula then refused them on cc3
    def member(ident, sign, pieces):
        prof = QuasiConvex1D((F(0),), pieces, (None,))
        ev = AffineComposed1D((F(0), F(1)), F(0), prof)
        rows = [HalfSpace((F(-1), F(-1000 * sign)), F(-3)), HalfSpace((F(-2), F(sign)), F(801, 200))]
        return QCMember(ident, polyhedron(2, rows), ev)

    neg = Affine1(F(0), F(-1))
    members = [member("up", 1, (None, neg)), member("down", -1, (neg, None))]
    got, lattice = decide(2, members)
    assert lattice is None
    assert got == (
        "member 'up': declared sublevel and evaluator disagree at "
        "(-402, 1/200) (value -1, declared outside)"
    )


def test_loading_at_dim_7_converts_nothing(monkeypatch) -> None:
    # two smooth members along coordinate axes and a vee profile along the
    # all-ones direction, each declared exactly
    dim = 7
    members = [
        replace(fractional_smooth(tuple(F(int(j == k)) for j in range(dim)), F(k, 3)), ident=f"s{k}")
        for k in range(2)
    ]
    prof = QuasiConvex1D((F(0),), (Affine1(F(-1), F(0)), Affine1(F(1), F(0))), (F(0),))
    ev = AffineComposed1D(tuple(F(1) for _ in range(dim)), F(1, 2), prof)
    rows = _interval_rows(ev.direction, ev.shift, ev.zero_sublevel_interval())
    members.append(QCMember("v", polyhedron(dim, rows), ev))
    counted = [
        count_calls(monkeypatch, fn)
        for fn in (geometry.h_to_v, geometry.cone_rays, geometry.lp.solve_min_eq)
    ]
    SublevelOracleQC(dim, tuple(members))
    assert counted == [[], [], []]
