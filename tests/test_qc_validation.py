"""The int-lattice qc validation against the Fraction probe loop it replaces.

``ref_validate`` is ``SublevelOracleQC.__post_init__``'s probe loop as it was
when every lattice probe was a Fraction tuple with a Fraction dot product per
halfspace. It lives here only to pin the int lattice test to the same
accept/reject decision and the same InputError text, on seeded generated
instances and on planted mismatches.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from random import Random

from supcone.errors import InputError
from supcone.formulas import AffineComposed1D, QCMember, SmoothQCMember, SublevelOracleQC
from supcone.functions import Affine1, QuasiConvex1D, domain_generators
from supcone.generate import random_qc_instance
from supcone.geometry import HalfSpace, dot, poly_contains_point, polyhedron, vscale

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
                raise InputError(
                    f"member {m.ident!r}: declared sublevel and evaluator disagree "
                    f"at {y} (value {val}, declared {'inside' if inside else 'outside'})"
                )


def error_text(check, dim: int, members) -> str | None:
    try:
        check(dim, tuple(members))
    except InputError as exc:
        return str(exc)
    return None


def assert_same_decision(dim: int, members) -> str | None:
    want = error_text(ref_validate, dim, members)
    got = error_text(SublevelOracleQC, dim, members)
    assert got == want
    return got


def seeded_instances(count: int = 80):
    return [random_qc_instance(Random(7000 + seed)).qc for seed in range(count)]


def flipped(m: QCMember, k: int) -> QCMember:
    rows = list(m.sublevel.halfspaces)
    h = rows[k]
    rows[k] = HalfSpace(vscale(F(-1), h.normal), -h.offset)
    return replace(m, sublevel=polyhedron(m.sublevel.dim, rows))


def test_seeded_instances_are_accepted_by_both_checks() -> None:
    seen_dims, seen_types = set(), set()
    for qc in seeded_instances():
        assert error_text(ref_validate, qc.dim, qc.members) is None
        seen_dims.add(qc.dim)
        seen_types.update(type(m.evaluator) for m in qc.members)
    assert seen_dims == {2, 3}
    assert seen_types == {SmoothQCMember, AffineComposed1D}


def test_planted_mismatches_raise_the_same_error() -> None:
    rejected = accepted = 0
    for qc in seeded_instances():
        members = list(qc.members)
        for i, m in enumerate(members):
            variants = [
                # the evaluator's root moves along its direction
                replace(m, evaluator=replace(m.evaluator, shift=m.evaluator.shift + d))
                for d in (F(1, 2), F(-1), F(1, 3))
            ]
            variants.extend(flipped(m, k) for k in range(len(m.sublevel.halfspaces)))
            for v in variants:
                got = assert_same_decision(qc.dim, members[:i] + [v] + members[i + 1 :])
                if got is None:
                    accepted += 1
                else:
                    rejected += 1
    assert rejected > 100 and accepted > 0


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
        got = assert_same_decision(len(direction), [non_closed_member(direction, shift)])
        assert got is not None and "declared inside" in got


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
        assert assert_same_decision(dim, [m]) is None
        accepted += 1
        for d in (F(1, 6), F(-1, 4), F(1, 2)):
            moved = replace(m, evaluator=replace(m.evaluator, shift=shift + d))
            if assert_same_decision(dim, [moved]) is None:
                accepted += 1
            else:
                rejected += 1
        for k in range(len(m.sublevel.halfspaces)):
            assert assert_same_decision(dim, [flipped(m, k)]) is not None
            rejected += 1
    assert rejected > 60 and accepted > 60
