"""Seeded random instance generators.

Every generator takes a random.Random and is a pure function of its state, so
a fixed seed always reproduces the same instance. Instances are built around a
feasible anchor point chosen first; margins of 0 put the anchor on a boundary,
positive margins put it inside.
"""

from __future__ import annotations

import random
from fractions import Fraction
from dataclasses import dataclass

from .formulas import (
    AffineComposed1D,
    QCMember,
    SmoothQCMember,
    SublevelOracleQC,
    SupFamily,
    _interval_rows,
)
from .functions import (
    Affine1,
    AffinePiece,
    ImproperFunction,
    PolyhedralFunction,
    QuasiConvex1D,
    interval_equal,
)
from .errors import InputError
from .geometry import (
    GeneratorSet,
    HalfSpace,
    PolyhedronH,
    Vec,
    dot,
    generators,
    polyhedron,
    whole_space,
)
from .optimality import ProgramInstance, Qualification


def random_point(rng: random.Random, dim: int, span: int = 2) -> Vec:
    return tuple(Fraction(rng.randint(-span, span)) for _ in range(dim))


def random_direction(rng: random.Random, dim: int, span: int = 3) -> Vec:
    while True:
        v = tuple(Fraction(rng.randint(-span, span)) for _ in range(dim))
        if any(c != 0 for c in v):
            return v


def _anchored_halfspaces(rng: random.Random, dim: int, x: Vec, k: int) -> list[HalfSpace]:
    # every row holds at x; margin 0 makes it active there
    rows = []
    for _ in range(k):
        n = random_direction(rng, dim)
        margin = Fraction(rng.choice((0, 0, 1, 2)))
        rows.append(HalfSpace(n, dot(n, x) + margin))
    return rows


@dataclass(frozen=True)
class GeneratedCone:
    family: SupFamily
    point: Vec
    epsilon: Fraction


@dataclass(frozen=True)
class GeneratedDom:
    family: SupFamily
    point: Vec
    epsilon: Fraction
    alpha: object  # None | "ones"


@dataclass(frozen=True)
class GeneratedQC:
    qc: SublevelOracleQC
    point: Vec
    epsilon: Fraction


@dataclass(frozen=True)
class GeneratedProgram:
    program: ProgramInstance
    epsilon: Fraction


EPSILONS = (Fraction(1), Fraction(1, 2), Fraction(1, 4))


def random_affine_family(rng: random.Random) -> GeneratedCone:
    """Plain affine members plus ~20% improper ones, feasible at the anchor."""
    dim = rng.choice((2, 3, 4))
    n = rng.randint(1, 8)
    x = random_point(rng, dim)
    members: list[tuple[str, object]] = []
    n_improper = sum(1 for _ in range(n) if rng.random() < 0.2)
    n_improper = min(n_improper, n - 1) if n > 1 else 0
    for i in range(n - n_improper):
        a = random_direction(rng, dim)
        margin = Fraction(rng.choice((0, 0, 1, 2)))
        members.append(
            (f"a{i}", PolyhedralFunction(dim, (AffinePiece(a, -dot(a, x) - margin),), whole_space(dim)))
        )
    for i in range(n_improper):
        dom = polyhedron(dim, _anchored_halfspaces(rng, dim, x, rng.randint(1, 2)))
        members.append((f"i{i}", ImproperFunction(dim, dom)))
    return GeneratedCone(SupFamily(dim, tuple(members)), x, rng.choice(EPSILONS))


def random_max_affine_family(rng: random.Random) -> GeneratedCone:
    """Max-affine members, some with restricted domains, some improper."""
    dim = rng.choice((2, 3))
    n = rng.randint(1, 5)
    x = random_point(rng, dim)
    members: list[tuple[str, object]] = []
    n_improper = 0
    for i in range(n):
        if n_improper < n - 1 and rng.random() < 0.15:
            n_improper += 1
            dom = polyhedron(dim, _anchored_halfspaces(rng, dim, x, rng.randint(1, 2)))
            members.append((f"i{i}", ImproperFunction(dim, dom)))
            continue
        member_margin = Fraction(rng.choice((0, 0, 1)))
        pieces = []
        k = rng.randint(1, 3)
        for j in range(k):
            a = random_direction(rng, dim)
            margin = member_margin if j == 0 else member_margin + rng.randint(0, 2)
            pieces.append(AffinePiece(a, -dot(a, x) - margin))
        dom = whole_space(dim)
        if rng.random() < 0.3:
            dom = polyhedron(dim, _anchored_halfspaces(rng, dim, x, rng.randint(1, 2)))
        members.append((f"m{i}", PolyhedralFunction(dim, tuple(pieces), dom)))
    return GeneratedCone(SupFamily(dim, tuple(members)), x, rng.choice(EPSILONS))


def random_dom_family(rng: random.Random) -> GeneratedDom:
    """Restricted-domain family with at least one improper member."""
    dim = rng.choice((2, 3))
    n = rng.randint(2, 5)
    x = random_point(rng, dim)
    members: list[tuple[str, object]] = []
    n_improper = max(1, sum(1 for _ in range(n) if rng.random() < 0.3))
    n_improper = min(n_improper, n - 1)
    for i in range(n - n_improper):
        k = rng.randint(1, 2)
        pieces = []
        for j in range(k):
            a = random_direction(rng, dim)
            # values at the anchor may be positive: only the domain matters here
            pieces.append(AffinePiece(a, -dot(a, x) + rng.randint(-2, 2)))
        dom = whole_space(dim)
        if rng.random() < 0.6:
            dom = polyhedron(dim, _anchored_halfspaces(rng, dim, x, rng.randint(1, 2)))
        members.append((f"p{i}", PolyhedralFunction(dim, tuple(pieces), dom)))
    for i in range(n_improper):
        dom = polyhedron(dim, _anchored_halfspaces(rng, dim, x, rng.randint(1, 2)))
        members.append((f"i{i}", ImproperFunction(dim, dom)))
    alpha = rng.choice((None, None, "ones"))
    return GeneratedDom(SupFamily(dim, tuple(members)), x, rng.choice(EPSILONS), alpha)


_PROFILE_BUILDERS = (
    # (name, profile factory); every profile has a closed nonempty [q <= 0]
    ("abs", lambda: QuasiConvex1D((Fraction(0),), (Affine1(Fraction(-1), Fraction(0)), Affine1(Fraction(1), Fraction(0))), (Fraction(0),))),
    ("vee", lambda: QuasiConvex1D((Fraction(0),), (Affine1(Fraction(-2), Fraction(0)), Affine1(Fraction(3), Fraction(0))), (Fraction(0),))),
    ("hinge", lambda: QuasiConvex1D((Fraction(1),), (Affine1(Fraction(0), Fraction(0)), Affine1(Fraction(1), Fraction(-1))), (Fraction(0),))),
    ("ramp", lambda: QuasiConvex1D((Fraction(0),), (Affine1(Fraction(-1), Fraction(0)), Affine1(Fraction(0), Fraction(0))), (Fraction(0),))),
    ("trough", lambda: QuasiConvex1D((Fraction(-1), Fraction(1)), (Affine1(Fraction(-1), Fraction(-1)), Affine1(Fraction(0), Fraction(0)), Affine1(Fraction(2), Fraction(-2))), (Fraction(0), Fraction(0)))),
)


def _random_smooth(rng: random.Random, dim: int, x: Vec, ident: str) -> QCMember:
    a = random_direction(rng, dim, span=2)
    root = Fraction(rng.randint(-2, 2))
    form = rng.choice(("linear", "cubic", "quintic"))
    if form == "linear":
        c = Fraction(rng.randint(1, 3))
        coeffs = (-c * root, c)
    elif form == "cubic":
        beta = Fraction(rng.randint(0, 2))
        coeffs = (-root**3 - beta * root, beta, Fraction(0), Fraction(1))
    else:
        beta = Fraction(rng.randint(0, 1))
        coeffs = (-root**5 - beta * root, beta, Fraction(0), Fraction(0), Fraction(0), Fraction(1))
    if rng.random() < 0.5:
        coeffs = tuple(-c for c in coeffs)
    margin = Fraction(rng.choice((0, 0, 1)))
    increasing = SmoothQCMember(a, Fraction(0), coeffs, root).increasing
    # place the anchor inside the halfspace: u(x) on the feasible side of the root
    shift = root - dot(a, x) + (-margin if increasing else margin)
    ev = SmoothQCMember(a, shift, coeffs, root)
    return QCMember(ident, ev.zero_sublevel(), ev)


def _random_profile_member(rng: random.Random, dim: int, x: Vec, ident: str) -> QCMember:
    a = random_direction(rng, dim, span=2)
    _, build = rng.choice(_PROFILE_BUILDERS)
    prof = build()
    ev0 = AffineComposed1D(a, Fraction(0), prof)
    iv = ev0.zero_sublevel_interval()
    anchors = [b for b in (iv.lo, iv.hi) if b is not None]
    if not anchors or rng.random() < 0.5:
        u_star = (iv.lo if iv.lo is not None else iv.hi - 1) if anchors else Fraction(0)
        if anchors and iv.lo is not None and iv.hi is not None:
            u_star = (iv.lo + iv.hi) / 2 if rng.random() < 0.5 else rng.choice(anchors)
    else:
        u_star = rng.choice(anchors)
    shift = u_star - dot(a, x)
    ev = AffineComposed1D(a, shift, prof)
    if iv.is_empty or not interval_equal(iv, iv.closure()):
        raise InputError("declared sublevels must be closed and nonempty")
    sub = polyhedron(dim, _interval_rows(a, shift, iv))
    return QCMember(ident, sub, ev)


def random_qc_instance(rng: random.Random) -> GeneratedQC:
    dim = rng.choice((2, 3))
    n = rng.randint(1, 3)
    x = random_point(rng, dim, span=1)
    members = []
    for i in range(n):
        if rng.random() < 0.5:
            members.append(_random_smooth(rng, dim, x, f"s{i}"))
        else:
            members.append(_random_profile_member(rng, dim, x, f"v{i}"))
    eps = rng.choice((Fraction(1, 2), Fraction(1, 4)))
    return GeneratedQC(SublevelOracleQC(dim, tuple(members)), x, eps)


def random_program(rng: random.Random) -> GeneratedProgram:
    """Convex program over an affine family; about half are optimal by design."""
    base = random_affine_family(rng)
    fam, x = base.family, base.point
    dim = fam.dim
    active_slopes: list[Vec] = []
    for _, f in fam.proper_items():
        if f.pieces[0].value(x) == 0:
            active_slopes.append(f.pieces[0].slope)
    for _, f in fam.improper_items():
        for h in f.domain.halfspaces:
            if dot(h.normal, x) == h.offset:
                active_slopes.append(h.normal)
    if active_slopes and rng.random() < 0.5:
        g = tuple(Fraction(0) for _ in range(dim))
        for s in active_slopes:
            if rng.random() < 0.7:
                g = tuple(gc - rng.randint(1, 2) * sc for gc, sc in zip(g, s))
        slope = g
    else:
        slope = random_direction(rng, dim)
    pieces = [AffinePiece(slope, Fraction(rng.randint(-1, 1)))]
    if rng.random() < 0.3:
        # extra piece kept strictly below the first at the anchor
        a2 = random_direction(rng, dim)
        pieces.append(AffinePiece(a2, dot(slope, x) + pieces[0].intercept - dot(a2, x) - rng.randint(1, 2)))
    objective = PolyhedralFunction(dim, tuple(pieces), whole_space(dim))
    prog = ProgramInstance(objective, fam, x, Qualification("objective-continuous", x))
    return GeneratedProgram(prog, rng.choice(EPSILONS))


def random_polyhedron(rng: random.Random, dim: int | None = None, anchored: bool = False) -> PolyhedronH:
    d = dim if dim is not None else rng.choice((2, 3))
    k = rng.randint(1, 4)
    if anchored:
        x = random_point(rng, d)
        return polyhedron(d, _anchored_halfspaces(rng, d, x, k))
    rows = [HalfSpace(random_direction(rng, d), Fraction(rng.randint(-2, 2))) for _ in range(k)]
    return polyhedron(d, rows)


def random_generator_set(rng: random.Random, dim: int | None = None) -> GeneratorSet:
    d = dim if dim is not None else rng.choice((2, 3))
    n_pts = rng.randint(1, 3)
    n_rays = rng.randint(0, 3)
    pts = [random_point(rng, d) for _ in range(n_pts)]
    rays = [random_direction(rng, d) for _ in range(n_rays)]
    return generators(d, pts, rays)
