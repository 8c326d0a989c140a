"""The rays of N_D(x) read off the active rows, against the conversions.

The normal-cone formulas read only the rays of d_eps f(x) and of the
eps-normal set N^eps_D(x), and take them from
``functions.normal_cone_rays(D, x)``, which takes no eps: the extreme rays
of the active rows when N_D(x) is pointed, and the meet of its polar when it
contains a line. It must return exactly the rays of the conversion,
``eps_subdifferential(f, x, eps).rays`` or ``eps_normal_set(D, x, eps).rays``,
at every eps: the generators reach the reports. So the conversion's rays
are the same at every eps, which lets the intersection form collect them
once.

The seeded (member, x) pairs span dims 1 to 5: the members of the
criterion-02, -03 and -04 families at their anchors, random anchored
domains, and domains with equality pairs and other rows whose active cone
contains a line. Points lie on the boundary (the vertices), in the relative
interior and on the whole space.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from supcone.errors import PreconditionError
from supcone.functions import (
    PolyhedralFunction,
    domain_generators,
    eps_normal_set,
    eps_subdifferential,
    max_affine,
    normal_cone_rays,
)
from supcone.generate import (
    random_affine_family,
    random_direction,
    random_dom_family,
    random_max_affine_family,
    random_point,
    random_polyhedron,
)
from supcone.geometry import (
    HalfSpace,
    dot,
    halfspace,
    is_pointed,
    polyhedron,
    vadd,
    vscale,
    whole_space,
)

F = Fraction

EPS = (F(1), F(1, 2), F(1, 1024), F(3, 7), F(1024))


def family_cases(g) -> list:
    """(member, anchor) for every member of a generated family: a proper
    member as itself, an improper one as its domain."""
    return [
        (f if isinstance(f, PolyhedralFunction) else f.domain, g.point)
        for _, f in g.family.members
    ]


def domain_points(domain) -> list:
    """Points of a nonempty domain: each vertex of its minimal faces, one
    point along a ray from the first of them, and one in the relative
    interior (the mean of the vertices plus every ray)."""
    gen = domain_generators(domain)
    pts = list(gen.points)
    if gen.rays:
        pts.append(vadd(gen.points[0], gen.rays[0]))
    inner = vscale(F(1, len(gen.points)), tuple(map(sum, zip(*gen.points))))
    for r in gen.rays:
        inner = vadd(inner, r)
    pts.append(inner)
    return list(dict.fromkeys(pts))


def equality_domain(rng: Random, dim: int):
    """A domain through a random x with rows active at x, some in +- pairs
    and sometimes a row triple a, b, -(a + b): N_D(x) then contains a line.
    Slack rows at x keep the rest of the boundary varied."""
    x = random_point(rng, dim)
    rows = []
    for _ in range(rng.randint(1, 3)):
        n = random_direction(rng, dim)
        rows.append(HalfSpace(n, dot(n, x)))
        if rng.random() < 0.6:
            rows.append(HalfSpace(vscale(F(-1), n), -dot(n, x)))
    if dim >= 2 and rng.random() < 0.5:
        a, b = random_direction(rng, dim), random_direction(rng, dim)
        for n in (a, b, vscale(F(-1), vadd(a, b))):
            rows.append(HalfSpace(n, dot(n, x)))
    for _ in range(rng.randint(0, 2)):
        n = random_direction(rng, dim)
        rows.append(HalfSpace(n, dot(n, x) + rng.randint(1, 2)))
    return polyhedron(dim, rows), x


def random_member(rng: Random, dim: int, domain):
    """A max-affine member with 1-2 pieces on the domain."""
    pieces = [(random_direction(rng, dim), rng.randint(-2, 2)) for _ in range(rng.randint(1, 2))]
    return max_affine(dim, pieces, domain)


def source_cases(source: str) -> list:
    """The seeded (member, x) pairs of one source."""
    streams = {
        "criterion-02": (random_max_affine_family, range(3000, 3080)),
        "criterion-03": (random_affine_family, range(1000, 1060)),
        "criterion-04": (random_dom_family, range(4000, 4060)),
    }
    if source in streams:
        make, seeds = streams[source]
        return [c for seed in seeds for c in family_cases(make(Random(seed)))]
    out = []
    if source == "whole-space":
        rng = Random(12200)
        for dim in range(1, 6):
            for _ in range(4):
                out.append((whole_space(dim), random_point(rng, dim)))
                out.append((random_member(rng, dim, whole_space(dim)), random_point(rng, dim)))
        return out
    # Members get dims 1-4 only: a dim-5 d_eps f(x) conversion costs up to
    # a second. Dim-5 equality domains keep one point for the same reason.
    rng = Random(12000 if source == "anchored" else 12100)
    for k in range(100):
        dim = 1 + k % 5
        if source == "anchored":
            domain = random_polyhedron(rng, dim, anchored=True)
            points = domain_points(domain)
            with_member = k % 2 and dim <= 4
        else:
            domain, x0 = equality_domain(rng, dim)
            points = [x0] if dim == 5 else [x0] + domain_points(domain)
            with_member = k % 3 == 0 and dim <= 4
        member = random_member(rng, dim, domain) if with_member else None
        for x in points:
            out.append((domain, x))
            if member is not None:
                out.append((member, x))
    return out


SOURCES = ("criterion-02", "criterion-03", "criterion-04", "anchored", "equality", "whole-space")


def conversion_rays(member, x, e):
    """The rays of d_e f(x) for a proper member, of N^e_D(x) for a domain."""
    if isinstance(member, PolyhedralFunction):
        return eps_subdifferential(member, x, e).rays
    return eps_normal_set(member, x, e).rays


def domain_of(member):
    return member.domain if isinstance(member, PolyhedralFunction) else member


@pytest.mark.parametrize("source", SOURCES)
def test_rays_match_the_conversion(source) -> None:
    for member, x in source_cases(source):
        got = normal_cone_rays(domain_of(member), x)
        for e in EPS:
            assert got == conversion_rays(member, x, e), (member, x, e)


def has_line(domain, x) -> bool:
    """Does N_D(x), the cone of the rows active at x, contain a line?"""
    active = [h.normal for h in domain.halfspaces if dot(h.normal, x) == h.offset]
    return not is_pointed(domain.dim, active)


def test_cases_cover_the_fallback_and_every_dim() -> None:
    """Both branches of normal_cone_rays in every dim: the pointed one and
    the one for a cone with a line."""
    cases = [c for source in SOURCES for c in source_cases(source)]
    domains = [domain_of(m) for m, _ in cases]
    lines = [has_line(d, x) for d, (_, x) in zip(domains, cases)]
    rays = [normal_cone_rays(d, x) for d, (_, x) in zip(domains, cases)]
    assert len(cases) >= 1000
    assert sum(lines) >= 100
    # pointed, with active rows
    assert sum(bool(r) and not line for r, line in zip(rays, lines)) >= 100
    assert sum(r == () and d.halfspaces != () for r, d in zip(rays, domains)) >= 100
    assert sum(isinstance(m, PolyhedralFunction) for m, _ in cases) >= 300
    assert {d.dim for d in domains} == {1, 2, 3, 4, 5}
    line_dims = {d.dim for d, line in zip(domains, lines) if line}
    assert line_dims == {1, 2, 3, 4, 5}


def test_normal_cone_rays_reads_the_active_rows() -> None:
    quadrant = polyhedron(2, [halfspace((1, 0), 0), halfspace((0, 1), 0)])
    origin = (F(0), F(0))
    assert normal_cone_rays(quadrant, origin) == ((0, 1), (1, 0))
    assert normal_cone_rays(quadrant, (F(-1), F(0))) == ((0, 1),)
    assert normal_cone_rays(quadrant, (F(-1), F(-1))) == ()
    assert normal_cone_rays(whole_space(2), origin) == ()
    line = polyhedron(2, [halfspace((0, 1), 0), halfspace((0, -1), 0)])
    assert normal_cone_rays(line, origin) == ((0, -1), (0, 1))
    with pytest.raises(PreconditionError):
        normal_cone_rays(quadrant, (F(1), F(0)))

