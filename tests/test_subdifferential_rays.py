"""The rays through d_0 f(x) read off the active pieces, against the conversion.

An active proper member adds to the sublevel normal cone the rays through
d_0 f(x) = conv{slopes of the pieces active at x} + N_D(x), pruned per
member. ``formulas._sublevel_rays`` takes them from the cone of the nonzero
active slopes and the rays of N_D(x), and converts d_0 f(x) only when that
cone contains a line. The reference keeps the conversion for every member:
``generators(dim, [0], points + rays of eps_subdifferential(f, x, 0)).rays``.
The two must agree ray for ray, in order: the generators reach the reports.

The seeded members span dims 1 to 4 and mix zero slopes, opposite active
slopes, inactive pieces, and domains with active rows, equality pairs and
slack rows.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from supcone.formulas import SupFamily, _sublevel_rays
from supcone.functions import eps_subdifferential, evaluate, max_affine, normal_cone_rays
from supcone.generate import random_direction, random_point
from supcone.geometry import (
    HalfSpace,
    cone,
    cone_contains,
    dot,
    generators,
    polyhedron,
    vscale,
    zero_vec,
)

F = Fraction


def random_active_member(rng: Random, dim: int):
    """(member, x) with f(x) = 0: 1-3 active pieces, some with a zero slope
    or the opposite slope of an earlier one, 0-2 inactive pieces, and a
    domain of active rows (some in +- pairs) and slack rows through x."""
    x = random_point(rng, dim)
    slopes = []
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.15:
            slopes.append(zero_vec(dim))
        elif roll < 0.4 and slopes:
            slopes.append(vscale(F(-1), rng.choice(slopes)))
        else:
            slopes.append(random_direction(rng, dim, span=2))
    pieces = [(a, -dot(a, x)) for a in slopes]
    for _ in range(rng.randint(0, 2)):
        a = random_direction(rng, dim, span=2)
        pieces.append((a, -dot(a, x) - rng.randint(1, 3)))
    rows = []
    for _ in range(rng.choice((0, 0, 1, 2, 3))):
        n = random_direction(rng, dim, span=2)
        rows.append(HalfSpace(n, dot(n, x)))
        if rng.random() < 0.3:
            rows.append(HalfSpace(vscale(F(-1), n), -dot(n, x)))
    for _ in range(rng.randint(0, 1)):
        n = random_direction(rng, dim, span=2)
        rows.append(HalfSpace(n, dot(n, x) + rng.randint(1, 2)))
    rng.shuffle(pieces)
    return max_affine(dim, pieces, polyhedron(dim, rows)), x


def reference_rays(f, x) -> list:
    """The member's rays through the conversion: those of N_D(x), then the
    pruned cone of d_0 f(x)'s points and rays."""
    dom = list(normal_cone_rays(f.domain, x)) if f.domain.halfspaces else []
    sub0 = eps_subdifferential(f, x, 0)
    return dom + list(generators(f.dim, [zero_vec(f.dim)], sub0.points + sub0.rays).rays)


def cone_has_line(dim, rays) -> bool:
    """Does cone(rays) contain a line? It does iff the negative of some
    generator lies in it."""
    c = cone(dim, rays)
    return any(cone_contains(c, vscale(F(-1), r)) for r in c.rays)


def test_d0_rays_match_the_conversion() -> None:
    members = [random_active_member(Random(15000 + k), 1 + k % 4) for k in range(1200)]
    seen = dict.fromkeys(("line", "zero slope", "opposite slopes", "equality pair", "inactive"), 0)
    for f, x in members:
        assert evaluate(f, x) == 0
        want = reference_rays(f, x)
        assert _sublevel_rays(SupFamily(f.dim, (("f", f),)), x) == want, (f, x)
        sub0 = eps_subdifferential(f, x, 0)
        active = [p.slope for p in f.pieces if p.value(x) == 0]
        rows = [h.normal for h in f.domain.halfspaces if dot(h.normal, x) == h.offset]
        seen["line"] += cone_has_line(f.dim, sub0.points + sub0.rays)
        seen["zero slope"] += zero_vec(f.dim) in active
        seen["opposite slopes"] += any(vscale(F(-1), a) in active for a in active if any(a))
        seen["equality pair"] += any(vscale(F(-1), n) in rows for n in rows)
        seen["inactive"] += len(active) < len(f.pieces)
    # the conversion fallback (a cone with a line) is well covered
    assert seen["line"] >= 300, seen
    assert min(seen.values()) >= 100, seen
    assert {f.dim for f, _ in members} == {1, 2, 3, 4}
