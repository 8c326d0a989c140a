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

``functions.exact_subdifferential`` gives the whole of d_0 f(x) the same
way: the slopes of the pieces attaining f(x) and the rays of N_D(x), pruned
by generators(). It must equal ``eps_subdifferential(f, x, 0)`` as a
GeneratorSet, points and rays in order, on members in dims 1 to 5 that add
repeated active slopes, levels f(x) other than 0 and points off the domain.
"""

from __future__ import annotations

import ast
from fractions import Fraction
from pathlib import Path
from random import Random

import supcone
from supcone.formulas import SupFamily, _sublevel_rays
from supcone.functions import (
    eps_subdifferential,
    evaluate,
    exact_subdifferential,
    max_affine,
    normal_cone_rays,
)
from supcone.generate import random_direction, random_point
from supcone.geometry import (
    POS_INF,
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


def random_member(rng: Random, dim: int):
    """(member, x) at any level: random_active_member's pieces lifted so that
    f(x) = c (c = 0 a quarter of the time), at times a second copy of an
    active piece or an inactive piece parallel to an active one, and at
    times a domain row that cuts x off."""
    f, x = random_active_member(rng, dim)
    c = F(0) if rng.random() < 0.25 else F(rng.randint(-6, 6), rng.randint(1, 3))
    pieces = [(p.slope, p.intercept + c) for p in f.pieces]
    active = [(a, b) for a, b in pieces if dot(a, x) + b == c]
    roll = rng.random()
    if roll < 0.2:
        pieces.append(rng.choice(active))
    elif roll < 0.4:
        a, b = rng.choice(active)
        pieces.append((a, b - rng.randint(1, 3)))
    rows = list(f.domain.halfspaces)
    if rng.random() < 0.1:
        n = random_direction(rng, dim, span=2)
        rows.append(HalfSpace(n, dot(n, x) - 1))
    return max_affine(dim, pieces, polyhedron(dim, rows)), x


def test_exact_subdifferential_matches_the_conversion() -> None:
    # The whole GeneratorSet, points and rays in order: certificates and
    # witnesses print its generators and their multipliers. With a line in
    # N_D(x) the helper returns the conversion itself, and the floor on that
    # class checks that this branch is reached; the rest are read off the
    # pieces.
    members = [random_member(Random(16000 + k), 1 + k % 5) for k in range(1250)]
    seen = dict.fromkeys(
        ("zero slope", "repeated slopes", "opposite slopes", "inactive",
         "nonzero level", "off domain", "line in N_D(x)"),
        0,
    )
    for f, x in members:
        assert exact_subdifferential(f, x) == eps_subdifferential(f, x, 0), (f, x)
        fx = evaluate(f, x)
        if fx == POS_INF:
            seen["off domain"] += 1
            continue
        active = [p.slope for p in f.pieces if p.value(x) == fx]
        rows = [h.normal for h in f.domain.halfspaces if dot(h.normal, x) == h.offset]
        seen["zero slope"] += zero_vec(f.dim) in active
        seen["repeated slopes"] += len(set(active)) < len(active)
        seen["opposite slopes"] += any(vscale(F(-1), a) in active for a in active if any(a))
        seen["inactive"] += len(active) < len(f.pieces)
        seen["nonzero level"] += fx != 0
        seen["line in N_D(x)"] += cone_has_line(f.dim, rows)
    assert min(seen.values()) >= 100, seen
    assert {f.dim for f, _ in members} == {1, 2, 3, 4, 5}


def test_conversions_are_referenced_only_in_functions() -> None:
    # Every d_0 f(x) goes through exact_subdifferential, which alone decides
    # when the epigraph is converted; the package root only re-exports.
    names = {"eps_subdifferential", "epigraph_generators"}
    root = Path(supcone.__file__).parent
    refs = set()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and node.id in names:
                refs.add((rel, "name"))
            elif isinstance(node, ast.Attribute) and node.attr in names:
                refs.add((rel, "attribute"))
            elif isinstance(node, ast.alias) and node.name in names:
                refs.add((rel, "import"))
    assert {r for r in refs if r[0] != "functions.py"} == {("__init__.py", "import")}
    assert ("functions.py", "name") in refs
