"""The integer sign tests at a point against the Fraction code they replace.

Every sign test at a point x (is x in a polyhedron, which rows are tight at
x, which pieces attain f(x), what f(x) is) reads x once as int numerators
over one positive denominator and each affine piece as ints over its own.
The reference functions below are the Fraction implementations as they were
before that change. They live here only to pin the int path to identical
values and identical exception texts on seeded data that is fractional
everywhere: slopes, intercepts, domain rows and points all carry mixed
denominators, unlike the integral inputs of the benchmark and the generators.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

import pytest

from supcone import formulas, functions, oracle
from supcone.errors import InputError, PreconditionError
from supcone.formulas import SupFamily, evaluate_sup
from supcone.functions import (
    AffinePiece,
    ImproperFunction,
    PolyhedralFunction,
    evaluate,
    sublevel_set,
)
from supcone.geometry import (
    HalfSpace,
    POS_INF,
    PolyhedronH,
    cone,
    cone_rays,
    dot,
    generators,
    inequality_cone,
    intersect,
    is_pointed,
    poly_contains_point,
    polyhedron,
    rat,
)
from test_int_feasibility import shifted

F = Fraction
CASES = 1000
DENOMS = (1, 2, 3, 4, 5, 6, 7, 9)


# --------------------------------------------------------------- references


def ref_value(p: AffinePiece, y):
    return dot(p.slope, y) + p.intercept


def ref_poly_contains_point(poly, x) -> bool:
    return all(dot(h.normal, x) <= h.offset for h in poly.halfspaces)


def ref_evaluate(f, y):
    if isinstance(f, ImproperFunction):
        return float("-inf") if ref_poly_contains_point(f.domain, y) else POS_INF
    if not ref_poly_contains_point(f.domain, y):
        return POS_INF
    return max(ref_value(p, y) for p in f.pieces)


def ref_evaluate_sup(family, x):
    best = float("-inf")
    for _, f in family.members:
        v = ref_evaluate(f, x)
        if v == POS_INF:
            return POS_INF
        if v == float("-inf"):
            continue
        if best == float("-inf") or v > best:
            best = v
    return best


def ref_sublevel_set(f, level):
    c = rat(level)
    hs = list(f.domain.halfspaces)
    hs.extend(HalfSpace(p.slope, c - p.intercept) for p in f.pieces)
    return polyhedron(f.dim, hs)


def ref_normal_cone_rays(domain, x):
    active = []
    for h in domain.halfspaces:
        v = dot(h.normal, x)
        if v > h.offset:
            raise PreconditionError("x is outside the domain")
        if v == h.offset:
            active.append(h.normal)
    if is_pointed(domain.dim, active):
        return cone(domain.dim, active).rays
    return inequality_cone(cone_rays(active, domain.dim), domain.dim).rays


def ref_polyhedron_normal_cone(poly, x):
    if not ref_poly_contains_point(poly, x):
        raise PreconditionError(
            "normal cone requested at a point outside the polyhedron"
        )
    tight = [h.normal for h in poly.halfspaces if dot(h.normal, x) == h.offset]
    return cone(poly.dim, tight)


def ref_exact_subdifferential(f, x):
    x = tuple(x)
    fx = ref_evaluate(f, x)
    if fx == POS_INF:
        return functions.empty_generators(f.dim)
    rays = ref_normal_cone_rays(f.domain, x) if f.domain.halfspaces else ()
    if len(rays) > 1 and not is_pointed(f.dim, rays):
        return functions.eps_subdifferential(f, x, 0)
    slopes = [p.slope for p in f.pieces if ref_value(p, x) == fx]
    return generators(f.dim, slopes, rays)


def ref_sublevel_rays(family, x):
    dim = family.dim
    rays = []
    for _, f in family.members:
        dom_rays = ref_normal_cone_rays(f.domain, x) if f.domain.halfspaces else ()
        rays.extend(dom_rays)
        if isinstance(f, PolyhedralFunction) and ref_evaluate(f, x) == 0:
            dirs = [p.slope for p in f.pieces if ref_value(p, x) == 0 and any(p.slope)]
            dirs.extend(dom_rays)
            if len(dirs) > 1 and not is_pointed(dim, dirs):
                sub0 = ref_exact_subdifferential(f, x)
                dirs = list(sub0.points) + list(sub0.rays)
            rays.extend(cone(dim, dirs).rays)
    return rays


# ------------------------------------------------------------ seeded data


def rational(rng: Random, span: int = 6) -> Fraction:
    return F(rng.randint(-span, span), rng.choice(DENOMS))


def rvec(rng: Random, dim: int, zero_ok: bool = True):
    while True:
        v = tuple(rational(rng) if rng.random() < 0.8 else F(0) for _ in range(dim))
        if zero_ok or any(v):
            return v


def gap(rng: Random) -> Fraction:
    return F(rng.randint(1, 9), rng.choice(DENOMS))


def domain_rows(rng: Random, dim: int, x, outside: float):
    """Rows through x, rows with slack at x, and now and then one x breaks."""
    rows = []
    for _ in range(rng.randint(0, 4)):
        n = rvec(rng, dim, zero_ok=False)
        at = dot(n, x)
        roll = rng.random()
        if roll < outside:
            rows.append(HalfSpace(n, at - gap(rng)))
        elif roll < 0.6:
            rows.append(HalfSpace(n, at))
        else:
            rows.append(HalfSpace(n, at + gap(rng)))
    return rows


def pieces(rng: Random, dim: int, x, active: bool):
    """Pieces at most 0 at x, one of them 0 when active; else any values,
    with ties at a level that is not 0 as well."""
    top = F(0) if active else rational(rng)
    out = []
    for k in range(rng.randint(1, 4)):
        s = rvec(rng, dim)
        at = dot(s, x)
        if k == 0 or rng.random() < 0.4:
            b = top - at
        else:
            b = top - at - gap(rng) if active else rational(rng)
        out.append(AffinePiece(s, b))
    rng.shuffle(out)
    return tuple(out)


def member(rng: Random, dim: int, x):
    dom = polyhedron(dim, domain_rows(rng, dim, x, outside=0.05))
    if rng.random() < 0.2:
        try:
            return ImproperFunction(dim, dom)
        except InputError:  # an empty domain
            pass
    return PolyhedralFunction(dim, pieces(rng, dim, x, rng.random() < 0.6), dom)


def case(seed: int):
    rng = Random(seed)
    dim = rng.randint(1, 5)
    x = tuple(rational(rng) for _ in range(dim))
    fam = SupFamily(dim, tuple((f"m{i}", member(rng, dim, x)) for i in range(rng.randint(1, 3))))
    return rng, dim, x, fam


def outcome(fn, *args):
    """The value with its type, or the exception's type and text."""
    try:
        v = fn(*args)
    except Exception as exc:  # the texts must match, whatever they are
        return ("raise", type(exc).__name__, str(exc))
    return ("ok", type(v).__name__, v)


# ------------------------------------------------------------------ tests


@pytest.mark.parametrize("block", range(4))
def test_values_match_fraction_evaluation(block) -> None:
    for seed in range(block * CASES // 4, (block + 1) * CASES // 4):
        rng, dim, x, fam = case(seed)
        y = tuple(c + rational(rng, 2) for c in x)
        for point in (x, y):
            assert outcome(evaluate_sup, fam, point) == outcome(ref_evaluate_sup, fam, point)
            for _, f in fam.members:
                assert outcome(evaluate, f, point) == outcome(ref_evaluate, f, point)
                assert poly_contains_point(f.domain, point) == ref_poly_contains_point(
                    f.domain, point
                )
                if isinstance(f, PolyhedralFunction):
                    for p in f.pieces:
                        assert p.value(point) == ref_value(p, point)


@pytest.mark.parametrize("block", range(4))
def test_cones_at_x_match_fraction_code(block) -> None:
    for seed in range(block * CASES // 4, (block + 1) * CASES // 4):
        rng, dim, x, fam = case(seed)
        for _, f in fam.members:
            assert outcome(functions.normal_cone_rays.__wrapped__, f.domain, x) == outcome(
                ref_normal_cone_rays, f.domain, x
            )
            if isinstance(f, PolyhedralFunction):
                level = rng.choice((0, rational(rng)))
                assert sublevel_set(shifted(f, level)) == ref_sublevel_set(f, level)
                assert outcome(functions.exact_subdifferential, f, x) == outcome(
                    ref_exact_subdifferential, f, x
                )
        target = intersect(*(
            f.domain if isinstance(f, ImproperFunction) else ref_sublevel_set(f, 0)
            for _, f in fam.members
        ))
        assert oracle.sup_sublevel_polyhedron(fam.functions()) == target
        assert outcome(oracle.polyhedron_normal_cone, target, x) == outcome(
            ref_polyhedron_normal_cone, target, x
        )
        assert outcome(formulas._sublevel_rays, fam, x) == outcome(ref_sublevel_rays, fam, x)


def test_the_data_reaches_every_branch() -> None:
    """The seeded cases hold what the comparisons above are for."""
    seen = set()
    for seed in range(CASES):
        _, dim, x, fam = case(seed)
        for _, f in fam.members:
            if not ref_poly_contains_point(f.domain, x):
                seen.add("x outside a domain")
            elif any(dot(h.normal, x) == h.offset for h in f.domain.halfspaces):
                seen.add("x on a domain boundary")
            if isinstance(f, ImproperFunction):
                seen.add("improper member")
            elif ref_evaluate(f, x) == 0:
                seen.add("active member")
                if any(ref_value(p, x) == 0 and p.slope != f.pieces[0].slope for p in f.pieces):
                    seen.add("two pieces at 0")
        if any(c.denominator > 1 for c in x) and len({c.denominator for c in x}) > 1:
            seen.add("mixed denominators in x")
        if ref_evaluate_sup(fam, x) == POS_INF:
            seen.add("f(x) = +inf")
        seen.add(f"dim {dim}")
    assert {
        "x outside a domain", "x on a domain boundary", "improper member", "active member",
        "two pieces at 0", "mixed denominators in x", "f(x) = +inf",
        *(f"dim {d}" for d in range(1, 6)),
    } <= seen


def test_non_canonical_rows_and_wrong_lengths_match() -> None:
    """Fraction rows built without polyhedron(), and points of the wrong
    length, take the same answers and the same exception texts."""
    fractional = 0
    for seed in range(CASES):
        rng, dim, x, fam = case(seed)
        rows = tuple(domain_rows(rng, dim, x, outside=0.2))
        if any(h.offset.denominator > 1 for h in rows):
            fractional += 1
        raw = PolyhedronH(dim, rows)
        assert poly_contains_point(raw, x) == ref_poly_contains_point(raw, x)
        assert outcome(oracle.polyhedron_normal_cone, raw, x) == outcome(
            ref_polyhedron_normal_cone, raw, x
        )
        bad = x + (F(1, 2),) if rng.random() < 0.5 else x[:-1]
        for _, f in fam.members:
            assert outcome(evaluate, f, bad) == outcome(ref_evaluate, f, bad)
            assert outcome(poly_contains_point, f.domain, bad) == outcome(
                ref_poly_contains_point, f.domain, bad
            )
            if isinstance(f, PolyhedralFunction):
                p = f.pieces[0]
                assert outcome(p.value, bad) == outcome(ref_value, p, bad)
        assert outcome(evaluate_sup, fam, bad) == outcome(ref_evaluate_sup, fam, bad)
    assert fractional > CASES // 4


def test_the_int_form_stays_out_of_eq_hash_and_repr() -> None:
    p = AffinePiece((F(1, 2), F(-2, 3)), F(5, 4))
    q = AffinePiece((F(1, 2), F(-2, 3)), F(5, 4))
    assert p._ints == ((6, -8), 15, 12)
    assert p == q and hash(p) == hash(q)
    assert repr(p) == repr(q) == (
        "AffinePiece(slope=(Fraction(1, 2), Fraction(-2, 3)), intercept=Fraction(5, 4))"
    )
