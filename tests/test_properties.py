"""Randomized invariants tying the layers together.

Each test states one identity the library relies on and checks it on seeded
random data: representation round trips, recession/support duality, the
eps-subdifferential calculus, oracle self-consistency, and the one-sided
soundness of the sup formulas against the polyhedral oracle.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from supcone.formulas import SGrid, sublevel_normal_cone_formula
from supcone.functions import (
    AffinePiece,
    PolyhedralFunction,
    eps_normal_set,
    eps_subdifferential,
    indicator,
)
from supcone.generate import (
    random_affine_family,
    random_direction,
    random_dom_family,
    random_generator_set,
    random_max_affine_family,
    random_point,
    random_polyhedron,
    random_qc_instance,
)
from supcone.geometry import (
    POS_INF,
    GeneratorSet,
    HalfSpace,
    PolyhedronH,
    cone,
    cone_contains,
    cone_equal,
    dot,
    generator_member,
    generators,
    h_to_v,
    inequality_cone,
    intersect,
    is_empty_poly,
    poly_contains_generators,
    poly_equal,
    polyhedron,
    recession_cone,
    support_function,
    v_to_h,
    whole_space,
)
from supcone.oracle import EQUAL, VIOLATION, polyhedron_normal_cone, verify_formula_instance

seeds = st.integers(min_value=0, max_value=2**32 - 1)

F = Fraction


def fv(xs) -> tuple[Fraction, ...]:
    return tuple(F(x) for x in xs)


def same_set(a: GeneratorSet, b: GeneratorSet) -> bool:
    """conv+cone equality via mutual containment."""
    if a.is_empty or b.is_empty:
        return a.is_empty and b.is_empty
    return poly_contains_generators(v_to_h(b), a) and poly_contains_generators(v_to_h(a), b)


def as_cone(gen: GeneratorSet):
    """Read a generator set that describes a cone back as one."""
    extra = tuple(p for p in gen.points if any(c != 0 for c in p))
    return cone(gen.dim, tuple(gen.rays) + extra)


def anchored_poly(rng: random.Random, dim: int, x) -> PolyhedronH:
    # every row gets nonnegative slack at x, so x is always a member
    rows = []
    for _ in range(rng.randint(1, 3)):
        a = random_direction(rng, dim)
        rows.append(HalfSpace(a, dot(a, x) + F(rng.randint(0, 2))))
    return polyhedron(dim, rows)


# ---------------------------------------------------------------- geometry


@settings(deadline=None, max_examples=60)
@given(seeds)
def test_h_v_round_trip(seed: int) -> None:
    rng = random.Random(seed)
    p = random_polyhedron(rng)
    back = v_to_h(h_to_v(p))
    if is_empty_poly(p):
        assert is_empty_poly(back)
    else:
        assert poly_equal(p, back)


@settings(deadline=None, max_examples=60)
@given(seeds)
def test_support_domain_is_polar_of_recession(seed: int) -> None:
    # directions with finite support value = polar cone of the recession cone
    rng = random.Random(seed)
    a = random_generator_set(rng)
    polar = inequality_cone(cone(a.dim, a.rays).rays, a.dim)
    for r in polar.rays:
        assert support_function(a, r) is not POS_INF
    for _ in range(6):
        d = random_direction(rng, a.dim)
        finite = support_function(a, d) is not POS_INF
        assert finite == cone_contains(polar, d)


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_recession_commutes_with_intersection(seed: int) -> None:
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    x = random_point(rng, dim)
    polys = [anchored_poly(rng, dim, x) for _ in range(rng.randint(2, 3))]
    cones = [recession_cone(p) for p in polys]
    # pointwise intersection of the cones, via polarity
    polars = tuple(r for c in cones for r in inequality_cone(c.rays, dim).rays)
    lhs = inequality_cone(cone(dim, polars).rays, dim)
    rhs = recession_cone(intersect(*polys))
    assert cone_equal(lhs, rhs)


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_recession_of_empty_intersection_is_zero(seed: int) -> None:
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    shift = F(rng.randint(5, 9))
    lo = [HalfSpace(fv([-1 if k == j else 0 for k in range(dim)]), F(0)) for j in range(dim)]
    hi = [HalfSpace(fv([1 if k == j else 0 for k in range(dim)]), F(1)) for j in range(dim)]
    box = polyhedron(dim, lo + hi)
    far = polyhedron(dim, [HalfSpace(h.normal, h.offset + shift * sum(h.normal)) for h in box.halfspaces])
    assert is_empty_poly(intersect(box, far))
    zero = cone(dim, ())
    assert cone_equal(recession_cone(intersect(box, far)), zero)
    assert cone_equal(recession_cone(box), zero)
    assert cone_equal(recession_cone(far), zero)


@settings(deadline=None, max_examples=50)
@given(seeds)
def test_recession_invariant_under_translation(seed: int) -> None:
    rng = random.Random(seed)
    p = random_polyhedron(rng, anchored=True)
    v = random_point(rng, p.dim)
    moved = polyhedron(p.dim, [HalfSpace(h.normal, h.offset + dot(h.normal, v)) for h in p.halfspaces])
    assert cone_equal(recession_cone(p), recession_cone(moved))


@settings(deadline=None, max_examples=25)
@given(seeds)
def test_generator_output_is_deterministic(seed: int) -> None:
    r1, r2 = random.Random(seed), random.Random(seed)
    p1, p2 = random_polyhedron(r1), random_polyhedron(r2)
    assert p1 == p2
    assert h_to_v(p1) == h_to_v(p2)
    assert h_to_v(p1) == h_to_v(p1)
    assert recession_cone(p1) == recession_cone(p2)


# ------------------------------------------------------- eps-subdifferentials


def proper_member(rng: random.Random):
    """A random max-affine function and a point where it is finite."""
    gen = random_max_affine_family(rng)
    fns = [f for _, f in gen.family.members if isinstance(f, PolyhedralFunction)]
    return rng.choice(fns), gen.point


CHAIN = (F(1), F(1, 2), F(1, 4), F(1, 8))


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_eps_subdifferential_monotone_in_eps(seed: int) -> None:
    rng = random.Random(seed)
    f, x = proper_member(rng)
    sets = [eps_subdifferential(f, x, e) for e in (F(0),) + CHAIN[::-1]]
    for small, big in zip(sets, sets[1:]):
        assert small.is_empty or poly_contains_generators(v_to_h(big), small)


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_eps_normal_set_monotone_in_eps(seed: int) -> None:
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    x = random_point(rng, dim)
    p = anchored_poly(rng, dim, x)
    sets = [eps_normal_set(p, x, e) for e in (F(0),) + CHAIN[::-1]]
    for small, big in zip(sets, sets[1:]):
        assert small.is_empty or poly_contains_generators(v_to_h(big), small)


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_scaling_identity(seed: int) -> None:
    # d_eps(s f)(x) = s * d_{eps/s} f(x)
    rng = random.Random(seed)
    f, x = proper_member(rng)
    s = rng.choice((F(1, 2), F(1), F(3, 2), F(2), F(3)))
    eps = rng.choice(CHAIN)
    sf = PolyhedralFunction(
        f.dim,
        tuple(AffinePiece(tuple(s * c for c in p.slope), s * p.intercept) for p in f.pieces),
        f.domain,
    )
    lhs = eps_subdifferential(sf, x, eps)
    g = eps_subdifferential(f, x, eps / s)
    rhs = generators(f.dim, [tuple(s * c for c in p) for p in g.points], g.rays)
    assert same_set(lhs, rhs)


def test_chain_stabilization_is_not_exactness() -> None:
    # f = max(2y, y) at x = -1/100: d_eps = [1, min(2, 1 + 100 eps)] freezes
    # at [1, 2] for every eps >= 1/100 while d_0 = {1}.  A stabilized eps
    # chain therefore proves nothing about d_0; the randomized test below
    # certifies the limit identity with explicit expulsion witnesses instead.
    f = PolyhedralFunction(
        1,
        (AffinePiece(fv([2]), F(0)), AffinePiece(fv([1]), F(0))),
        whole_space(1),
    )
    x = (F(-1, 100),)
    quarter = eps_subdifferential(f, x, F(1, 4))
    eighth = eps_subdifferential(f, x, F(1, 8))
    assert same_set(quarter, eighth)
    assert same_set(quarter, generators(1, [fv([1]), fv([2])], []))
    assert same_set(eps_subdifferential(f, x, F(0)), generators(1, [fv([1])], []))


@settings(deadline=None, max_examples=25)
@given(seeds)
def test_exact_subdifferential_is_limit_of_chain(seed: int) -> None:
    """d_0 f(x) = the intersection of d_eps f(x) over all eps > 0.

    Finite chains cannot witness the full intersection, so certify both
    directions exactly: d_0 lies inside every chain element, and every
    vertex of the chain intersection that is not in d_0 gets expelled by
    some smaller eps.
    """
    rng = random.Random(seed)
    f, x = proper_member(rng)
    exact = eps_subdifferential(f, x, F(0))
    assert not exact.is_empty
    chain = [eps_subdifferential(f, x, e) for e in CHAIN]
    for s in chain:
        assert poly_contains_generators(v_to_h(s), exact)
        # shrinking eps never changes the recession directions
        assert cone_equal(cone(s.dim, s.rays), cone(exact.dim, exact.rays))
    meet = h_to_v(intersect(*(v_to_h(s) for s in chain)))
    for p in meet.points:
        if generator_member(exact, p) is not None:
            continue
        for k in range(4, 65):
            if generator_member(eps_subdifferential(f, x, F(1, 2**k)), p) is None:
                break
        else:
            pytest.fail(f"{p} stays in d_eps down to eps = 2^-64 but is not in d_0")


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_eps_normal_set_is_indicator_subdifferential(seed: int) -> None:
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    x = random_point(rng, dim)
    p = anchored_poly(rng, dim, x)
    for eps in (F(0), F(1, 2), F(1)):
        assert same_set(eps_normal_set(p, x, eps), eps_subdifferential(indicator(p), x, eps))


@settings(deadline=None, max_examples=40)
@given(seeds)
def test_eps_normal_set_ignores_presentation(seed: int) -> None:
    # same point set, different H-description: scaled and duplicated rows
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    x = random_point(rng, dim)
    p = anchored_poly(rng, dim, x)
    rows = list(p.halfspaces)
    rescaled = [HalfSpace(tuple(3 * c for c in h.normal), 3 * h.offset) for h in rows]
    q = polyhedron(dim, rows + rescaled + rows[:1])
    for eps in (F(0), F(1)):
        assert same_set(eps_normal_set(p, x, eps), eps_normal_set(q, x, eps))


# ------------------------------------------------------------------ oracle


@settings(deadline=None, max_examples=60)
@given(seeds)
def test_oracle_agrees_with_zero_eps_normal_set(seed: int) -> None:
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    x = random_point(rng, dim)
    p = anchored_poly(rng, dim, x)
    assert cone_equal(polyhedron_normal_cone(p, x), as_cone(eps_normal_set(p, x, F(0))))


@settings(deadline=None, max_examples=60)
@given(seeds)
def test_oracle_ignores_redundant_constraints(seed: int) -> None:
    rng = random.Random(seed)
    dim = rng.choice((2, 3))
    x = random_point(rng, dim)
    p = anchored_poly(rng, dim, x)
    rows = list(p.halfspaces)
    extra = [HalfSpace(tuple(2 * c for c in rows[0].normal), 2 * rows[0].offset)]
    if len(rows) >= 2:
        a, b = rows[0], rows[1]
        extra.append(HalfSpace(tuple(u + v for u, v in zip(a.normal, b.normal)), a.offset + b.offset))
    q = polyhedron(dim, rows + extra)
    assert cone_equal(polyhedron_normal_cone(p, x), polyhedron_normal_cone(q, x))


# ------------------------------------------------------------- sup formulas


@settings(deadline=None, max_examples=30)
@given(seeds)
def test_affine_families_verify_equal(seed: int) -> None:
    rng = random.Random(seed)
    g = random_affine_family(rng)
    rep = verify_formula_instance(g.family, g.point, g.epsilon, which="sublevel")
    assert rep.verdict == EQUAL, rep.witness


@settings(deadline=None, max_examples=20)
@given(seeds)
def test_max_affine_families_never_violate(seed: int) -> None:
    # one-sided soundness: sampling may under-approximate, never overshoot
    rng = random.Random(seed)
    g = random_max_affine_family(rng)
    rep = verify_formula_instance(g.family, g.point, g.epsilon, which="sublevel")
    assert rep.verdict != VIOLATION, rep.witness


@settings(deadline=None, max_examples=15)
@given(seeds)
def test_grid_refinement_never_shrinks_cone(seed: int) -> None:
    rng = random.Random(seed)
    g = random_max_affine_family(rng)
    coarse = SGrid.geometric(min_exp=-2, max_exp=2)
    vals = coarse.values
    mids = [(a + b) / 2 for a, b in zip(vals, vals[1:])]
    fine = SGrid.from_values([*vals, vals[0] / 2, vals[-1] * 2, *mids])
    assert set(vals) < set(fine.values)
    lo = sublevel_normal_cone_formula(g.family, g.point, g.epsilon, grid=coarse, mode="sampled")
    hi = sublevel_normal_cone_formula(g.family, g.point, g.epsilon, grid=fine, mode="sampled")
    for r in lo.cone.rays:
        assert cone_contains(hi.cone, r)


@settings(deadline=None, max_examples=25)
@given(seeds)
def test_dom_families_verify_equal(seed: int) -> None:
    rng = random.Random(seed)
    g = random_dom_family(rng)
    rep = verify_formula_instance(g.family, g.point, g.epsilon, which="dom")
    assert rep.verdict == EQUAL, rep.witness


@settings(deadline=None, max_examples=20)
@given(seeds)
def test_qc_families_verify_equal(seed: int) -> None:
    rng = random.Random(seed)
    g = random_qc_instance(rng)
    rep = verify_formula_instance(g.qc, g.point, g.epsilon, which="qc")
    assert rep.verdict == EQUAL, rep.witness
