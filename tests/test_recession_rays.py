"""Every normal cone is formed from the rays of its contributions.

The references below rebuild the hull route from public pieces: a sampled
hull over the whole s-grid (eps_subdifferential, scale_generators,
closed_conv_hull_union, the last two kept here as the hull route's own
helpers) and an intersection form that converts every hull
to halfspaces and takes the recession cone of their intersection. The cones
from the rays alone must match them generator for generator, not merely as
sets, since reports print the generators.
"""

import random
from fractions import Fraction

import pytest

from supcone import functions
from supcone.formulas import (
    DEFAULT_GRID,
    SGrid,
    SupFamily,
    dom_sup_normal_cone,
    sublevel_normal_cone_formula,
    sublevel_normal_cone_intersection,
)
from supcone.functions import (
    ImproperFunction,
    affine_function,
    eps_normal_set,
    eps_subdifferential,
    evaluate,
    max_affine,
)
from supcone.generate import random_affine_family, random_dom_family, random_max_affine_family
from supcone.geometry import (
    GeneratorSet,
    cone,
    cone_contains,
    cone_equal,
    dot,
    generators,
    h_to_v,
    halfspace,
    intersect,
    polyhedron,
    primitive_ints,
    recession_cone,
    v_to_h,
    vscale,
    zero_vec,
)
from supcone.suites import curated_sampled_instances
from test_single_evaluation import count_calls
from test_subdifferential_rays import cone_has_line

F = Fraction


def scale_generators(s, gen):
    """s * (conv(points) + cone(rays)) for s > 0: points scale, rays stay."""
    if gen.is_empty:
        return gen
    return generators(gen.dim, [vscale(s, p) for p in gen.points], gen.rays)


def closed_conv_hull_union(sets):
    """conv(all points) + cone(all rays) of nonempty polyhedral generator
    sets, deduplicated and sorted but not pruned; empty inputs drop out."""
    dim = sets[0].dim
    points = sorted({p for g in sets for p in g.points})
    rays = sorted({primitive_ints(r) for g in sets for r in g.rays})
    if not points:
        return GeneratorSet(dim, (), ())
    return GeneratorSet(dim, tuple(points), tuple(rays))


def sampled_hull(family, x, e, grid):
    """conv of the origin, s * d_{e/s} f_t(x) for every admissible grid value
    s (plus s_max = e/(-f_t(x)) for inactive members), the d_0 rays of
    active members and the improper members' e-normal sets."""
    dim = family.dim
    parts = [generators(dim, [zero_vec(dim)])]
    for _, f in family.proper_items():
        v = evaluate(f, x)
        s_values = [s for s in grid.values if s * v >= -e]
        if v < 0 and e / (-v) not in s_values:
            s_values.append(e / (-v))
        for s in s_values:
            parts.append(scale_generators(s, eps_subdifferential(f, x, e / s)))
        if v == 0:
            sub0 = eps_subdifferential(f, x, 0)
            parts.append(generators(dim, [zero_vec(dim)], sub0.points + sub0.rays))
    for _, f in family.improper_items():
        parts.append(eps_normal_set(f.domain, x, e))
    return closed_conv_hull_union(parts)


def exact_affine_hull(family, x, e):
    dim = family.dim
    parts = [generators(dim, [zero_vec(dim)])]
    for _, f in family.proper_items():
        a, v = f.pieces[0].slope, evaluate(f, x)
        if v == 0:
            parts.append(generators(dim, [zero_vec(dim)], [a]))
        else:
            parts.append(generators(dim, [zero_vec(dim), vscale(e / (-v), a)]))
    for _, f in family.improper_items():
        parts.append(eps_normal_set(f.domain, x, e))
    return closed_conv_hull_union(parts)


def hull_intersection(hulls):
    """(cone, stabilized) of the recession of the intersected hulls."""
    current = v_to_h(hulls[0])
    prev, final = None, recession_cone(current)
    for h in hulls[1:]:
        current = intersect(current, v_to_h(h))
        prev, final = final, recession_cone(current)
    return final, prev is not None and cone_equal(prev, final)


@pytest.mark.parametrize("seed", range(3000, 3006))
def test_sampled_cone_matches_grid_hull_on_criterion_02_families(seed) -> None:
    g = random_max_affine_family(random.Random(seed))
    res = sublevel_normal_cone_formula(g.family, g.point, g.epsilon, mode="sampled")
    hull = sampled_hull(g.family, g.point, g.epsilon, DEFAULT_GRID)
    want = cone(hull.dim, hull.rays)
    assert res.cone == want
    assert res.grid_stable is True
    assert res.exact == res.oracle_agrees


def test_sampled_cone_matches_grid_hull_on_curated_instances() -> None:
    grid = SGrid.geometric(min_exp=-2, max_exp=2)
    for ident, g in curated_sampled_instances():
        res = sublevel_normal_cone_formula(g.family, g.point, g.epsilon, mode="sampled")
        hull = sampled_hull(g.family, g.point, g.epsilon, grid)
        want = cone(hull.dim, hull.rays)
        assert res.cone == want, ident
        assert res.exact, ident


@pytest.mark.parametrize("seed", range(1000, 1040))
def test_intersection_matches_hull_intersection_on_criterion_03_families(seed) -> None:
    g = random_affine_family(random.Random(seed))
    for eps_list in ((F(1), F(1, 2), F(1, 4)), (F(1, 3), F(1, 9))):
        res = sublevel_normal_cone_intersection(g.family, g.point, eps_list, mode="exact-affine")
        hulls = [exact_affine_hull(g.family, g.point, e) for e in eps_list]
        assert [per.cone for per in res.per_eps] == [cone(h.dim, h.rays) for h in hulls]
        assert (res.cone, res.stabilized) == hull_intersection(hulls)


@pytest.mark.parametrize("seed", range(3000, 3003))
def test_sampled_intersection_matches_hull_intersection(seed) -> None:
    g = random_max_affine_family(random.Random(seed))
    grid = SGrid.geometric(min_exp=-2, max_exp=2)
    eps_list = (g.epsilon, g.epsilon / 2)
    res = sublevel_normal_cone_intersection(g.family, g.point, eps_list, grid=grid, mode="sampled")
    hulls = [sampled_hull(g.family, g.point, e, grid) for e in eps_list]
    assert (res.cone, res.stabilized) == hull_intersection(hulls)


def has_line(domain, x) -> bool:
    """Does N_D(x) = cone(active rows) contain a line? It does iff the
    negative of some active row lies in that cone."""
    active = [h.normal for h in domain.halfspaces if dot(h.normal, x) == h.offset]
    return any(cone_contains(cone(domain.dim, active), vscale(F(-1), a)) for a in active)


# A max-affine member on the line {y2 = 0}, active at the origin, beside a
# plain affine member: N_dom(x) contains a line.
LINE = polyhedron(2, [halfspace((0, 1), 0), halfspace((0, -1), 0)])
LINE_FAMILY = SupFamily(
    2,
    (
        ("m", max_affine(2, [((1, 0), 0), ((-1, 1), 0)], LINE)),
        ("a", affine_function((1, 1), -1)),
    ),
)
ORIGIN = (F(0), F(0))
# max(y1, -y1) on the whole space: its d_0 cone at the origin is the line
# through (1, 0), while N_dom(x) = {0}.
ABS_FAMILY = SupFamily(2, (("abs", max_affine(2, [((1, 0), 0), ((-1, 0), 0)])),))


def d0_has_line(f, x) -> bool:
    sub0 = eps_subdifferential(f, x, 0)
    return cone_has_line(f.dim, sub0.points + sub0.rays)


@pytest.mark.parametrize("grid", [SGrid.from_values([1]), SGrid.geometric(min_exp=-2, max_exp=2), DEFAULT_GRID])
def test_sampled_mode_converts_d0_only_when_its_cone_has_a_line(monkeypatch, grid) -> None:
    # The rays through d_0 f(x) of an active member are read off its active
    # pieces and N_dom(x). When their cone holds a line the member's d_0 f(x)
    # is pruned instead, and that is converted only when N_dom(x) holds a
    # line, as for LINE_FAMILY's member on the line {y2 = 0}; ABS_FAMILY's
    # d_0 cone holds a line on the whole space and takes no conversion.
    cases = [random_max_affine_family(random.Random(seed)) for seed in range(3000, 3004)]
    cases = [(g.family, g.point, g.epsilon) for g in cases]
    cases += [(LINE_FAMILY, ORIGIN, F(1)), (ABS_FAMILY, ORIGIN, F(1))]
    assert d0_has_line(ABS_FAMILY.members[0][1], ORIGIN)
    wants = [
        [(f, 0) for _, f in family.proper_items() if evaluate(f, x) == 0 and has_line(f.domain, x)]
        for family, x, _ in cases
    ]
    calls = count_calls(monkeypatch, functions.eps_subdifferential)
    counts = []
    for (family, x, e), want in zip(cases, wants):
        calls.clear()
        sublevel_normal_cone_formula(family, x, e, grid=grid, mode="sampled")
        assert [(args[0], args[2]) for args, _ in calls] == want
        counts.append(len(calls))
    assert counts == [0, 0, 0, 0, 1, 0]


def test_plain_affine_members_take_no_eps_subdifferential(monkeypatch) -> None:
    # d_eps of an affine member on the whole space is bounded: no rays
    calls = count_calls(monkeypatch, functions.eps_subdifferential)
    for seed in range(1000, 1010):
        g = random_affine_family(random.Random(seed))
        sublevel_normal_cone_formula(g.family, g.point, g.epsilon, mode="sampled")
    assert calls == []


def test_dom_cone_converts_only_members_with_domain_rows(monkeypatch) -> None:
    # No member is converted: the rays of N_dom(x) are read off the active
    # domain rows, with a line (LINE_FAMILY) or without.
    calls = count_calls(monkeypatch, functions.eps_subdifferential)
    cases = [random_dom_family(random.Random(seed)) for seed in range(4000, 4010)]
    cases = [(g.family, g.point, g.epsilon, g.alpha) for g in cases]
    cases.append((LINE_FAMILY, ORIGIN, F(1), None))
    skipped = converted = lines = 0
    for family, x, e, alpha in cases:
        calls.clear()
        dom_sup_normal_cone(family, x, e, alpha)
        proper = [f for _, f in family.proper_items()]
        skipped += sum(1 for f in proper if f.domain.halfspaces)
        lines += sum(1 for f in proper if has_line(f.domain, x))
        converted += len(calls)
    assert skipped > 0
    assert lines == 1
    assert converted == 0


def test_intersection_converts_each_domain_once_per_eps_list(monkeypatch) -> None:
    # Neither domain is converted: the pointed {y1 <= 0} and the line
    # {y1 = 0} are both read off their active rows.
    calls = count_calls(monkeypatch, h_to_v)
    pointed = polyhedron(2, [halfspace((1, 0), 0)])
    line = polyhedron(2, [halfspace((1, 0), 0), halfspace((-1, 0), 0)])
    for dom in (pointed, line):
        fam = SupFamily(2, (("a", affine_function((0, 1), 0)), ("imp", ImproperFunction(2, dom))))
        functions.domain_generators.cache_clear()
        functions.normal_cone_rays.cache_clear()
        calls.clear()
        res = sublevel_normal_cone_intersection(fam, ORIGIN, (F(1), F(1, 2), F(1, 4)))
        assert res.stabilized
        assert sum(1 for args, _ in calls if args[0] == dom) == 0
