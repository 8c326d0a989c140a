"""The intersection form computes its cone once per eps-list.

``ref_intersection`` is ``formulas.sublevel_normal_cone_intersection`` as it
was before: the whole per-eps formula at every eps value, one polar
conversion per eps, the meet on every row of every polar, and
``stabilized`` from a second meet and ``cone_equal``. The current form
collects the rays once, returns a pointed cone as it is and meets the polar
only of a cone that contains a line. It must give the same cone, per-eps
results, ``stabilized`` flag and errors.

The seeded (family, eps-list) cases are the criterion-03 families in
exact-affine mode, the criterion-02 families in sampled mode, and hand-built
families in dims 2-5 whose members' domains hold the point on a line:
improper members on domains with equality pairs and max-affine members on
such domains. Their final cones often contain a line, where the polar meet
picks the generators.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from supcone import formulas, suites
from supcone.errors import InputError, PreconditionError
from supcone.formulas import IntersectionResult, SupFamily, sublevel_normal_cone_intersection
from supcone.functions import ImproperFunction, affine_function, max_affine
from supcone.generate import (
    random_affine_family,
    random_direction,
    random_max_affine_family,
    random_point,
)
from supcone.geometry import (
    ConeGen,
    HalfSpace,
    cone_equal,
    dot,
    inequality_cone,
    is_pointed,
    polyhedron,
    vscale,
)
from supcone.geometry.vec import rat
from supcone.suites import curated_cases, run_case

F = Fraction

EPS_LISTS = (
    (F(1),),
    (F(1, 1024),),
    (F(1, 3), F(1, 9)),
    (F(1024), F(1, 1024)),
    (F(1), F(1, 2), F(1, 4)),
)


def ref_intersection(family, x, eps_list, grid=None, mode="auto"):
    eps_vals = [rat(v) for v in eps_list]
    if not eps_vals:
        raise InputError("need at least one eps value")
    if len(set(eps_vals)) != len(eps_vals):
        raise InputError("eps values must be distinct")
    results = tuple(
        formulas.sublevel_normal_cone_formula(family, x, v, grid=grid, mode=mode, certify=False)
        for v in eps_vals
    )
    dim = family.dim
    polars = [formulas.cone_rays(list(res.cone.rays), dim) for res in results]

    def meet(rows):
        return inequality_cone([r for p in rows for r in p], dim)

    final = meet(polars)
    stabilized = len(polars) > 1 and cone_equal(meet(polars[:-1]), final)
    return IntersectionResult(final, results, stabilized)


def check_cases(cases, mode) -> int:
    """Assert agreement on every (family, x, eps-list); return how many
    final cones contain a line."""
    lines = 0
    for label, family, x in cases:
        for eps_list in EPS_LISTS:
            got = sublevel_normal_cone_intersection(family, x, eps_list, mode=mode)
            want = ref_intersection(family, x, eps_list, mode=mode)
            assert got == want, (label, eps_list, mode)
            lines += not is_pointed(family.dim, got.cone.rays)
    return lines


@pytest.mark.parametrize("start", range(1000, 1200, 50))
def test_intersection_matches_reference_on_criterion_03_families(start) -> None:
    cases = []
    for seed in range(start, start + 50):
        g = random_affine_family(random.Random(seed))
        cases.append((seed, g.family, g.point))
    check_cases(cases, "exact-affine")


def test_intersection_matches_reference_on_criterion_02_families() -> None:
    cases = []
    for seed in range(3000, 3040):
        g = random_max_affine_family(random.Random(seed))
        cases.append((seed, g.family, g.point))
    check_cases(cases, "sampled")


def line_domain(rng: random.Random, x):
    """A domain through x with one or two rows in +- pairs at x, so that
    N_D(x) contains a line, and sometimes a row active or slack at x."""
    dim = len(x)
    rows = []
    for _ in range(rng.randint(1, 2)):
        n = random_direction(rng, dim)
        rows += [HalfSpace(n, dot(n, x)), HalfSpace(vscale(F(-1), n), -dot(n, x))]
    if rng.random() < 0.5:
        n = random_direction(rng, dim)
        rows.append(HalfSpace(n, dot(n, x) + rng.randint(0, 1)))
    return polyhedron(dim, rows)


def line_domain_family(rng: random.Random, dim: int, max_affine_members: bool):
    """(family, x): a plain affine member at most 0 at x, one or two
    improper members on line domains, and with max_affine_members one
    max-affine member on a line domain, active or slack at x."""
    x = random_point(rng, dim)
    a = random_direction(rng, dim)
    members = [("a", affine_function(a, -dot(a, x) - rng.randint(0, 1)))]
    for k in range(rng.randint(1, 2)):
        members.append((f"i{k}", ImproperFunction(dim, line_domain(rng, x))))
    if max_affine_members:
        slack = rng.randint(0, 1)
        pieces = []
        for _ in range(rng.randint(1, 2)):
            s = random_direction(rng, dim)
            pieces.append((s, -dot(s, x) - slack - rng.randint(0, 1)))
        members.append(("m", max_affine(dim, pieces, line_domain(rng, x))))
    return SupFamily(dim, tuple(members)), x


def line_domain_cases(seed: int, count: int, max_affine_members: bool) -> list:
    rng = random.Random(seed)
    return [
        (k, *line_domain_family(rng, 2 + k % 4, max_affine_members)) for k in range(count)
    ]


@pytest.mark.parametrize("mode", ["exact-affine", "sampled"])
def test_intersection_matches_reference_on_line_domain_families(mode) -> None:
    lines = check_cases(line_domain_cases(13000, 60, False), mode)
    if mode == "sampled":
        lines += check_cases(line_domain_cases(13100, 30, True), mode)
    assert lines >= 100, lines


ORIGIN = (F(0), F(0))
BAD_INPUTS = (
    ((), ORIGIN, "auto"),
    ((1, 1), ORIGIN, "auto"),
    ((0, 1), ORIGIN, "auto"),
    ((1, 0), ORIGIN, "auto"),
    ((1, F(1, 2), -1), ORIGIN, "auto"),
    ((-1, 1), (F(5), F(5)), "auto"),
    ((1, -1), (F(5), F(5)), "auto"),
    ((1, -1), (F(2), F(-3)), "auto"),
    ((1, -1), (F(0),), "auto"),
    ((1,), (F(0),) * 3, "auto"),
    ((1, -1), ORIGIN, "exact-affine"),
    ((-1,), ORIGIN, "exact-affine"),
    ((1, 2), ORIGIN, "best"),
)


@pytest.mark.parametrize("eps_list,x,mode", BAD_INPUTS)
def test_intersection_errors_match_reference(eps_list, x, mode) -> None:
    """Bad eps-lists, points and modes raise the same error, in the order of
    the per-eps loop: the first eps before the point and the mode, a later
    eps only after them."""
    fam = SupFamily(2, (
        ("f", affine_function((1, 1), 0)),
        ("g", max_affine(2, [((1, 0), 0), ((0, 1), 0)])),
        ("d", ImproperFunction(2, polyhedron(2, [HalfSpace((F(1), F(0)), F(1))]))),
    ))
    errors = []
    for run in (sublevel_normal_cone_intersection, ref_intersection):
        with pytest.raises((InputError, PreconditionError)) as err:
            run(fam, x, eps_list, mode=mode)
        errors.append((type(err.value), str(err.value)))
    assert errors[0] == errors[1]


def test_intersection_converts_each_distinct_cone_once(monkeypatch) -> None:
    """One ray collection per eps-list; no polar conversion for a pointed
    cone, one for a cone with a line."""
    polars, collections = [], []
    polar, collect = formulas.cone_rays, formulas._sublevel_rays

    def counted_polar(rows, dim, *args, **kwargs):
        polars.append(rows)
        return polar(rows, dim, *args, **kwargs)

    def counted_collect(*args):
        collections.append(args)
        return collect(*args)

    monkeypatch.setattr(formulas, "cone_rays", counted_polar)
    monkeypatch.setattr(formulas, "_sublevel_rays", counted_collect)
    g = random_affine_family(random.Random(1000))
    res = sublevel_normal_cone_intersection(g.family, g.point, EPS_LISTS[4], mode="exact-affine")
    assert is_pointed(g.family.dim, res.cone.rays)
    assert res.stabilized
    assert (len(polars), len(collections)) == (0, 1)

    family, x = line_domain_family(random.Random(7), 3, False)
    res = sublevel_normal_cone_intersection(family, x, EPS_LISTS[4])
    assert not is_pointed(3, res.cone.rays)
    assert (len(polars), len(collections)) == (1, 2)


def test_suite_box_case_fails_on_a_wrong_intersection_cone(monkeypatch) -> None:
    """nc-eps-intersection-box checks the cone itself: stabilized and the
    per-eps agreement hold for whatever cone the intersection form returns."""
    case = next(c for c in curated_cases() if c.ident == "nc-eps-intersection-box")
    rec, ok = run_case(case)
    assert ok and rec["cone_rays"] == [["0", "1"], ["1", "0"]]

    def dropped_ray(*args, **kwargs):
        res = sublevel_normal_cone_intersection(*args, **kwargs)
        wrong = ConeGen(res.cone.dim, res.cone.rays[1:])
        per_eps = tuple(replace(r, cone=wrong) for r in res.per_eps)
        return replace(res, cone=wrong, per_eps=per_eps)

    monkeypatch.setattr(suites, "sublevel_normal_cone_intersection", dropped_ray)
    rec, ok = run_case(case)
    assert not ok
    assert rec["outcome"] == "fail"
    assert rec["detail"].startswith("cone_rays: expected")
