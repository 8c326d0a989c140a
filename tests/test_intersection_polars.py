"""The intersection form converts each distinct per-eps cone once.

``ref_intersection`` is ``formulas.sublevel_normal_cone_intersection`` as it
was before: one polar conversion per eps value, the meets on every row of
every polar, and ``stabilized`` always from a second meet and ``cone_equal``.
The current form must give the same cone, per-eps results and
``stabilized`` flag.
"""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from supcone import formulas
from supcone.errors import InputError
from supcone.formulas import IntersectionResult, SupFamily, sublevel_normal_cone_intersection
from supcone.functions import affine_function
from supcone.generate import random_affine_family
from supcone.geometry import cone, cone_equal, inequality_cone
from supcone.geometry.vec import rat

F = Fraction

EPS_LISTS = ((F(1),), (F(1, 3), F(1, 9)), (F(1), F(1, 2), F(1, 4)))


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


@pytest.mark.parametrize("start", range(1000, 1200, 50))
def test_intersection_matches_reference_on_criterion_03_families(start) -> None:
    for seed in range(start, start + 50):
        g = random_affine_family(random.Random(seed))
        for eps_list in EPS_LISTS:
            got = sublevel_normal_cone_intersection(g.family, g.point, eps_list, mode="exact-affine")
            want = ref_intersection(g.family, g.point, eps_list, mode="exact-affine")
            assert got == want, (seed, eps_list)


def _random_cone(rng: random.Random, dim: int):
    rays = [tuple(F(rng.randint(-2, 2)) for _ in range(dim)) for _ in range(rng.randint(0, 4))]
    return cone(dim, rays)


def test_intersection_matches_reference_when_per_eps_cones_differ(monkeypatch) -> None:
    """Planted per-eps cones, some repeated, some nested, some not: every
    branch of the polar sharing and of the stabilized shortcut."""
    formula = formulas.sublevel_normal_cone_formula
    planted: dict = {}

    def planted_formula(family, x, eps, **kwargs):
        return replace(formula(family, x, eps, **kwargs), cone=planted[eps])

    monkeypatch.setattr(formulas, "sublevel_normal_cone_formula", planted_formula)
    fam = SupFamily(2, (("f", affine_function((1, 0), 0)),))
    x = (F(0), F(0))
    flags = {True: 0, False: 0}
    for seed in range(200):
        rng = random.Random(seed)
        eps_list = EPS_LISTS[seed % 3]
        pool = [_random_cone(rng, 2) for _ in range(2)]
        planted.clear()
        planted.update((e, rng.choice(pool)) for e in eps_list)
        got = sublevel_normal_cone_intersection(fam, x, eps_list)
        want = ref_intersection(fam, x, eps_list)
        assert got == want, seed
        flags[got.stabilized] += len(eps_list) > 1
    assert min(flags.values()) >= 20, flags


def test_intersection_converts_each_distinct_cone_once(monkeypatch) -> None:
    calls = []
    polar = formulas.cone_rays

    def counted(rows, dim, *args, **kwargs):
        calls.append(rows)
        return polar(rows, dim, *args, **kwargs)

    monkeypatch.setattr(formulas, "cone_rays", counted)
    g = random_affine_family(random.Random(1000))
    res = sublevel_normal_cone_intersection(g.family, g.point, EPS_LISTS[2], mode="exact-affine")
    assert len({per.cone for per in res.per_eps}) == 1
    assert res.stabilized
    assert len(calls) == 1
