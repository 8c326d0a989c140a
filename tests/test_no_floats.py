"""No float leaks into results: every value stays an exact int or Fraction.

Directions are primitive int tuples and points and scalars are Fractions, so
``int / int`` anywhere in the arithmetic would quietly produce a float. This
walks the results of a seeded subset of the acceptance streams (criteria
01-11): formula results, intersection results, verification reports,
optimality certificates and reports, SIP reports, the geometry outputs of
the criterion-10 identities, and the suite records. Any float other than the
+-inf sentinels fails.
"""

from __future__ import annotations

import dataclasses
import math
import random
from fractions import Fraction

from supcone.formulas import (
    frechet_outer_cone,
    inclusion_witness_check,
    qc_sublevel_normal_cone,
    sublevel_normal_cone_formula,
    sublevel_normal_cone_intersection,
)
from supcone.functions import eps_normal_set, eps_subdifferential, indicator
from supcone.generate import (
    random_affine_family,
    random_direction,
    random_dom_family,
    random_generator_set,
    random_max_affine_family,
    random_point,
    random_polyhedron,
    random_program,
    random_qc_instance,
)
from supcone.geometry import (
    HalfSpace,
    cone_polar,
    dot,
    h_to_v,
    lp_solve,
    polyhedron,
    recession_cone,
    recession_of_generators,
    support_function,
    v_to_h,
)
from supcone.optimality import (
    CircleSampler,
    LinearSIPInstance,
    check_optimal_convex,
    check_sip_linear,
    minimize_objective,
)
from supcone.oracle import verify_formula_instance
from supcone.suites import curated_sampled_instances, curated_smooth_qc, run_suite

F = Fraction


def float_leaks(obj, path: str = "result", seen: set | None = None) -> list[str]:
    """Paths of the non-infinite floats inside obj.

    Walks dataclass fields, tuples, lists, sets and dict keys and values;
    other objects are leaves.
    """
    if seen is None:
        seen = set()
    if isinstance(obj, float):
        return [] if math.isinf(obj) else [f"{path} = {obj!r}"]
    if isinstance(obj, (str, bytes, int, Fraction)) or obj is None:
        return []
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        items = [(f.name, getattr(obj, f.name)) for f in dataclasses.fields(obj)]
        return [leak for name, v in items for leak in float_leaks(v, f"{path}.{name}", seen)]
    if isinstance(obj, dict):
        out = []
        for k, v in obj.items():
            out += float_leaks(k, f"{path}[key {k!r}]", seen)
            out += float_leaks(v, f"{path}[{k!r}]", seen)
        return out
    if isinstance(obj, (tuple, list, set, frozenset)):
        return [leak for i, v in enumerate(obj) for leak in float_leaks(v, f"{path}[{i}]", seen)]
    return []


def test_walker_finds_floats_and_allows_infinities() -> None:
    @dataclasses.dataclass
    class Box:
        value: object

    assert float_leaks(Box((F(1), 2, {"a": [float("inf"), -math.inf]}))) == []
    assert float_leaks(Box((F(1), {"a": [0.5]}))) == ["result.value[1]['a'][0] = 0.5"]
    assert float_leaks(Box(1 / 2)) == ["result.value = 0.5"]


def _results():
    """(label, result) pairs from a seeded subset of each acceptance stream."""
    for i in range(12):  # criteria 01 and 03
        g = random_affine_family(random.Random(1000 + i))
        for eps in (F(1), F(1, 4)):
            yield f"01 affine {i}", verify_formula_instance(
                g.family, g.point, eps, which="sublevel", mode="exact-affine"
            )
            yield f"01 formula {i}", sublevel_normal_cone_formula(
                g.family, g.point, eps, mode="exact-affine"
            )
        yield f"03 intersection {i}", sublevel_normal_cone_intersection(
            g.family, g.point, (F(1), F(1, 2), F(1, 4)), mode="exact-affine"
        )
    for i in range(6):  # criterion 02
        g = random_max_affine_family(random.Random(3000 + i))
        yield f"02 sampled {i}", verify_formula_instance(
            g.family, g.point, g.epsilon, which="sublevel", mode="sampled"
        )
    for ident, g in curated_sampled_instances()[:4]:
        yield f"02 curated {ident}", sublevel_normal_cone_formula(
            g.family, g.point, g.epsilon, mode="sampled"
        )
    for i in range(10):  # criterion 04
        g = random_dom_family(random.Random(4000 + i))
        yield f"04 dom {i}", verify_formula_instance(g.family, g.point, F(1, 2), which="dom")
    for i in range(10):  # criterion 05
        g = random_qc_instance(random.Random(5000 + i))
        yield f"05 qc {i}", verify_formula_instance(g.qc, g.point, g.epsilon, which="qc")
    for ident, qc, x in curated_smooth_qc()[:4]:  # criteria 06 and 07
        yield f"06 inner {ident}", qc_sublevel_normal_cone(qc, x, F(1, 4))
        yield f"06 outer {ident}", frechet_outer_cone(qc, x, F(1, 4))
        for m in qc.members:
            witness = inclusion_witness_check(m.evaluator, x, F(1, 16))
            yield f"07 witness {ident} {m.ident}", witness
    for i in range(12):  # criterion 08
        g = random_program(random.Random(8000 + i))
        yield f"08 report {i}", check_optimal_convex(g.program, g.epsilon)
        yield f"08 minimize {i}", minimize_objective(g.program)
    circle = LinearSIPInstance(  # criterion 09
        2, (F(-1), F(0)), (F(1), F(0)), sampler=CircleSampler(), levels=(4, 5, 6)
    )
    yield "09 sip", check_sip_linear(circle)
    for i in range(30):  # criterion 10
        p = random_polyhedron(random.Random(10_000 + i))
        gen = h_to_v(p)
        yield f"10 h_to_v {i}", gen
        yield f"10 v_to_h {i}", v_to_h(gen)
        yield f"10 recession {i}", recession_cone(p)
        yield f"10 lp {i}", lp_solve(random_direction(random.Random(i), p.dim), p)
        rng = random.Random(11_000 + i)
        a = random_generator_set(rng)
        polar = cone_polar(recession_of_generators(a))
        yield f"10 polar {i}", polar
        dirs = [random_direction(rng, a.dim) for _ in range(3)]
        yield f"10 support {i}", [support_function(a, d) for d in dirs]
        rng = random.Random(13_000 + i)
        dim = rng.choice((2, 3))
        x = random_point(rng, dim)
        rows = []
        for _ in range(rng.randint(1, 3)):
            nrm = random_direction(rng, dim)
            rows.append(HalfSpace(nrm, dot(nrm, x) + F(rng.randint(0, 2))))
        q = polyhedron(dim, rows)
        eps = (F(0), F(1, 2), F(1))[i % 3]
        yield f"10 eps-normal {i}", eps_normal_set(q, x, eps)
        yield f"10 indicator {i}", eps_subdifferential(indicator(q), x, eps)
    records, _ = run_suite(seed=7)  # criterion 11
    yield "11 suite", records


def test_acceptance_results_hold_no_floats() -> None:
    leaks = []
    count = 0
    for label, res in _results():
        count += 1
        leaks += [f"{label}: {leak}" for leak in float_leaks(res)]
    assert count > 200
    assert not leaks, leaks[:10]
