"""Acceptance gate: eleven exactness and soundness criteria, one per test.

Every test finishes with a single "criterion NN: PASS/FAIL" line. All
comparisons are exact rational set identities against the independent
polyhedral oracle; the few stated tolerances (SIP residual, wall-clock
budgets) are part of the criterion itself.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from supcone.formulas import (
    frechet_outer_cone,
    inclusion_witness_check,
    qc_sublevel_normal_cone,
    sublevel_normal_cone_formula,
    sublevel_normal_cone_intersection,
)
from supcone.functions import (
    convex_sublevel_closure_identity,
    eps_normal_set,
    eps_subdifferential,
    evaluate,
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
    random_program,
    random_qc_instance,
)
from supcone.geometry import (
    POS_INF,
    HalfSpace,
    cone,
    cone_contains,
    cone_equal,
    dot,
    h_to_v,
    inequality_cone,
    intersect,
    is_empty_poly,
    lp,
    poly_contains_generators,
    poly_equal,
    polyhedron,
    recession_cone,
    support_function,
    v_to_h,
)
from supcone.optimality import (
    NOT_OPTIMAL,
    OPTIMAL,
    CircleSampler,
    LinearSIPInstance,
    check_optimal_convex,
    check_sip_linear,
    minimize_objective,
    verify_certificate,
)
from supcone.oracle import (
    EQUAL,
    VIOLATION,
    polyhedron_normal_cone,
    sup_sublevel_polyhedron,
    verify_formula_instance,
)
from supcone.reports import render
from supcone.suites import (
    closure_gallery,
    curated_sampled_instances,
    curated_smooth_qc,
    run_suite,
)

F = Fraction


def gate(num: int, failures: list, detail: str) -> None:
    status = "FAIL" if failures else "PASS"
    line = f"criterion {num:02d}: {status} - {detail}"
    print(line)
    assert not failures, f"{line}\nfirst failures: {failures[:5]}"


def test_criterion_01_affine_family_exactness() -> None:
    # 200 seeded all-affine instances (dims 2-4, 1-8 members, ~20% improper,
    # mixed boundary/interior anchors), each at eps in {1, 1/2, 1/4}:
    # the closed-form cone must equal the oracle cone exactly.
    start = time.monotonic()
    failures = []
    for i in range(200):
        g = random_affine_family(random.Random(1000 + i))
        for eps in (F(1), F(1, 2), F(1, 4)):
            rep = verify_formula_instance(
                g.family, g.point, eps, which="sublevel", mode="exact-affine",
                instance_id=f"affine-{i}",
            )
            if rep.verdict != EQUAL:
                failures.append((i, eps, rep.verdict, rep.witness))
    elapsed = time.monotonic() - start
    if elapsed >= 60:
        failures.append(("runtime", elapsed))
    gate(1, failures, f"200 affine instances x 3 eps exact in {elapsed:.1f}s (budget 60s)")


def test_criterion_02_max_affine_soundness_and_stabilization() -> None:
    # sampled mode with the default geometric s-grid 2^-10..2^10 may
    # under-approximate but never overshoot; the 25 curated instances must
    # reach grid-stable oracle equality and carry the exact flag.
    start = time.monotonic()
    failures = []
    for i in range(100):
        g = random_max_affine_family(random.Random(3000 + i))
        rep = verify_formula_instance(
            g.family, g.point, g.epsilon, which="sublevel", mode="sampled",
            instance_id=f"maxaff-{i}",
        )
        if rep.verdict == VIOLATION:
            failures.append((i, rep.witness))
    for ident, g in curated_sampled_instances():
        res = sublevel_normal_cone_formula(g.family, g.point, g.epsilon, mode="sampled")
        if not (res.exact and res.grid_stable and res.oracle_agrees):
            failures.append((ident, res.exact, res.grid_stable, res.oracle_agrees))
    elapsed = time.monotonic() - start
    if elapsed >= 300:
        failures.append(("runtime", elapsed))
    gate(2, failures, f"100 sampled instances sound, 25 curated exact in {elapsed:.1f}s (budget 300s)")


def test_criterion_03_eps_list_intersection_consistency() -> None:
    # the intersection-over-eps form must reproduce the per-eps recession
    # cone and the independent oracle's cone on the affine suite, for eps
    # lists {1,1/2,1/4} and {1/3,1/9}
    failures = []
    for i in range(200):
        g = random_affine_family(random.Random(1000 + i))
        single = sublevel_normal_cone_formula(g.family, g.point, F(1), mode="exact-affine")
        target = polyhedron_normal_cone(sup_sublevel_polyhedron(g.family.functions()), g.point)
        for eps_list in ((F(1), F(1, 2), F(1, 4)), (F(1, 3), F(1, 9))):
            res = sublevel_normal_cone_intersection(
                g.family, g.point, eps_list, mode="exact-affine"
            )
            if not cone_equal(res.cone, single.cone):
                failures.append((i, eps_list))
            if not cone_equal(res.cone, target):
                failures.append((i, eps_list, "differs from the oracle"))
            if not res.stabilized:
                failures.append((i, eps_list, "not stabilized"))
    gate(3, failures, "intersection form matches per-eps cone on 200 instances x 2 eps lists")


def test_criterion_04_domain_cone_exactness() -> None:
    # 100 seeded restricted-domain families with >= 1 improper member:
    # the weighted-subdifferential domain cone equals the oracle at eps in {1, 1/2}
    failures = []
    for i in range(100):
        g = random_dom_family(random.Random(4000 + i))
        for eps in (F(1), F(1, 2)):
            rep = verify_formula_instance(
                g.family, g.point, eps, which="dom", instance_id=f"dom-{i}"
            )
            if rep.verdict != EQUAL:
                failures.append((i, eps, rep.verdict, rep.witness))
    gate(4, failures, "100 domain instances x 2 eps exact")


def test_criterion_05_qc_intersection_exactness() -> None:
    failures = []
    for i in range(100):
        g = random_qc_instance(random.Random(5000 + i))
        for eps in (g.epsilon, F(1)):
            rep = verify_formula_instance(
                g.qc, g.point, eps, which="qc", instance_id=f"qc-{i}"
            )
            if rep.verdict != EQUAL:
                failures.append((i, eps, rep.verdict, rep.witness))
    gate(5, failures, "100 quasi-convex instances exact at two eps each")


def test_criterion_06_gradient_outer_estimate_contains_qc_cone() -> None:
    # sampled-gradient outer cone must contain the qc cone, generator by
    # generator, at matched eps in {1/4, 1/16}
    failures = []
    suite = curated_smooth_qc()
    assert len(suite) == 20
    for ident, qc, x in suite:
        for eps in (F(1, 4), F(1, 16)):
            inner = qc_sublevel_normal_cone(qc, x, eps)
            outer = frechet_outer_cone(qc, x, eps)
            for r in inner.cone.rays:
                if not cone_contains(outer.cone, r):
                    failures.append((ident, eps, r))
    gate(6, failures, "outer estimate contains the qc cone on 20 curated instances x 2 eps")


def test_criterion_07_inclusion_witness_search() -> None:
    # every generator of the eps-normal set gets an exact witness
    # g = lam*u + p with u a subgradient at a nearby point and ||p||_inf <= sqrt(eps)
    failures = []
    for ident, qc, x in curated_smooth_qc():
        for eps in (F(1, 16), F(1, 256)):
            for m in qc.members:
                rep = inclusion_witness_check(m.evaluator, x, eps)
                if rep.unresolved:
                    failures.append((ident, m.ident, eps, rep.unresolved))
                    continue
                for w in rep.witnesses:
                    recombined = tuple(
                        w.lam * uc + pc for uc, pc in zip(w.u, w.p)
                    )
                    if recombined != w.generator or w.distance > rep.rho:
                        failures.append((ident, m.ident, eps, w))
    gate(7, failures, "all witnesses found and re-verified on 20 curated instances x 2 eps")


def test_criterion_08_optimality_checker_vs_direct_minimization() -> None:
    failures = []
    certificates = 0
    for i in range(100):
        g = random_program(random.Random(8000 + i))
        rep = check_optimal_convex(g.program, g.epsilon)
        status, value, _, _ = minimize_objective(g.program)
        fx = evaluate(g.program.objective, g.program.point)
        if status == lp.OPTIMAL:
            expected = OPTIMAL if value == fx else NOT_OPTIMAL
        elif status == lp.UNBOUNDED:
            expected = NOT_OPTIMAL
        else:
            failures.append((i, "infeasible program with a feasible anchor"))
            continue
        if rep.verdict != expected:
            failures.append((i, rep.verdict, expected))
        if rep.certificate is not None:
            certificates += 1
            if not verify_certificate(g.program, rep.certificate):
                failures.append((i, "certificate failed re-verification"))
    if certificates == 0:
        failures.append(("no certificates emitted across 100 programs",))
    gate(8, failures, f"100 programs match direct minimization, {certificates} certificates re-verified")


def test_criterion_09_sip_circle_residuals() -> None:
    # tangent-point instance: minimize -y1 over <a(u), y> <= 1 for circle
    # normals a(u); candidate (1, 0) is the tangent point of the u = 0
    # constraint, so -cost must enter the sampled active cone
    start = time.monotonic()
    failures = []
    inst = LinearSIPInstance(
        2, (F(-1), F(0)), (F(1), F(0)),
        sampler=CircleSampler(), levels=(4, 5, 6, 7, 8, 9, 10),
    )
    rep = check_sip_linear(inst)
    elapsed = time.monotonic() - start
    if rep.verdict != OPTIMAL:
        failures.append(("verdict", rep.verdict))
    if rep.levels != (4, 5, 6, 7, 8, 9, 10):
        failures.append(("levels", rep.levels))
    for a, b in zip(rep.residuals, rep.residuals[1:]):
        if b > a:
            failures.append(("residual increased", a, b))
    if rep.residuals[-1] > F(1, 10**6):
        failures.append(("final residual", rep.residuals[-1]))
    if elapsed >= 10:
        failures.append(("runtime", elapsed))
    gate(9, failures, f"residuals non-increasing, final {rep.residuals[-1]} at 2^10 points in {elapsed:.1f}s (budget 10s)")


def test_criterion_10_preliminary_identities_bulk() -> None:
    failures = []

    # 1000 H->V->H round trips
    for i in range(1000):
        p = random_polyhedron(random.Random(10_000 + i))
        back = v_to_h(h_to_v(p))
        ok = is_empty_poly(back) if is_empty_poly(p) else poly_equal(p, back)
        if not ok:
            failures.append(("round-trip", i))

    # 1000 support/recession polarity checks
    for i in range(1000):
        rng = random.Random(11_000 + i)
        a = random_generator_set(rng)
        polar = inequality_cone(cone(a.dim, a.rays).rays, a.dim)
        for r in polar.rays:
            if support_function(a, r) is POS_INF:
                failures.append(("support", i, r))
        for _ in range(3):
            d = random_direction(rng, a.dim)
            if (support_function(a, d) is not POS_INF) != cone_contains(polar, d):
                failures.append(("support", i, d))

    # 1000 polyhedra in 500 anchored pairs: recession commutes with
    # intersection; every tenth pair is made disjoint so both sides are {theta}
    for i in range(500):
        rng = random.Random(12_000 + i)
        dim = rng.choice((2, 3))
        x = random_point(rng, dim)
        pair = []
        for _ in range(2):
            rows = []
            for _ in range(rng.randint(1, 3)):
                nrm = random_direction(rng, dim)
                rows.append(HalfSpace(nrm, dot(nrm, x) + F(rng.randint(0, 2))))
            pair.append(polyhedron(dim, rows))
        if i % 10 == 9:
            unit = [HalfSpace(tuple(F(s if k == j else 0) for k in range(dim)), F(s == 1))
                    for j in range(dim) for s in (1, -1)]
            box = polyhedron(dim, unit)
            far = [HalfSpace(h.normal, h.offset + 7 * sum(h.normal)) for h in box.halfspaces]
            pair = [box, polyhedron(dim, far)]
        cones = [recession_cone(p) for p in pair]
        polars = tuple(r for c in cones for r in inequality_cone(c.rays, dim).rays)
        lhs = inequality_cone(cone(dim, polars).rays, dim)
        rhs = recession_cone(intersect(*pair))
        if not cone_equal(lhs, rhs):
            failures.append(("recession-intersection", i))
        if i % 10 == 9 and rhs.rays != ():
            failures.append(("empty-intersection recession not {theta}", i))

    # 1000 eps-normal-set vs indicator-subdifferential consistency checks
    for i in range(1000):
        rng = random.Random(13_000 + i)
        dim = rng.choice((2, 3))
        x = random_point(rng, dim)
        rows = []
        for _ in range(rng.randint(1, 3)):
            nrm = random_direction(rng, dim)
            rows.append(HalfSpace(nrm, dot(nrm, x) + F(rng.randint(0, 2))))
        p = polyhedron(dim, rows)
        eps = (F(0), F(1, 2), F(1))[i % 3]
        lhs = eps_normal_set(p, x, eps)
        rhs = eps_subdifferential(indicator(p), x, eps)
        if lhs.is_empty or rhs.is_empty:
            if lhs.is_empty != rhs.is_empty:
                failures.append(("indicator", i))
        elif not (
            poly_contains_generators(v_to_h(rhs), lhs)
            and poly_contains_generators(v_to_h(lhs), rhs)
        ):
            failures.append(("indicator", i))

    # twenty 1-d closure cases: "holds" wherever the identity applies,
    # "refused" on the empty-sublevel profiles, never a false answer
    gallery = closure_gallery()
    if len(gallery) != 20:
        failures.append(("gallery size", len(gallery)))
    for ident, f, expected in gallery:
        try:
            outcome = "holds" if convex_sublevel_closure_identity(f).holds else "fails"
        except Exception as exc:
            outcome = "refused" if type(exc).__name__ == "RefusedError" else "error"
        if outcome != expected or outcome == "fails":
            failures.append(("closure", ident, outcome, expected))

    gate(10, failures, "4 x 1000 randomized identities + 20 closure cases")


def test_criterion_11_deterministic_reports() -> None:
    failures = []
    first, failed_first = run_suite(seed=7)
    second, failed_second = run_suite(seed=7)
    if failed_first or failed_second:
        failures.append(("suite failures", failed_first, failed_second))
    for fmt in ("machine", "human", "csv"):
        a, b = render(first, fmt), render(second, fmt)
        if a != b:
            failures.append(("format", fmt))
        if a.encode("utf-8") != b.encode("utf-8"):
            failures.append(("bytes", fmt))
    gate(11, failures, "suite reports byte-identical across reruns")
