"""The qc lattice checks at their fixed sizes, against the parametrized code.

``ref_frechet_outer_cone``, ``ref_check_necessary_qc`` and
``ref_inclusion_witness_check`` are the three lattice functions as they were
when each took ``samples_per_axis``: the whole lattice as a list, x appended
when it was off the lattice, and frechet's ``seen`` set with every gradient
kept. They live here only to pin the fixed-size code (5 samples per axis for
the outer estimate, 7 for the inclusion check) to equal ``FrechetCone``,
``QCOptimalityReport`` and ``InclusionReport`` values on seeded inputs in
dims 1-4, and they are the reference for a dimension-free rewrite of these
paths. The three differentials run 320, 150 and 98 seeded inputs.
"""

from __future__ import annotations

import itertools
import tracemalloc
from fractions import Fraction
from random import Random

import pytest

from supcone.errors import InputError, InternalCheckError, PreconditionError
from supcone.formulas import (
    FRECHET_SAMPLES,
    INCLUSION_SAMPLES,
    FrechetCone,
    InclusionReport,
    InclusionWitness,
    SmoothQCMember,
    SublevelOracleQC,
    _cone_witness_lp,
    _positive_eps,
    _rational_sqrt,
    _subdifferential_parts,
    frechet_outer_cone,
    inclusion_witness_check,
    qc_sublevel_normal_cone,
)
from supcone.functions import (
    PolyhedralFunction,
    affine_function,
    eps_normal_set,
    evaluate,
    exact_subdifferential,
    max_affine,
    sublevel_set,
)
from supcone.generate import _random_profile_member, _random_smooth, random_point
from supcone.geometry import (
    POS_INF,
    cone,
    cone_contains,
    dot,
    poly_contains_point,
    rat,
    vadd,
    vec,
    vscale,
    zero_vec,
)
from supcone.optimality import (
    CONDITION_HOLDS,
    NOT_OPTIMAL,
    QCOptimalityReport,
    QCProgram,
    _membership_certificate,
    _qc_improving_point,
    check_necessary_qc,
)

F = Fraction


# ------------------------------------------------------------- references


def ref_frechet_outer_cone(qc, x, eps, samples_per_axis=5):
    e = _positive_eps(eps)
    if samples_per_axis < 2:
        raise InputError("need at least two samples per axis")
    x = vec(x)
    for m in qc.members:
        if not isinstance(m.evaluator, SmoothQCMember):
            raise InputError("the outer estimate needs smooth members (gradients)")
    offsets = [-e + 2 * e * F(j, samples_per_axis - 1) for j in range(samples_per_axis)]
    rays = []
    hits = 0
    count = 0
    seen = set()
    lattice = [vadd(x, combo) for combo in itertools.product(offsets, repeat=len(x))]
    lattice.append(x)
    for y in lattice:
        if y in seen:
            continue
        seen.add(y)
        count += 1
        for m in qc.members:
            if m.evaluator.value(y) <= e:
                g = m.evaluator.gradient(y)
                if any(c != 0 for c in g):
                    rays.append(g)
                    hits += 1
    return FrechetCone(cone(len(x), rays), count, hits)


def ref_check_necessary_qc(prog, eps, samples_per_axis=5):
    e = rat(eps)
    x = vec(prog.point)
    fx = evaluate(prog.objective, x)
    if fx == POS_INF:
        raise PreconditionError("candidate point is outside dom f0")
    kres = qc_sublevel_normal_cone(prog.constraints, x, e)
    sub0 = exact_subdifferential(prog.objective, x)
    cert = _membership_certificate(sub0, kres.cone)
    if cert is None:
        improving = _qc_improving_point(prog, fx)
        return QCOptimalityReport(NOT_OPTIMAL, e, improving_point=improving, objective_at_point=fx)
    outer_ok = None
    if all(isinstance(m.evaluator, SmoothQCMember) for m in prog.constraints.members):
        fc = ref_frechet_outer_cone(prog.constraints, x, e, samples_per_axis)
        outer_ok = all(cone_contains(fc.cone, r) for r in kres.cone.rays) and (
            all(c == 0 for c in cert.q) or cone_contains(fc.cone, cert.q)
        )
    return QCOptimalityReport(
        CONDITION_HOLDS, e, certificate=cert, outer_verified=outer_ok, objective_at_point=fx
    )


def ref_inclusion_witness_check(f, x, eps, samples_per_axis=7):
    e = _positive_eps(eps)
    rho = _rational_sqrt(e)
    if rho is None:
        raise InputError("eps must be the square of a rational")
    if samples_per_axis < 2:
        raise InputError("need at least two samples per axis")
    x = vec(x)
    if isinstance(f, SmoothQCMember):
        s = f.zero_sublevel()
        value = f.value
    elif isinstance(f, PolyhedralFunction):
        s = sublevel_set(f)
        value = lambda y: evaluate(f, y)  # noqa: E731
    else:
        raise InputError("expected a smooth member or a polyhedral function")
    if not poly_contains_point(s, x):
        raise PreconditionError("x must satisfy f(x) <= 0")
    nset = eps_normal_set(s, x, e)
    gens = list(nset.points) + list(nset.rays)
    offsets = [
        -3 * rho + 6 * rho * F(j, samples_per_axis - 1) for j in range(samples_per_axis)
    ]
    lattice = [vadd(x, combo) for combo in itertools.product(offsets, repeat=len(x))]
    if x not in lattice:
        lattice.append(x)
    candidates = []
    for y in lattice:
        v = value(y)
        if v == POS_INF or v > 2 * rho:
            continue
        parts = _subdifferential_parts(f, y)
        if parts is not None:
            candidates.append((y, parts[0], parts[1]))
    x_parts = _subdifferential_parts(f, x)
    u0 = x_parts[0][0] if x_parts and x_parts[0] else zero_vec(len(x))
    witnesses = []
    unresolved = []
    for g in gens:
        found = None
        if max((abs(c) for c in g), default=F(0)) <= rho:
            found = InclusionWitness(g, x, F(0), u0, g, F(0))
        else:
            for y, conv_part, ray_part in candidates:
                hit = _cone_witness_lp(g, conv_part, ray_part, rho)
                if hit is not None:
                    lam, u, p, dist = hit
                    if u is None:
                        u = conv_part[0] if conv_part else zero_vec(len(x))
                    if vadd(vscale(lam, u), p) != g:
                        raise InternalCheckError("witness decomposition failed re-check")
                    found = InclusionWitness(g, y, lam, u, p, dist)
                    break
        if found is not None:
            witnesses.append(found)
        else:
            unresolved.append(g)
    return InclusionReport(rho, tuple(witnesses), tuple(unresolved))


# ---------------------------------------------------------- seeded inputs


def smooth_qc(rng: Random, dim: int, count: int):
    x = random_point(rng, dim, span=1)
    members = tuple(_random_smooth(rng, dim, x, f"s{i}") for i in range(count))
    return SublevelOracleQC(dim, members), x


def mixed_qc(rng: Random, dim: int, count: int):
    x = random_point(rng, dim, span=1)
    members = []
    for i in range(count):
        if rng.random() < 0.5:
            members.append(_random_smooth(rng, dim, x, f"s{i}"))
        else:
            members.append(_random_profile_member(rng, dim, x, f"v{i}"))
    return SublevelOracleQC(dim, tuple(members)), x


def program(rng: Random, dim: int) -> QCProgram:
    """A qc program whose objective is minus a combination of the normal
    cone's rays, possibly zero (the condition holds), or a random slope (it
    mostly fails)."""
    qc, x = (smooth_qc if rng.random() < 0.7 else mixed_qc)(rng, dim, rng.randint(1, 3))
    rays = qc_sublevel_normal_cone(qc, x, 1).cone.rays
    if rng.random() < 0.5:
        slope = zero_vec(dim)
        for r in rays:
            slope = vadd(slope, vscale(F(-rng.randint(0, 2)), r))
    else:
        slope = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
    return QCProgram(affine_function(slope, -dot(slope, x)), qc, x)


EPS = (F(1), F(1, 2), F(1, 4), F(1, 3))
SQUARE_EPS = (F(1), F(1, 4), F(1, 9), F(1, 16))
# seeded inputs per dim; 320 + 150 + 98 = 568 in all
FRECHET_CASES = {1: 100, 2: 100, 3: 100, 4: 20}
NECESSARY_CASES = {1: 50, 2: 50, 3: 40, 4: 10}
INCLUSION_CASES = {1: 30, 2: 30, 3: 30, 4: 8}
DIMS = (1, 2, 3, 4)


# ------------------------------------------------------------ differentials


def test_lattice_sizes_are_odd() -> None:
    assert (FRECHET_SAMPLES, INCLUSION_SAMPLES) == (5, 7)


@pytest.mark.parametrize("dim", DIMS)
def test_frechet_matches_the_parametrized_lattice(dim) -> None:
    cases = FRECHET_CASES[dim]
    hits = 0
    for seed in range(cases):
        rng = Random(71000 + 1000 * dim + seed)
        qc, x = smooth_qc(rng, dim, rng.randint(1, 3))
        eps = rng.choice(EPS)
        got = frechet_outer_cone(qc, x, eps)
        assert got == ref_frechet_outer_cone(qc, x, eps), (dim, seed)
        assert got.lattice_points == 5**dim
        hits += got.gradient_hits > 0
    assert hits >= cases // 2, hits


@pytest.mark.parametrize("dim", DIMS)
def test_necessary_condition_matches_the_parametrized_lattice(dim) -> None:
    cases = NECESSARY_CASES[dim]
    verdicts = {CONDITION_HOLDS: 0, NOT_OPTIMAL: 0}
    outer = 0
    for seed in range(cases):
        rng = Random(72000 + 1000 * dim + seed)
        prog = program(rng, dim)
        eps = rng.choice(EPS)
        got = check_necessary_qc(prog, eps)
        assert got == ref_check_necessary_qc(prog, eps), (dim, seed)
        verdicts[got.verdict] += 1
        outer += got.outer_verified is not None
    assert min(verdicts.values()) >= cases // 10, verdicts
    assert outer >= cases // 5, outer


@pytest.mark.parametrize("dim", DIMS)
def test_inclusion_matches_the_parametrized_lattice(dim) -> None:
    cases = INCLUSION_CASES[dim]
    smooth = 0
    for seed in range(cases):
        rng = Random(73000 + 1000 * dim + seed)
        x = random_point(rng, dim, span=1)
        if rng.random() < 0.5:
            f = _random_smooth(rng, dim, x, "s").evaluator
            smooth += 1
        else:
            pieces = []
            for _ in range(rng.randint(1, 3)):
                slope = tuple(F(rng.randint(-2, 2)) for _ in range(dim))
                pieces.append((slope, -dot(slope, x) - rng.randint(0, 1)))
            f = max_affine(dim, pieces)
        eps = rng.choice(SQUARE_EPS)
        got = inclusion_witness_check(f, x, eps)
        assert got == ref_inclusion_witness_check(f, x, eps), (dim, seed)
    assert 0 < smooth < cases, smooth


# ---------------------------------------------------------- bounded memory


def test_frechet_memory_does_not_grow_with_the_lattice() -> None:
    # dim 5: 3125 lattice points and three smooth members; the parametrized
    # lattice held every point and every gradient, several MB
    rng = Random(74005)
    qc, x = smooth_qc(rng, 5, 3)
    tracemalloc.start()
    try:
        got = frechet_outer_cone(qc, x, F(1, 4))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.lattice_points == 5**5
    assert got.gradient_hits > 0
    assert peak < 1_000_000, peak
