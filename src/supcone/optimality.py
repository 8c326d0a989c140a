"""Optimality checkers built on the normal-cone formulas.

Convex programs: minimize f0 over [sup_t f_t <= 0]. With a validated
qualification (objective continuous at a feasible point, or a strictly
feasible point in dom f0), x is optimal iff theta lies in
d f0(x) + N_[f<=0](x); the normal cone comes from the sublevel formula and
membership is one exact LP whose multipliers become a re-verifiable
certificate. Linear semi-infinite programs get the classical active-cone
test, run on nested finite samplings with an exact residual per level.
Quasi-convex programs get the necessary condition theta in
d f0(x) + N from the eps-normal intersection formula.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .errors import InputError, InternalCheckError, PreconditionError, SizingError
from .formulas import (
    FormulaResult,
    SGrid,
    SublevelOracleQC,
    SupFamily,
    frechet_outer_cone,
    qc_sublevel_normal_cone,
    sublevel_normal_cone_formula,
)
from .functions import (
    PolyhedralFunction,
    eps_subdifferential,
    evaluate,
)
from .geometry import (
    DEFAULT_ROW_CAP,
    ConeGen,
    GeneratorSet,
    HalfSpace,
    POS_INF,
    Vec,
    cone,
    cone_contains,
    cone_multipliers,
    dot,
    generator_member,
    lp,
    lp_solve,
    poly_contains_point,
    polyhedron,
    primitive_ints,
    rat,
    sup_distance_to_cone,
    vadd,
    vec,
    vscale,
    zero_vec,
)
from .oracle import sup_sublevel_polyhedron

OPTIMAL = "optimal"
NOT_OPTIMAL = "not-optimal"
INCONCLUSIVE = "inconclusive"
CONDITION_HOLDS = "condition-holds"


@dataclass(frozen=True)
class Qualification:
    """kind "objective-continuous": witness is feasible and interior to
    dom f0. kind "interior-feasible": witness is strictly feasible and in
    dom f0."""

    kind: str
    witness: Vec


@dataclass(frozen=True)
class ProgramInstance:
    objective: PolyhedralFunction
    family: SupFamily
    point: Vec
    qualification: Qualification

    def __post_init__(self) -> None:
        if self.objective.dim != self.family.dim:
            raise InputError("objective and constraint dimensions differ")
        if len(self.point) != self.family.dim:
            raise InputError("candidate point dimension mismatch")


@dataclass(frozen=True)
class Certificate:
    """theta = g0 + q with g0 in d f0(x) and q in the normal cone.

    point_coeffs/ray_coeffs decompose g0 over the subdifferential generators,
    cone_coeffs decompose q over the normal cone generators.
    """

    g0: Vec
    q: Vec
    point_coeffs: tuple[tuple[Vec, Fraction], ...]
    ray_coeffs: tuple[tuple[Vec, Fraction], ...]
    cone_coeffs: tuple[tuple[Vec, Fraction], ...]
    cone: ConeGen


def verify_certificate(prog: ProgramInstance, cert: Certificate) -> bool:
    """Re-verify a certificate from scratch: the decompositions rebuild g0
    and q, g0 + q = theta, g0 lies in d f0(x), q lies in the stored cone."""
    x = vec(prog.point)
    d = prog.family.dim
    g0 = zero_vec(d)
    for v, c in cert.point_coeffs + cert.ray_coeffs:
        if c < 0:
            return False
        g0 = vadd(g0, vscale(c, v))
    if sum((c for _, c in cert.point_coeffs), Fraction(0)) != 1:
        return False
    q = zero_vec(d)
    for v, c in cert.cone_coeffs:
        if c < 0 or not cone_contains(cert.cone, v):
            return False
        q = vadd(q, vscale(c, v))
    if g0 != cert.g0 or q != cert.q:
        return False
    if vadd(g0, q) != zero_vec(d):
        return False
    sub0 = eps_subdifferential(prog.objective, x, 0)
    return generator_member(sub0, g0) is not None


@dataclass
class OptimalityReport:
    verdict: str  # OPTIMAL | NOT_OPTIMAL | INCONCLUSIVE
    epsilon: Fraction
    certificate: Certificate | None = None
    improving_point: Vec | None = None
    improving_ray: Vec | None = None
    objective_at_point: Fraction | None = None
    best_value: Fraction | None = None
    normal_cone: FormulaResult | None = None


def _validate_qualification(prog: ProgramInstance) -> None:
    qual = prog.qualification
    y = vec(qual.witness)
    feasible_set = sup_sublevel_polyhedron(prog.family.functions())
    if qual.kind == "objective-continuous":
        if not poly_contains_point(feasible_set, y):
            raise PreconditionError("qualification witness is not feasible")
        for h in prog.objective.domain.halfspaces:
            if not dot(h.normal, y) < h.offset:
                raise PreconditionError(
                    "qualification witness is not interior to dom f0"
                )
    elif qual.kind == "interior-feasible":
        for h in feasible_set.halfspaces:
            if not dot(h.normal, y) < h.offset:
                raise PreconditionError("qualification witness is not strictly feasible")
        if evaluate(prog.objective, y) == POS_INF:
            raise PreconditionError("qualification witness is outside dom f0")
    else:
        raise InputError(f"unknown qualification kind {qual.kind!r}")


def _membership_certificate(
    sub0: GeneratorSet, k: ConeGen
) -> Certificate | None:
    """theta in sub0 + cone(k)? The multipliers come back in column order,
    so each coefficient stays attached to its generator."""
    d = sub0.dim
    pts, rys, krs = sub0.points, sub0.rays, k.rays
    mu = generator_member(GeneratorSet(d, pts, rys + krs), zero_vec(d))
    if mu is None:
        return None
    np_, nr = len(pts), len(rys)
    g0 = zero_vec(d)
    for v, c in zip(pts + rys, mu[: np_ + nr]):
        g0 = vadd(g0, vscale(c, v))
    q = zero_vec(d)
    for v, c in zip(krs, mu[np_ + nr :]):
        q = vadd(q, vscale(c, v))
    return Certificate(
        g0,
        q,
        tuple(zip(pts, mu[:np_])),
        tuple(zip(rys, mu[np_ : np_ + nr])),
        tuple(zip(krs, mu[np_ + nr :])),
        k,
    )


def minimize_objective(prog: ProgramInstance):
    """Exact minimization of f0 over the feasible set via one LP in (y, tau).

    Returns (status, value, point, ray): OPTIMAL with the minimum and a
    minimizer, UNBOUNDED with a descent ray, or INFEASIBLE.
    """
    d = prog.family.dim
    rows = []
    for p in prog.objective.pieces:
        rows.append(HalfSpace(p.slope + (Fraction(-1),), -p.intercept))
    for h in prog.objective.domain.halfspaces:
        rows.append(HalfSpace(h.normal + (0,), h.offset))
    for h in sup_sublevel_polyhedron(prog.family.functions()).halfspaces:
        rows.append(HalfSpace(h.normal + (0,), h.offset))
    obj = zero_vec(d) + (Fraction(-1),)
    res = lp_solve(obj, polyhedron(d + 1, rows))
    if res.status == lp.INFEASIBLE:
        return lp.INFEASIBLE, None, None, None
    if res.status == lp.UNBOUNDED:
        ray = res.ray[:d]
        return lp.UNBOUNDED, None, res.point[:d] if res.point else None, ray
    return lp.OPTIMAL, -res.value, res.point[:d], None


def check_optimal_convex(
    prog: ProgramInstance, eps, grid: SGrid | None = None, mode: str = "auto"
) -> OptimalityReport:
    """Decide optimality of the candidate point for min f0 over [sup f_t <= 0].

    Certifies optimality via theta in d f0(x) + N (sound whenever the normal
    cone construction is sound, exact or not). When membership fails and the
    cone is exact, the direct LP cross-check must produce a strictly better
    point; anything else is an internal error. When membership fails on an
    uncertified cone the answer is inconclusive.
    """
    e = rat(eps)
    x = vec(prog.point)
    fx = evaluate(prog.objective, x)
    if fx == POS_INF:
        raise PreconditionError("candidate point is outside dom f0")
    _validate_qualification(prog)
    kres = sublevel_normal_cone_formula(prog.family, x, e, grid=grid, mode=mode)
    sub0 = eps_subdifferential(prog.objective, x, 0)
    if sub0.is_empty:
        raise InternalCheckError("subdifferential empty at a domain point")
    cert = _membership_certificate(sub0, kres.cone)
    if cert is not None:
        if vadd(cert.g0, cert.q) != zero_vec(len(x)):
            raise InternalCheckError("membership certificate does not sum to zero")
        return OptimalityReport(
            OPTIMAL,
            e,
            certificate=cert,
            objective_at_point=fx,
            normal_cone=kres,
        )
    if not kres.exact:
        return OptimalityReport(
            INCONCLUSIVE, e, objective_at_point=fx, normal_cone=kres
        )
    status, value, point, ray = minimize_objective(prog)
    if status == lp.UNBOUNDED:
        return OptimalityReport(
            NOT_OPTIMAL,
            e,
            improving_point=point,
            improving_ray=ray,
            objective_at_point=fx,
            normal_cone=kres,
        )
    if status == lp.OPTIMAL and value < fx:
        return OptimalityReport(
            NOT_OPTIMAL,
            e,
            improving_point=point,
            objective_at_point=fx,
            best_value=value,
            normal_cone=kres,
        )
    raise InternalCheckError(
        "membership failed on an exact cone but direct minimization found "
        "no better point; one of the two is wrong"
    )


# --- linear semi-infinite programs ---------------------------------------------


@dataclass(frozen=True)
class CircleSampler:
    """Rational points of the unit circle via the half-tangent substitution:
    level l yields the 2^l parameters u = j / h, h = 2^(l-1), j = -h .. h - 1,
    at the points ((h^2 - j^2) / (h^2 + j^2), 2jh / (h^2 + j^2)). Levels nest:
    level l is every 2^(L-l)-th point of level L >= l, and every level
    contains u = 0. A level of more than DEFAULT_ROW_CAP points is refused
    with SizingError before any point is built."""

    def points(self, level: int) -> list[tuple[Vec, Fraction]]:
        if level < 1:
            raise InputError("level must be at least 1")
        if 2**level > DEFAULT_ROW_CAP:
            raise SizingError(
                f"a level-{level} circle sample has 2^{level} points, "
                f"above the cap of {DEFAULT_ROW_CAP}"
            )
        h = 2 ** (level - 1)
        hh = h * h
        one = Fraction(1)
        out = []
        for j in range(-h, h):
            den = hh + j * j
            out.append(((Fraction(hh - j * j, den), Fraction(2 * j * h, den)), one))
        return out


@dataclass(frozen=True)
class LinearSIPInstance:
    """min <cost, y> subject to <a_t, y> <= b_t; constraints either finite or
    drawn from a parametric sampler at increasing levels."""

    dim: int
    cost: Vec
    point: Vec
    constraints: tuple[tuple[Vec, Fraction], ...] | None = None
    sampler: CircleSampler | None = None
    levels: tuple[int, ...] = (4, 5, 6, 7, 8, 9, 10)

    def __post_init__(self) -> None:
        if (self.constraints is None) == (self.sampler is None):
            raise InputError("exactly one of constraints/sampler must be given")
        if self.sampler is not None and self.dim != 2:
            raise InputError("the circle sampler lives in dimension 2")
        if self.sampler is not None:
            if not self.levels or any(l < 1 for l in self.levels):
                raise InputError("levels must be positive")
            if list(self.levels) != sorted(set(self.levels)):
                raise InputError("levels must be strictly increasing")


@dataclass
class SipReport:
    verdict: str  # OPTIMAL | NOT_OPTIMAL | INCONCLUSIVE
    levels: tuple[int, ...]
    residuals: tuple[Fraction, ...]
    multipliers: tuple[tuple[Fraction, Fraction], ...] | None = None
    # (parameter u, coefficient) pairs for the sampled case,
    # (constraint index, coefficient) pairs for the finite case
    improving_ray: Vec | None = None


def _active_cone(
    constraints: Sequence[tuple[Vec, Fraction]],
    values: Sequence[Fraction],
    indices: Sequence[int],
    dim: int,
) -> tuple[list[int], ConeGen]:
    """The indices i among indices whose constraint (a_i, b_i) is active,
    values[i] = <a_i, x> = b_i, and the cone of their a_i."""
    active = [i for i in indices if values[i] == constraints[i][1]]
    return active, cone(dim, [constraints[i][0] for i in active], minimal=False)


def check_sip_linear(instance: LinearSIPInstance) -> SipReport:
    """Classical test -cost in cone{a_t : t active at x}, run exactly.

    Finite constraints: a definite optimal/not-optimal verdict (a violated
    test yields an improving feasible ray). Sampled constraints: one exact
    residual per level (sup-norm distance from -cost to the sampled active
    cone); residuals cannot increase along nested levels, and a zero residual
    at the finest level certifies optimality for the full program when the
    sampler is dense enough to contain every active parameter, which holds
    for the circle sampler since it keeps u = 0 at every level.

    The levels nest, so only the finest level L is sampled, with one
    <a, x> per point; level l is its slice of every 2^(L-l)-th point, checked
    for feasibility and then given its active cone, level by level. A finest
    level above the sampler's size cap raises SizingError before any point is
    built.
    """
    x = vec(instance.point)
    c = vec(instance.cost)
    minus_c = vscale(Fraction(-1), c)
    if instance.constraints is not None:
        cons = instance.constraints
        values = []
        for i, (a, b) in enumerate(cons):
            values.append(dot(a, x))
            if values[-1] > b:
                raise PreconditionError(f"candidate point violates constraint {i}")
        active, k = _active_cone(cons, values, range(len(cons)), len(x))
        mults = cone_multipliers(k, minus_c)
        if mults is not None:
            pairs = tuple(
                (Fraction(i), m) for i, m in zip(active, mults) if m != 0
            )
            return SipReport(OPTIMAL, (), (Fraction(0),), multipliers=pairs)
        ray = _descent_ray(cons, active, c, x)
        return SipReport(NOT_OPTIMAL, (), (), improving_ray=ray)
    finest = instance.levels[-1]
    pts = instance.sampler.points(finest)
    values = [dot(a, x) for a, _ in pts]
    residuals: list[Fraction] = []
    for level in instance.levels:
        indices = range(0, len(pts), 2 ** (finest - level))
        if any(values[i] > pts[i][1] for i in indices):
            raise PreconditionError(
                f"candidate point violates a level-{level} sampled constraint"
            )
        active, k = _active_cone(pts, values, indices, len(x))
        dist, _ = sup_distance_to_cone(minus_c, k)
        if residuals and dist > residuals[-1]:
            raise InternalCheckError("residual increased along nested levels")
        residuals.append(dist)
    if residuals[-1] == 0:
        mults = cone_multipliers(k, minus_c)
        if mults is None:
            raise InternalCheckError("zero residual but -c has no cone multipliers")
        half = 2 ** (finest - 1)
        pairs = []
        for idx, m in zip(active, mults):
            if m != 0:
                u = Fraction(idx - half, half)
                pairs.append((u, m))
        return SipReport(
            OPTIMAL, tuple(instance.levels), tuple(residuals), multipliers=tuple(pairs)
        )
    return SipReport(INCONCLUSIVE, tuple(instance.levels), tuple(residuals))


def _descent_ray(constraints, active: list[int], c: Vec, x: Vec) -> Vec:
    """A feasible direction with <c, d> < 0, certifying non-optimality."""
    d = len(x)
    rows = [HalfSpace(constraints[i][0], Fraction(0)) for i in active]
    for k in range(d):
        e = tuple(Fraction(1) if j == k else Fraction(0) for j in range(d))
        rows.append(HalfSpace(e, Fraction(1)))
        rows.append(HalfSpace(vscale(Fraction(-1), e), Fraction(1)))
    res = lp_solve(vscale(Fraction(-1), c), polyhedron(d, rows))
    if res.status != lp.OPTIMAL or res.value <= 0:
        raise InternalCheckError(
            "active-cone test failed but no descent direction exists"
        )
    return primitive_ints(res.point)


# --- quasi-convex programs ------------------------------------------------------


@dataclass(frozen=True)
class QCProgram:
    objective: PolyhedralFunction
    constraints: SublevelOracleQC
    point: Vec

    def __post_init__(self) -> None:
        if self.objective.dim != self.constraints.dim:
            raise InputError("objective and constraint dimensions differ")
        if len(self.point) != self.constraints.dim:
            raise InputError("candidate point dimension mismatch")


@dataclass
class QCOptimalityReport:
    verdict: str  # CONDITION_HOLDS | NOT_OPTIMAL
    epsilon: Fraction
    certificate: Certificate | None = None
    outer_verified: bool | None = None
    improving_point: Vec | None = None
    objective_at_point: Fraction | None = None


def check_necessary_qc(
    prog: QCProgram, eps, samples_per_axis: int = 5
) -> QCOptimalityReport:
    """Check the necessary condition theta in d f0(x) + N at a feasible x.

    A failed membership certifies x is not a minimizer (the condition is
    necessary); a passing one is reported as condition-holds, with the
    normal-cone part of the decomposition additionally checked against the
    sampled gradient outer cone.
    """
    e = rat(eps)
    x = vec(prog.point)
    fx = evaluate(prog.objective, x)
    if fx == POS_INF:
        raise PreconditionError("candidate point is outside dom f0")
    kres = qc_sublevel_normal_cone(prog.constraints, x, e)
    sub0 = eps_subdifferential(prog.objective, x, 0)
    cert = _membership_certificate(sub0, kres.cone)
    if cert is None:
        improving = _qc_improving_point(prog, fx)
        return QCOptimalityReport(
            NOT_OPTIMAL, e, improving_point=improving, objective_at_point=fx
        )
    fc = frechet_outer_cone(prog.constraints, x, e, samples_per_axis)
    outer_ok = all(cone_contains(fc.cone, r) for r in kres.cone.rays) and (
        all(c == 0 for c in cert.q) or cone_contains(fc.cone, cert.q)
    )
    return QCOptimalityReport(
        CONDITION_HOLDS,
        e,
        certificate=cert,
        outer_verified=outer_ok,
        objective_at_point=fx,
    )


def _qc_improving_point(prog: QCProgram, fx: Fraction) -> Vec | None:
    """Best-effort feasible point with a strictly smaller objective, searched
    on a small lattice around the candidate."""
    x = vec(prog.point)
    d = len(x)
    steps = [Fraction(j, 2) for j in range(-4, 5)]
    best = None
    best_val = fx
    for combo in itertools.product(steps, repeat=d):
        y = vadd(x, combo)
        if any(m.evaluator.value(y) > 0 for m in prog.constraints.members):
            continue
        v = evaluate(prog.objective, y)
        if v != POS_INF and v < best_val:
            best, best_val = y, v
    return best
