"""Normal cones to sublevel sets of suprema, built from eps-subdifferentials.

The central construction: for f = sup_t f_t with x in [f <= 0] and eps > 0,

    N_[f<=0](x) = [ cl conv( A_eps union B_eps ) ]_infinity

where A_eps collects s * d_{eps/s} f_t(x) over s > 0 and the proper members t
with s*f_t(x) >= -eps, and B_eps collects the eps-normal sets of the improper
members' domains. Every contribution is a polyhedron, so the hull of the
union has recession cone cone(rays of all contributions), and each cone here
is formed directly from those rays; no hull is built.

For polyhedral data the recession cone of s * d_{eps/s} f_t(x), and of the
eps-normal set of an improper member's domain, is N_{dom f_t}(x) whatever s
and eps are, so one ray collection serves both evaluation modes: the rays of
N_{dom f_t}(x) for every member, read off the domain rows active at x
(functions.normal_cone_rays), and the rays through d_0 f_t(x) of the active
members (the s -> infinity limit). d_0 f_t(x) = conv{slopes of the pieces
active at x} + N_{dom f_t}(x) (Rockafellar, Convex Analysis, Thm. 23.8), so
those rays are read off the active pieces as well, unless their cone
contains a line: such a cone has many minimal generating sets, and the one
reported is pruned from the generators of d_0 f_t(x) itself
(functions.exact_subdifferential). Neither collection takes eps, so the cone
is the same at every eps, and the intersection form over an eps-list forms
it once.
The modes differ only in what they check and report:

* exact-affine: every proper member must be one affine piece on the whole
  space; the result is exact by construction.
* sampled: any polyhedral members; the s-grid is reported but cannot change
  the cone, and the result is flagged exact when the independent polyhedral
  oracle agrees.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Sequence, Union

from .errors import InputError, InternalCheckError, PreconditionError, RefusedError, SizingError
from .functions import (
    EMPTY_INTERVAL,
    ExtendedFunction,
    ImproperFunction,
    Interval,
    PolyhedralFunction,
    QuasiConvex1D,
    _interval_difference_point,
    _levels_around,
    eps_normal_set,
    evaluate,
    exact_subdifferential,
    interval_equal,
    normal_cone_rays,
    qc1d_closed_hull,
    qc1d_sublevel,
    sublevel_set,
)
from .geometry import (
    ConeGen,
    DEFAULT_ROW_CAP,
    HalfSpace,
    NEG_INF,
    POS_INF,
    PolyhedronH,
    Vec,
    cone,
    cone_equal,
    cone_rays,
    dot,
    format_rat,
    inequality_cone,
    intersect,
    is_empty_poly,
    is_pointed,
    lp,
    lp_solve,
    poly_contains_point,
    poly_equal,
    polyhedron,
    rat,
    vadd,
    vec,
    vscale,
    vsub,
    zero_vec,
)

Member = ExtendedFunction


@dataclass(frozen=True)
class SupFamily:
    """Finite family (id, member) defining f = sup_t f_t."""

    dim: int
    members: tuple[tuple[str, Member], ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise InputError("a family needs at least one member")
        seen = set()
        for ident, f in self.members:
            if ident in seen:
                raise InputError(f"duplicate member id {ident!r}")
            seen.add(ident)
            if f.dim != self.dim:
                raise InputError(f"member {ident!r} has dim {f.dim}, expected {self.dim}")

    def functions(self) -> list[Member]:
        return [f for _, f in self.members]

    def proper_items(self) -> list[tuple[str, PolyhedralFunction]]:
        return [(i, f) for i, f in self.members if isinstance(f, PolyhedralFunction)]

    def improper_items(self) -> list[tuple[str, ImproperFunction]]:
        return [(i, f) for i, f in self.members if isinstance(f, ImproperFunction)]


def family_from_functions(fns: Sequence[Member]) -> SupFamily:
    if not fns:
        raise InputError("a family needs at least one member")
    return SupFamily(fns[0].dim, tuple((f"f{i}", f) for i, f in enumerate(fns)))


def evaluate_sup(family: SupFamily, x: Vec):
    best = NEG_INF
    for _, f in family.members:
        v = evaluate(f, x)
        if v == POS_INF:
            return POS_INF
        if v == NEG_INF:
            continue
        if best == NEG_INF or v > best:
            best = v
    return best


def _positive_eps(eps) -> Fraction:
    e = rat(eps)
    if e <= 0:
        raise InputError("eps must be positive")
    return e


def reach_weights(family: SupFamily, x: Vec, eps) -> dict[str, Fraction]:
    """Per proper member: 1 on the near-attaining set, else
    -eps / (2 f_t(x) - 2 f(x) + eps), always in (0, 1]."""
    e = _positive_eps(eps)
    fx = evaluate_sup(family, x)
    if fx == POS_INF or fx == NEG_INF:
        raise PreconditionError("f(x) must be finite")
    out: dict[str, Fraction] = {}
    for ident, f in family.members:
        if not isinstance(f, PolyhedralFunction):
            continue
        v = evaluate(f, x)
        if v == POS_INF:
            raise PreconditionError(f"x is outside dom of member {ident!r}")
        if v >= fx - e:
            out[ident] = Fraction(1)
        else:
            out[ident] = -e / (2 * v - 2 * fx + e)
    return out


@dataclass(frozen=True)
class SGrid:
    """Finite positive grid of scaling values s."""

    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if not self.values:
            raise InputError("grid must be nonempty")
        for a in self.values:
            if a <= 0:
                raise InputError("grid values must be positive")
        for a, b in zip(self.values, self.values[1:]):
            if not a < b:
                raise InputError("grid values must be strictly increasing")

    @staticmethod
    def geometric(base: int = 2, min_exp: int = -10, max_exp: int = 10) -> "SGrid":
        """base^k for min_exp <= k <= max_exp. The values take about
        bit_length(base) * sum|k| bits; past DEFAULT_ROW_CAP the grid is
        refused before any power is formed."""
        if base < 2 or min_exp > max_exp:
            raise InputError("need base >= 2 and min_exp <= max_exp")

        def tri(n: int) -> int:
            return n * (n + 1) // 2

        abs_sum = (
            tri(max(max_exp, 0)) - tri(max(min_exp - 1, 0))
            + tri(max(-min_exp, 0)) - tri(max(-max_exp - 1, 0))
        )
        bits = base.bit_length() * abs_sum
        if bits > DEFAULT_ROW_CAP:
            raise SizingError(
                f"grid {base}:{min_exp}:{max_exp} needs about {bits} bits, "
                f"more than the cap {DEFAULT_ROW_CAP}"
            )
        return SGrid(tuple(Fraction(base) ** k for k in range(min_exp, max_exp + 1)))

    @staticmethod
    def from_values(values: Iterable) -> "SGrid":
        return SGrid(tuple(sorted({rat(v) for v in values})))


DEFAULT_GRID = SGrid.geometric()

MODE_EXACT_AFFINE = "exact-affine"
MODE_SAMPLED = "sampled"


@dataclass(frozen=True)
class FormulaResult:
    cone: ConeGen
    epsilon: Fraction
    mode: str  # "exact-affine" | "sampled" | "dom" | "qc"
    exact: bool
    grid: SGrid | None = None
    grid_stable: bool | None = None
    oracle_agrees: bool | None = None

    def with_oracle_agreement(self, agrees: bool) -> FormulaResult:
        """This result as certify=True would have returned it, given whether
        its cone equals the oracle's (a verification verdict of EQUAL): a
        sampled result takes exact and oracle_agrees from that answer; any
        other is returned as it is."""
        if self.mode != MODE_SAMPLED:
            return self
        return replace(self, exact=agrees, oracle_agrees=agrees)


def _is_plain_affine(f: Member) -> bool:
    return (
        isinstance(f, PolyhedralFunction)
        and len(f.pieces) == 1
        and not f.domain.halfspaces
    )


def _sublevel_rays(family: SupFamily, x: Vec) -> list[Vec]:
    """Rays of every contribution to A_eps union B_eps, at any eps; their
    cone is N_[f<=0](x).

    Every member adds the rays of N_{dom f}(x): none on the whole space
    (checked first, it is the common case). An active proper member adds the
    rays through d_0 f(x) = conv{slopes of the pieces active at x} + N_D(x)
    (Rockafellar, Convex Analysis, Thm. 23.8), pruned per member. Their cone
    is that of the nonzero active slopes and the rays of N_D(x). A pointed
    cone has one minimal generating set, its extreme rays, and cone() keeps
    exactly those whether it is given these directions or the converted
    d_0 f(x); one direction (a plain affine member) needs no pointedness LP.
    A cone with a line has many, and the generators cone() keeps depend on
    the set it is given, so that case prunes the generators of d_0 f(x)
    itself (functions.exact_subdifferential).
    """
    dim = family.dim
    rays: list[Vec] = []
    for _, f in family.members:
        dom_rays = normal_cone_rays(f.domain, x) if f.domain.halfspaces else ()
        rays.extend(dom_rays)
        if isinstance(f, PolyhedralFunction) and evaluate(f, x) == 0:
            dirs = [p.slope for p in f.pieces if p.value(x) == 0 and any(p.slope)]
            dirs.extend(dom_rays)
            if len(dirs) > 1 and not is_pointed(dim, dirs):
                sub0 = exact_subdifferential(f, x)
                dirs = list(sub0.points) + list(sub0.rays)
            rays.extend(cone(dim, dirs).rays)
    return rays


def _checked_point(family: SupFamily, x: Vec, eps, outside: str):
    """(eps, point, f(x)) after the shared checks; outside: the off-domain text."""
    e = _positive_eps(eps)
    x = vec(x)
    if len(x) != family.dim:
        raise InputError("point dimension mismatch")
    fx = evaluate_sup(family, x)
    if fx == POS_INF:
        raise PreconditionError(outside)
    if fx == NEG_INF:
        raise PreconditionError("f(x) must be finite: the family needs a proper member at x")
    return e, x, fx


def _check_sublevel_input(family: SupFamily, x: Vec, eps, mode: str):
    """Validate a sublevel formula call: (eps, point, mode resolved from auto)."""
    e, x, fx = _checked_point(family, x, eps, "x is outside the domain of some member")
    if fx > 0:
        raise PreconditionError(f"x is outside [f <= 0]: f(x) = {fx}")
    affine_ok = all(
        _is_plain_affine(f) or isinstance(f, ImproperFunction) for _, f in family.members
    )
    if mode == "auto":
        mode = MODE_EXACT_AFFINE if affine_ok else MODE_SAMPLED
    elif mode == MODE_EXACT_AFFINE and not affine_ok:
        raise InputError(
            "exact-affine mode needs every proper member to be a single "
            "affine piece on the whole space"
        )
    elif mode not in (MODE_EXACT_AFFINE, MODE_SAMPLED):
        raise InputError(f"unknown mode {mode!r}")
    return e, x, mode


def _sublevel_result(family: SupFamily, x: Vec, coneg: ConeGen, e, mode, grid, certify):
    """The FormulaResult for cone coneg at eps e in a resolved mode."""
    if mode == MODE_EXACT_AFFINE:
        return FormulaResult(coneg, e, MODE_EXACT_AFFINE, True)
    agrees: bool | None = None
    if certify:
        from . import oracle as _oracle  # late import; the oracle never imports back

        target = _oracle.sup_sublevel_polyhedron(family.functions())
        agrees = cone_equal(coneg, _oracle.polyhedron_normal_cone(target, x))
    grid = grid if grid is not None else DEFAULT_GRID
    return FormulaResult(coneg, e, MODE_SAMPLED, bool(agrees), grid, True, agrees)


def sublevel_normal_cone_formula(
    family: SupFamily,
    x: Vec,
    eps,
    grid: SGrid | None = None,
    mode: str = "auto",
    certify: bool = True,
) -> FormulaResult:
    """Normal cone to [sup f_t <= 0] at x: the cone of _sublevel_rays.

    The mode picks only the validation and the reported fields. Exact-affine
    checks that every proper member is plain affine and is exact by
    construction. In sampled mode grid_stable is True by construction: every contribution
    s * d_{eps/s} f_t(x) has recession cone N_{dom f_t}(x) whatever s is, so
    no grid, coarse or refined, changes the cone. certify=True compares the
    cone with the oracle's; exact is that comparison.
    """
    e, x, mode = _check_sublevel_input(family, x, eps, mode)
    coneg = cone(family.dim, _sublevel_rays(family, x))
    return _sublevel_result(family, x, coneg, e, mode, grid, certify)


@dataclass(frozen=True)
class IntersectionResult:
    cone: ConeGen
    per_eps: tuple[FormulaResult, ...]
    stabilized: bool


def sublevel_normal_cone_intersection(
    family: SupFamily,
    x: Vec,
    eps_list: Sequence,
    grid: SGrid | None = None,
    mode: str = "auto",
) -> IntersectionResult:
    """The intersection form: recession of the intersection of the per-eps
    hulls, which all contain the origin, so it is the intersection of the
    per-eps cones (Rockafellar, Convex Analysis, Cor. 8.3.3). Those cones
    are one cone C, as the ray collection is eps-free (module docstring): C
    is formed once, after the checks at the first eps (a later non-positive
    eps is refused after them, as in a per-eps loop), and every per-eps
    result carries it. A pointed C is the intersection as it is: C°° = C
    (Thm. 14.1), and its one minimal generating set, the extreme rays, is
    what cone() keeps. A C with a line has many, and its generators stay
    those of the meet of its polar, inequality_cone(cone_rays(C)).
    stabilized (dropping the last eps keeps the intersection) holds iff
    there is an eps to drop: len > 1."""
    eps_vals = [rat(v) for v in eps_list]
    if not eps_vals:
        raise InputError("need at least one eps value")
    if len(set(eps_vals)) != len(eps_vals):
        raise InputError("eps values must be distinct")
    e, x, mode = _check_sublevel_input(family, x, eps_vals[0], mode)
    coneg = cone(family.dim, _sublevel_rays(family, x))
    per_eps = tuple(
        _sublevel_result(family, x, coneg, _positive_eps(v), mode, grid, False) for v in eps_vals
    )
    if not is_pointed(family.dim, coneg.rays):
        coneg = inequality_cone(cone_rays(coneg.rays, family.dim), family.dim)
    return IntersectionResult(coneg, per_eps, len(eps_vals) > 1)


def strict_sublevel_normal_cone(
    family: SupFamily,
    x: Vec,
    eps,
    grid: SGrid | None = None,
    mode: str = "auto",
    certify: bool = True,
) -> FormulaResult:
    """Normal cone to cl[f < 0] at x. Requires a strictly feasible point with
    finite value; the closure then coincides with [f <= 0] and the sublevel
    construction applies unchanged, certify included."""
    if not family.proper_items():
        raise PreconditionError("[f < 0] meets f^{-1}(R) only if some member is proper")
    pieces = [
        HalfSpace(p.slope, -p.intercept) for _, f in family.proper_items() for p in f.pieces
    ]
    domains = [h for _, f in family.members for h in f.domain.halfspaces]
    if not _mixed_system_nonempty(family.dim, pieces, domains):
        raise RefusedError("no strictly feasible point: [f < 0] never meets f^{-1}(R)")
    return sublevel_normal_cone_formula(
        family, x, eps, grid=grid, mode=mode, certify=certify
    )


def dom_sup_normal_cone(
    family: SupFamily,
    x: Vec,
    eps,
    alpha: Union[dict, str, None] = None,
) -> FormulaResult:
    """Normal cone to dom(sup f_t) at x from weighted eps-subdifferentials.

    Each proper member contributes alpha_t * d_{eps/alpha_t} f_t(x), each
    improper member the eps-normal set of its domain; the cone is the
    recession of the hull of all contributions. Weights must dominate the
    reach weights; alpha=None uses them directly, alpha="ones" uses 1 for
    every member (valid since reach weights never exceed 1). Every
    contribution has recession cone N_{dom f_t}(x) whatever its weight, so
    the weights are checked but do not move the cone: it is formed from the
    rays of N_{dom f_t}(x), none for a member on the whole space.
    """
    e, x, _ = _checked_point(family, x, eps, "x is outside dom(sup f_t)")
    weights = reach_weights(family, x, e)
    if alpha is None:
        chosen = weights
    elif alpha == "ones":
        chosen = {ident: Fraction(1) for ident in weights}
    elif isinstance(alpha, dict):
        chosen = {ident: rat(v) for ident, v in alpha.items()}
        if set(chosen) != set(weights):
            raise InputError("alpha must assign a weight to exactly the proper members")
    else:
        raise InputError("alpha must be None, 'ones', or a dict of weights")
    for ident, w in weights.items():
        if chosen[ident] < w:
            raise PreconditionError(
                f"alpha[{ident!r}] = {chosen[ident]} is below the reach weight {w}"
            )
    rays = [
        r for _, f in family.members if f.domain.halfspaces for r in normal_cone_rays(f.domain, x)
    ]
    return FormulaResult(cone(family.dim, rays), e, "dom", True)


# --- quasi-convex members -----------------------------------------------------


@dataclass(frozen=True)
class AffineComposed1D:
    """x -> profile(<direction, x> + shift) with a 1-D quasi-convex profile."""

    direction: Vec
    shift: Fraction
    profile: QuasiConvex1D

    def __post_init__(self) -> None:
        if all(c == 0 for c in self.direction):
            raise InputError("direction must be nonzero")

    @property
    def dim(self) -> int:
        return len(self.direction)

    def value(self, x: Vec):
        return self.value_at(dot(self.direction, x) + self.shift)

    def value_at(self, u: Fraction):
        """The value at any x with <direction, x> + shift = u."""
        return self.profile.value(u)

    def zero_sublevel_interval(self) -> Interval:
        return qc1d_sublevel(self.profile, 0)

    def hull_zero_sublevel_interval(self) -> Interval:
        return qc1d_sublevel(qc1d_closed_hull(self.profile), 0)


def _poly_eval(coeffs: Sequence[Fraction], u: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * u + c
    return acc


@dataclass(frozen=True)
class SmoothQCMember:
    """x -> p(<direction, x> + shift) with p a certified monotone polynomial.

    The certificate is syntactic: p' may use only even powers, with all
    coefficients nonnegative (increasing) or nonpositive (decreasing) and not
    all zero. Then the zero-sublevel set is the exact halfspace cut at the
    declared root of p.
    """

    direction: Vec
    shift: Fraction
    coeffs: tuple[Fraction, ...]
    root: Fraction

    def __post_init__(self) -> None:
        if all(c == 0 for c in self.direction):
            raise InputError("direction must be nonzero")
        if len(self.coeffs) < 2:
            raise InputError("the polynomial must be nonconstant")
        if _poly_eval(self.coeffs, self.root) != 0:
            raise InputError(f"p(root) = {_poly_eval(self.coeffs, self.root)}, expected 0")
        deriv = [k * c for k, c in enumerate(self.coeffs)][1:]
        if any(c != 0 for c in deriv[1::2]):
            raise InputError("monotonicity certificate failed: odd-power derivative terms")
        evens = deriv[0::2]
        if all(c == 0 for c in evens):
            raise InputError("the polynomial must be nonconstant")
        if not (all(c >= 0 for c in evens) or all(c <= 0 for c in evens)):
            raise InputError("monotonicity certificate failed: mixed-sign derivative terms")

    @property
    def dim(self) -> int:
        return len(self.direction)

    @property
    def increasing(self) -> bool:
        deriv = [k * c for k, c in enumerate(self.coeffs)][1:]
        return all(c >= 0 for c in deriv[0::2])

    def value(self, x: Vec) -> Fraction:
        return self.value_at(dot(self.direction, x) + self.shift)

    def value_at(self, u: Fraction) -> Fraction:
        """The value at any x with <direction, x> + shift = u."""
        return _poly_eval(self.coeffs, u)

    def gradient(self, x: Vec) -> Vec:
        u = dot(self.direction, x) + self.shift
        deriv = [k * c for k, c in enumerate(self.coeffs)][1:]
        return vscale(_poly_eval(deriv, u), self.direction)

    def zero_sublevel(self) -> PolyhedronH:
        d = self.dim
        if self.increasing:
            return polyhedron(d, [HalfSpace(self.direction, self.root - self.shift)])
        neg = vscale(Fraction(-1), self.direction)
        return polyhedron(d, [HalfSpace(neg, self.shift - self.root)])

    def zero_sublevel_interval(self) -> Interval:
        if self.increasing:
            return Interval(None, False, self.root, True)
        return Interval(self.root, True, None, False)

    def hull_zero_sublevel_interval(self) -> Interval:
        return self.zero_sublevel_interval()


QCEvaluator = Union[AffineComposed1D, SmoothQCMember]


@dataclass(frozen=True)
class QCMember:
    ident: str
    sublevel: PolyhedronH
    evaluator: QCEvaluator


@dataclass(frozen=True)
class SublevelOracleQC:
    """Quasi-convex members with declared polyhedral zero-sublevel sets.

    Construction checks exactly that each declared set equals its
    evaluator's zero-sublevel set (_check_declared_sublevel) and rejects any
    mismatch. A declared set is closed, so an evaluator whose sublevel is
    not closed is rejected too, and every accepted family has closed member
    sublevels: cl[f <= 0] = cap_t [f_t <= 0] = cap_t cl[f_t <= 0] (cc3).
    """

    dim: int
    members: tuple[QCMember, ...]

    def __post_init__(self) -> None:
        if not self.members:
            raise InputError("need at least one member")
        seen = set()
        for m in self.members:
            if m.ident in seen:
                raise InputError(f"duplicate member id {m.ident!r}")
            seen.add(m.ident)
            if m.sublevel.dim != self.dim or m.evaluator.dim != self.dim:
                raise InputError(f"member {m.ident!r} dimension mismatch")
        for m in self.members:
            _check_declared_sublevel(m)


def _check_declared_sublevel(m: QCMember) -> None:
    """Raise InputError at the first candidate point where m's declared
    sublevel D and its evaluator's sublevel E = {y : u in I} disagree, with
    u = <d, y> + shift and I = zero_sublevel_interval(); accept when none does.

    E is a cylinder: it contains every line orthogonal to d through its
    points. A row of D with normal n not parallel to d is valid on D, so a
    nonempty D has no such line and is not E. A point y of D (one LP) and
    y + k*w, with w the part of n orthogonal to d and k the least integer
    that breaks the row, share their u, and one of the two is a witness.
    Otherwise D = {y : u in J}, with J read off the rows, and E differs from
    D iff I from J, at one of _levels_around the finite ends of I and J,
    the ends tried first; the level u stands for y = (u - shift) d / <d, d>.
    """
    ev = m.evaluator
    d, sub = ev.direction, m.sublevel
    dd = dot(d, d)
    iv = ev.zero_sublevel_interval()
    jv = Interval(None, False, None, False)
    candidates: list[Vec] | None = None
    for h in sub.halfspaces:
        lam = dot(h.normal, d) / dd
        w = vsub(h.normal, vscale(lam, d))
        if any(w):
            res = lp_solve(zero_vec(sub.dim), sub)
            if res.status == lp.INFEASIBLE:
                jv = EMPTY_INTERVAL
            else:
                candidates = [res.point, _step_past(res.point, w, h)]
            break
        if lam:
            bound = h.offset / lam + ev.shift
            jv = jv.intersect(
                Interval(None, False, bound, True) if lam > 0 else Interval(bound, True, None, False)
            )
        elif h.offset < 0:
            jv = EMPTY_INTERVAL
    if candidates is None:
        ends = {e for i in (iv, jv) if not i.is_empty for e in (i.lo, i.hi) if e is not None}
        levels = sorted(_levels_around(ends), key=lambda u: (u not in ends, u))
        candidates = [vscale((u - ev.shift) / dd, d) for u in levels]
    for y in candidates:
        val = ev.value_at(dot(d, y) + ev.shift)
        inside = poly_contains_point(sub, y)
        if inside != (val <= 0):
            raise _disagreement(m, y, val, inside)


def _step_past(base: Vec, step: Vec, h: HalfSpace) -> Vec:
    """base + k*step for the least integer k >= 0 with <h.normal, .> > h.offset;
    <h.normal, step> must be positive unless base already breaks h."""
    slack = h.offset - dot(h.normal, base)
    if slack < 0:
        return base
    return vadd(base, vscale(slack // dot(h.normal, step) + 1, step))


def _disagreement(m: QCMember, y: Vec, val, inside: bool) -> InputError:
    probe = ", ".join(format_rat(c) for c in y)
    return InputError(
        f"member {m.ident!r}: declared sublevel and evaluator disagree "
        f"at ({probe}) (value {val}, declared {'inside' if inside else 'outside'})"
    )


# --- closure compatibility ----------------------------------------------------


@dataclass(frozen=True)
class CcReport:
    verdict: str  # "cc2-holds" | "cc3-holds" | "fails"
    cc2_holds: bool
    cc3_holds: bool
    witness: object | None = None


def _interval_rows(direction: Vec, shift: Fraction, iv: Interval) -> list[HalfSpace]:
    """Rows of {x : <direction,x>+shift in cl iv}."""
    if iv.is_empty:
        return [HalfSpace(zero_vec(len(direction)), Fraction(-1))]
    rows = []
    if iv.lo is not None:
        rows.append(HalfSpace(vscale(Fraction(-1), direction), shift - iv.lo))
    if iv.hi is not None:
        rows.append(HalfSpace(direction, iv.hi - shift))
    return rows


def _mixed_system_nonempty(dim: int, strict, nonstrict) -> bool:
    """Is {x : strict rows < offsets, nonstrict rows <= offsets} nonempty?"""
    rows = [HalfSpace(h.normal + (Fraction(1),), h.offset) for h in strict]
    rows.extend(HalfSpace(h.normal + (Fraction(0),), h.offset) for h in nonstrict)
    rows.append(HalfSpace(zero_vec(dim) + (Fraction(1),), Fraction(1)))
    res = lp_solve(zero_vec(dim) + (Fraction(1),), polyhedron(dim + 1, rows))
    return res.status == lp.OPTIMAL and res.value > 0


def _poly_difference_witness(big: PolyhedronH, small: PolyhedronH) -> Vec | None:
    """A point of big outside small, or None when big is inside small: the
    maximizer of a row of small over big that breaks it, or a point of big
    stepped along an unbounded ray past the row."""
    if is_empty_poly(big):
        return None
    if is_empty_poly(small):
        res = lp_solve(zero_vec(big.dim), big)
        return res.point
    for h in small.halfspaces:
        res = lp_solve(h.normal, big)
        if res.status == lp.UNBOUNDED:
            return _step_past(res.point, res.ray, h)
        if res.status == lp.OPTIMAL and res.value > h.offset:
            return res.point
    return None


def cc_condition_check(family_or_profiles) -> CcReport:
    """Closure compatibility of a family: does cl[f <= 0] match the
    intersection of the member sublevel closures (cc3) and of the lsc-hull
    sublevels (cc2)?

    Accepts a SupFamily, a list of 1-D quasi-convex profiles (exact interval
    arithmetic), or a SublevelOracleQC (exact halfspace arithmetic on the
    evaluators). A SupFamily satisfies both without a computation: its
    members are polyhedral, hence lower semicontinuous, so each is its own
    lsc hull and cl[f <= 0] = [f <= 0] = cap_t [f_t <= 0], an intersection
    of closed sets. A SublevelOracleQC satisfies cc3 by construction (its
    member sublevels are the closed declared sets), so only cc2 is
    computed, against the sublevels of the evaluators' lsc hulls; both
    sides are cut out by the end rows of closed intervals in each u.
    """
    if isinstance(family_or_profiles, SupFamily):
        return CcReport("cc2-holds", True, True)

    if isinstance(family_or_profiles, SublevelOracleQC):
        qc = family_or_profiles
        rows: list[HalfSpace] = []
        rhs2_parts: list[PolyhedronH] = []
        for m in qc.members:
            ev = m.evaluator
            rows.extend(_interval_rows(ev.direction, ev.shift, ev.zero_sublevel_interval()))
            hull = ev.hull_zero_sublevel_interval()
            rhs2_parts.append(polyhedron(qc.dim, _interval_rows(ev.direction, ev.shift, hull)))
        lhs = polyhedron(qc.dim, rows)
        rhs2 = intersect(*rhs2_parts)
        if poly_equal(lhs, rhs2):
            return CcReport("cc2-holds", True, True)
        return CcReport("cc3-holds", False, True, _poly_difference_witness(rhs2, lhs))

    profiles = list(family_or_profiles)
    if not profiles or not all(isinstance(q, QuasiConvex1D) for q in profiles):
        raise InputError(
            "expected a SupFamily, a SublevelOracleQC, or 1-D quasi-convex profiles"
        )
    raw = Interval(None, False, None, False)
    rhs3_iv = Interval(None, False, None, False)
    rhs2_iv = Interval(None, False, None, False)
    for q in profiles:
        iv = qc1d_sublevel(q, 0)
        raw = raw.intersect(iv)
        rhs3_iv = rhs3_iv.intersect(iv.closure())
        rhs2_iv = rhs2_iv.intersect(qc1d_sublevel(qc1d_closed_hull(q), 0))
    lhs_iv = raw.closure()
    cc3 = interval_equal(lhs_iv, rhs3_iv)
    cc2 = interval_equal(lhs_iv, rhs2_iv)
    if cc2:
        return CcReport("cc2-holds", True, True)
    if cc3:
        return CcReport("cc3-holds", False, True, _interval_difference_point(rhs2_iv, lhs_iv))
    return CcReport("fails", False, False, _interval_difference_point(rhs3_iv, lhs_iv))


def qc_sublevel_normal_cone(qc: SublevelOracleQC, x: Vec, eps) -> FormulaResult:
    """Normal cone to the intersection of quasi-convex zero-sublevel sets:
    the recession of the hull of the per-member eps-normal sets, read off
    the declared rows active at x. The formula needs closure compatibility
    (cc3), which every SublevelOracleQC has: construction checks that each
    member's sublevel equals its closed declared polyhedron."""
    e = _positive_eps(eps)
    x = vec(x)
    for m in qc.members:
        if not poly_contains_point(m.sublevel, x):
            raise PreconditionError(f"x is outside the sublevel set of member {m.ident!r}")
    rays = [r for m in qc.members for r in normal_cone_rays(m.sublevel, x)]
    return FormulaResult(cone(qc.dim, rays), e, "qc", True)


# --- sampled outer estimate and the inclusion certificate ----------------------


@dataclass(frozen=True)
class FrechetCone:
    cone: ConeGen
    lattice_points: int
    gradient_hits: int


def frechet_outer_cone(
    qc: SublevelOracleQC, x: Vec, eps, samples_per_axis: int = 5
) -> FrechetCone:
    """Outer estimate of the normal cone at x: gradients of near-active
    smooth members sampled on a lattice in the sup-norm eps-ball around x."""
    e = _positive_eps(eps)
    if samples_per_axis < 2:
        raise InputError("need at least two samples per axis")
    x = vec(x)
    for m in qc.members:
        if not isinstance(m.evaluator, SmoothQCMember):
            raise InputError("the outer estimate needs smooth members (gradients)")
    offsets = [
        -e + 2 * e * Fraction(j, samples_per_axis - 1) for j in range(samples_per_axis)
    ]
    rays: list[Vec] = []
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


@dataclass(frozen=True)
class InclusionWitness:
    generator: Vec
    y: Vec
    lam: Fraction
    u: Vec
    p: Vec
    distance: Fraction


@dataclass(frozen=True)
class InclusionReport:
    rho: Fraction
    witnesses: tuple[InclusionWitness, ...]
    unresolved: tuple[Vec, ...]  # generators with no witness found: inconclusive

    @property
    def all_found(self) -> bool:
        return not self.unresolved


def _subdifferential_parts(f, y: Vec):
    """(conv part, ray part) of d_0 f(y); None when y is outside dom f."""
    if isinstance(f, SmoothQCMember):
        return [f.gradient(y)], []
    sub = exact_subdifferential(f, y)
    if sub.is_empty:
        return None
    return list(sub.points), list(sub.rays)


def _cone_witness_lp(g: Vec, conv_part: list[Vec], ray_part: list[Vec], rho: Fraction):
    """Find mu, nu >= 0 and p with g = sum mu conv + sum nu ray + p and
    ||p||_inf <= rho. A second LP pushes the conv mass positive whenever
    possible, since only then does u = w/lam land in the subdifferential.
    Returns (lam, u, p, distance) or None."""
    d = len(g)
    cols: list[Vec] = list(conv_part) + list(ray_part)
    nc, nr = len(conv_part), len(ray_part)
    # stage-1 variables: mu(nc), nu(nr), a(d), b(d), slack(d), t
    n1 = nc + nr + 3 * d + 1
    zero = Fraction(0)
    one = Fraction(1)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for k in range(d):
        row = [zero] * n1
        for j, c in enumerate(cols):
            row[j] = c[k]
        row[nc + nr + k] = one
        row[nc + nr + d + k] = -one
        rows.append(row)
        rhs.append(g[k])
    for k in range(d):
        row = [zero] * n1
        row[nc + nr + k] = one
        row[nc + nr + d + k] = one
        row[nc + nr + 2 * d + k] = one
        row[n1 - 1] = -one
        rows.append(row)
        rhs.append(zero)
    cost = [zero] * n1
    cost[n1 - 1] = one
    res = lp.solve_min_eq(rows, rhs, cost)
    if res.status != lp.OPTIMAL or res.value > rho:
        return None
    best = res.point
    if nc:
        # stage 2: keep ||p||_inf <= rho, maximize min(sum mu, 1).
        # extra variables: z, slack for t<=rho, slack for z<=sum mu, slack for z<=1
        n2 = n1 + 4
        rows2 = [row + [zero] * 4 for row in rows]
        rhs2 = list(rhs)
        cap = [zero] * n2
        cap[n1 - 1] = one
        cap[n1 + 1] = one
        rows2.append(cap)
        rhs2.append(rho)
        zmu = [zero] * n2
        for j in range(nc):
            zmu[j] = one
        zmu[n1] = -one
        zmu[n1 + 2] = -one
        rows2.append(zmu)
        rhs2.append(zero)
        zcap = [zero] * n2
        zcap[n1] = one
        zcap[n1 + 3] = one
        rows2.append(zcap)
        rhs2.append(one)
        cost2 = [zero] * n2
        cost2[n1] = -one
        res2 = lp.solve_min_eq(rows2, rhs2, cost2)
        if res2.status == lp.OPTIMAL and res2.point is not None and -res2.value > 0:
            best = res2.point[:n1]
    mu = best[:nc]
    lam = sum(mu, Fraction(0))
    w = zero_vec(d)
    for j, c in enumerate(cols):
        w = vadd(w, vscale(best[j], c))
    p = tuple(g[k] - w[k] for k in range(d))
    dist = max((abs(c) for c in p), default=Fraction(0))
    if dist > rho:
        raise InternalCheckError("witness LP exceeded the allowed perturbation")
    if lam > 0:
        return lam, vscale(1 / lam, w), p, dist
    if all(c == 0 for c in w):
        return Fraction(0), None, p, dist
    return None


def _rational_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    n, d = q.numerator, q.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


def inclusion_witness_check(
    f, x: Vec, eps, samples_per_axis: int = 7
) -> InclusionReport:
    """Certify generators of the eps-normal set of [f <= 0] at x as elements
    of cone(d f(y)) + (sqrt(eps))-ball for nearby y with f(y) <= 2 sqrt(eps).

    eps must be the square of a rational. Each certified generator gets an
    exact witness (y, lam, u in d f(y), p) with g = lam*u + p and
    ||p||_inf <= sqrt(eps); generators without a witness are reported as
    unresolved, never as refutations.
    """
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
        s = sublevel_set(f, 0)
        value = lambda y: evaluate(f, y)
    else:
        raise InputError("expected a smooth member or a polyhedral function")
    if not poly_contains_point(s, x):
        raise PreconditionError("x must satisfy f(x) <= 0")
    nset = eps_normal_set(s, x, e)
    gens = list(nset.points) + list(nset.rays)
    offsets = [
        -3 * rho + 6 * rho * Fraction(j, samples_per_axis - 1)
        for j in range(samples_per_axis)
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
    witnesses: list[InclusionWitness] = []
    unresolved: list[Vec] = []
    for g in gens:
        found = None
        if max((abs(c) for c in g), default=Fraction(0)) <= rho:
            found = InclusionWitness(g, x, Fraction(0), u0, g, Fraction(0))
        else:
            for y, conv_part, ray_part in candidates:
                hit = _cone_witness_lp(g, conv_part, ray_part, rho)
                if hit is not None:
                    lam, u, p, dist = hit
                    if u is None:
                        u = conv_part[0] if conv_part else zero_vec(len(x))
                    check = vadd(vscale(lam, u), p)
                    if check != g:
                        raise InternalCheckError("witness decomposition failed re-check")
                    found = InclusionWitness(g, y, lam, u, p, dist)
                    break
        if found is not None:
            witnesses.append(found)
        else:
            unresolved.append(g)
    return InclusionReport(rho, tuple(witnesses), tuple(unresolved))
