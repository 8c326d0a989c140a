"""Polyhedral convex functions, improper members, and 1-D quasi-convex profiles.

A PolyhedralFunction is a finite max of affine pieces restricted to a
polyhedral domain (+inf outside); it is lower semicontinuous by construction
and proper exactly when its domain is nonempty. An ImproperFunction is -inf
on a nonempty polyhedral domain and +inf elsewhere.

The exact subdifferential d_0 f(x), which the normal-cone formulas and the
optimality checkers read, comes from exact_subdifferential: the slopes of
the pieces attaining f(x) plus the rows of dom f active at x. Only when
N_{dom f}(x) contains a line does it fall back to the epigraph conversion
that eps_subdifferential runs for every eps:

    g in d_eps f(x)  iff  f*(g) <= <g, x> - f(x) + eps,

and f* is the support function of the epigraph evaluated at (g, -1), so the
finitely many epigraph generators turn the condition into finitely many
linear constraints on g. Epsilon-normal sets are computed the same way from
the generators of the domain. Within the package, eps_subdifferential and
epigraph_generators are called from this module only.

QuasiConvex1D models piecewise-affine quasi-convex profiles on the line with
possibly +inf breakpoint values (non-lsc jumps); it feeds the closure
identity checks and the quasi-convex oracle members.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence, Union

from .errors import InputError, InternalCheckError, PreconditionError, RefusedError
from .geometry import (
    GeneratorSet,
    HalfSpace,
    POS_INF,
    PolyhedronH,
    Vec,
    cone,
    cone_rays,
    dot,
    empty_generators,
    generators,
    h_to_v,
    inequality_cone,
    is_empty_poly,
    is_pointed,
    poly_contains_point,
    polyhedron,
    rat,
    vsub,
    whole_space,
    zero_vec,
)


@dataclass(frozen=True)
class AffinePiece:
    """y -> <slope, y> + intercept."""

    slope: Vec
    intercept: Fraction

    def value(self, y: Vec) -> Fraction:
        return dot(self.slope, y) + self.intercept


@dataclass(frozen=True)
class PolyhedralFunction:
    """max of affine pieces on a polyhedral domain, +inf outside.

    Always lower semicontinuous; proper iff the domain is nonempty.
    """

    dim: int
    pieces: tuple[AffinePiece, ...]
    domain: PolyhedronH

    def __post_init__(self) -> None:
        if not self.pieces:
            raise InputError("a polyhedral function needs at least one affine piece")
        for p in self.pieces:
            if len(p.slope) != self.dim:
                raise InputError("piece slope dimension mismatch")
        if self.domain.dim != self.dim:
            raise InputError("domain dimension mismatch")


@dataclass(frozen=True)
class ImproperFunction:
    """-inf on a nonempty polyhedral domain, +inf elsewhere; lsc."""

    dim: int
    domain: PolyhedronH

    def __post_init__(self) -> None:
        if self.domain.dim != self.dim:
            raise InputError("domain dimension mismatch")
        if is_empty_poly(self.domain):
            raise InputError("an improper member needs a nonempty domain")


ExtendedFunction = Union[PolyhedralFunction, ImproperFunction]


def affine_function(slope: Sequence, intercept) -> PolyhedralFunction:
    s = tuple(rat(v) for v in slope)
    return PolyhedralFunction(len(s), (AffinePiece(s, rat(intercept)),), whole_space(len(s)))


def max_affine(dim: int, pieces, domain: PolyhedronH | None = None) -> PolyhedralFunction:
    ps = tuple(AffinePiece(tuple(rat(v) for v in s), rat(b)) for s, b in pieces)
    return PolyhedralFunction(dim, ps, domain if domain is not None else whole_space(dim))


def indicator(domain: PolyhedronH) -> PolyhedralFunction:
    """0 on the domain, +inf outside; its d_eps is the eps-normal set."""
    return PolyhedralFunction(
        domain.dim, (AffinePiece(zero_vec(domain.dim), Fraction(0)),), domain
    )


def evaluate(f: ExtendedFunction, y: Vec):
    """Exact value; +inf/-inf are float sentinels used for comparison only."""
    if isinstance(f, ImproperFunction):
        return float("-inf") if poly_contains_point(f.domain, y) else POS_INF
    if not poly_contains_point(f.domain, y):
        return POS_INF
    return max(p.value(y) for p in f.pieces)


def sublevel_set(f: PolyhedralFunction, level) -> PolyhedronH:
    """[f <= level] = domain cut by every piece at the level."""
    c = rat(level)
    hs = list(f.domain.halfspaces)
    hs.extend(HalfSpace(p.slope, c - p.intercept) for p in f.pieces)
    return polyhedron(f.dim, hs)


# Entries per cache. All key on frozen dataclasses, so the bound keeps a long
# suite run or an embedding process from growing them without limit.
CACHE_SIZE = 1024


@lru_cache(maxsize=CACHE_SIZE)
def epigraph_generators(f: PolyhedralFunction) -> GeneratorSet:
    """Generators of epi f in R^(dim+1): piece rows become <(a,-1),(y,r)> <= -b.

    Pruned without LPs: a pointed epigraph comes back as its vertices and
    extreme rays (h_to_v's rank test), any other as the DD generators. The
    only consumer turns them into the rows of d_eps f(x), and h_to_v of that
    set is the same for every generating set of epi f.
    """
    rows = [HalfSpace(p.slope + (Fraction(-1),), -p.intercept) for p in f.pieces]
    rows.extend(HalfSpace(h.normal + (0,), h.offset) for h in f.domain.halfspaces)
    return h_to_v(polyhedron(f.dim + 1, rows), minimal=False)


@lru_cache(maxsize=CACHE_SIZE)
def domain_generators(domain: PolyhedronH) -> GeneratorSet:
    """Generators of a domain; eps_normal_set reads them at every eps."""
    return h_to_v(domain)


@lru_cache(maxsize=CACHE_SIZE)
def normal_cone_rays(domain: PolyhedronH, x: Vec) -> tuple[tuple[int, ...], ...]:
    """Generators of N_D(x) = cone{a_i : <a_i, x> = b_i} for x in D, read
    off the rows active at x.

    For polyhedral data N_D(x) is the recession cone of every eps-normal set
    N^eps_D(x) and of every d_eps f(x) with dom f = D, eps > 0, so the
    normal-cone formulas take the rays of those sets from here, and
    tests/test_normal_cone_rays.py pins them to the conversions' rays.
    When N_D(x) is pointed (is_pointed: 0 is not in the convex hull of the
    active rows) the converted set has no lines, h_to_v's tight-row test returns
    exactly its extreme rays, and a pointed cone's extreme rays are unique,
    primitive and lex-sorted, as cone(dim, active) returns them. A cone
    with a line has many generating sets; it is its own double polar
    (Rockafellar, Convex Analysis, Thm. 14.1), and its generators are those
    of the meet of its polar, inequality_cone(cone_rays(active)), the same
    meet the intersection form takes for a cone with a line.
    """
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


@lru_cache(maxsize=CACHE_SIZE)
def _eps_subdifferential_cached(f: PolyhedralFunction, x: Vec, eps: Fraction) -> GeneratorSet:
    fx = evaluate(f, x)
    if fx == POS_INF:
        return empty_generators(f.dim)
    epi = epigraph_generators(f)
    if epi.is_empty:
        return empty_generators(f.dim)
    hs = []
    for q in epi.points:
        y, r = q[: f.dim], q[f.dim]
        hs.append(HalfSpace(vsub(y, x), r - fx + eps))
    for w in epi.rays:
        hs.append(HalfSpace(w[: f.dim], w[f.dim]))
    return h_to_v(polyhedron(f.dim, hs))


def eps_subdifferential(f: PolyhedralFunction, x: Vec, eps) -> GeneratorSet:
    """d_eps f(x) = {g : <g, y-x> <= f(y) - f(x) + eps for all y}; empty off dom f.

    eps = 0 gives the exact subdifferential. Only proper polyhedral members are
    accepted; improper members contribute through eps_normal_set of their
    domains instead.
    """
    e = rat(eps)
    if e < 0:
        raise InputError("eps must be nonnegative")
    if len(x) != f.dim:
        raise InputError("point dimension mismatch")
    return _eps_subdifferential_cached(f, tuple(x), e)


def exact_subdifferential(f: PolyhedralFunction, x: Vec) -> GeneratorSet:
    """d_0 f(x) = conv{slopes of the pieces attaining f(x)} + N_D(x) for x in
    D = dom f (Rockafellar, Convex Analysis, Thm. 23.8); empty off dom f.

    When N_D(x) is pointed the set holds no line, and its unique minimal
    V-representation (vertices among the slopes, extreme rays of N_D(x)) is
    what generators(...) keeps from these generators: the same
    canonical GeneratorSet that h_to_v's rank test returns from the
    conversion. When N_D(x) contains a line the minimal generating sets are
    not unique, and the reported one stays eps_subdifferential(f, x, 0)'s.
    """
    if len(x) != f.dim:
        raise InputError("point dimension mismatch")
    x = tuple(x)
    fx = evaluate(f, x)
    if fx == POS_INF:
        return empty_generators(f.dim)
    rays = normal_cone_rays(f.domain, x) if f.domain.halfspaces else ()
    if len(rays) > 1 and not is_pointed(f.dim, rays):
        return eps_subdifferential(f, x, 0)
    slopes = [p.slope for p in f.pieces if p.value(x) == fx]
    return generators(f.dim, slopes, rays)


def eps_normal_set(domain: PolyhedronH, x: Vec, eps) -> GeneratorSet:
    """N^eps_D(x) = {g : <g, y-x> <= eps for all y in D}; empty when x is off D.

    This is d_eps of the indicator of D, computed directly from the generators
    of D: vertex constraints carry the eps slack, ray constraints none.
    """
    e = rat(eps)
    if e < 0:
        raise InputError("eps must be nonnegative")
    if not poly_contains_point(domain, x):
        return empty_generators(domain.dim)
    gen = domain_generators(domain)
    if gen.is_empty:
        return empty_generators(domain.dim)
    hs = [HalfSpace(vsub(p, x), e) for p in gen.points]
    hs.extend(HalfSpace(r, 0) for r in gen.rays)
    return h_to_v(polyhedron(domain.dim, hs))


# --- 1-D quasi-convex profiles ------------------------------------------------


@dataclass(frozen=True)
class Affine1:
    """u -> slope*u + intercept on the line."""

    slope: Fraction
    intercept: Fraction

    def value(self, u: Fraction) -> Fraction:
        return self.slope * u + self.intercept


@dataclass(frozen=True)
class Interval:
    """Rational interval with open/closed ends; None bounds mean +-inf."""

    lo: Fraction | None
    lo_closed: bool
    hi: Fraction | None
    hi_closed: bool

    @property
    def is_empty(self) -> bool:
        if self.lo is None or self.hi is None:
            return False
        if self.lo > self.hi:
            return True
        return self.lo == self.hi and not (self.lo_closed and self.hi_closed)

    def closure(self) -> "Interval":
        if self.is_empty:
            return EMPTY_INTERVAL
        return Interval(self.lo, self.lo is not None, self.hi, self.hi is not None)

    def contains(self, u: Fraction) -> bool:
        if self.is_empty:
            return False
        if self.lo is not None and (u < self.lo or (u == self.lo and not self.lo_closed)):
            return False
        if self.hi is not None and (u > self.hi or (u == self.hi and not self.hi_closed)):
            return False
        return True

    def intersect(self, other: "Interval") -> "Interval":
        if self.is_empty or other.is_empty:
            return EMPTY_INTERVAL
        if self.lo is None:
            lo, loc = other.lo, other.lo_closed
        elif other.lo is None or self.lo > other.lo:
            lo, loc = self.lo, self.lo_closed
        elif self.lo < other.lo:
            lo, loc = other.lo, other.lo_closed
        else:
            lo, loc = self.lo, self.lo_closed and other.lo_closed
        if self.hi is None:
            hi, hic = other.hi, other.hi_closed
        elif other.hi is None or self.hi < other.hi:
            hi, hic = self.hi, self.hi_closed
        elif self.hi > other.hi:
            hi, hic = other.hi, other.hi_closed
        else:
            hi, hic = self.hi, self.hi_closed and other.hi_closed
        out = Interval(lo, loc, hi, hic)
        return EMPTY_INTERVAL if out.is_empty else out


EMPTY_INTERVAL = Interval(Fraction(1), True, Fraction(0), True)


def interval_equal(a: Interval, b: Interval) -> bool:
    if a.is_empty or b.is_empty:
        return a.is_empty and b.is_empty
    return (
        a.lo == b.lo
        and a.hi == b.hi
        and (a.lo is None or a.lo_closed == b.lo_closed)
        and (a.hi is None or a.hi_closed == b.hi_closed)
    )


@dataclass(frozen=True)
class QuasiConvex1D:
    """Piecewise-affine quasi-convex profile on R, values in R union {+inf}.

    breakpoints are strictly increasing; interval_pieces has one entry per
    open interval between consecutive breakpoints (None meaning +inf there,
    i.e. off-domain), breakpoint_values one value per breakpoint (None for
    +inf, which is what creates non-lsc jumps). Quasi-convexity (every
    sublevel set an interval) is validated at construction by an exact scan
    over the finitely many critical levels.
    """

    breakpoints: tuple[Fraction, ...]
    interval_pieces: tuple[Affine1 | None, ...]
    breakpoint_values: tuple[Fraction | None, ...]

    def __post_init__(self) -> None:
        k = len(self.breakpoints)
        if len(self.interval_pieces) != k + 1:
            raise InputError("need exactly one interval piece per gap (k breakpoints, k+1 pieces)")
        if len(self.breakpoint_values) != k:
            raise InputError("need exactly one value per breakpoint")
        for a, b in zip(self.breakpoints, self.breakpoints[1:]):
            if not a < b:
                raise InputError("breakpoints must be strictly increasing")
        if all(p is None for p in self.interval_pieces) and all(
            v is None for v in self.breakpoint_values
        ):
            raise InputError("the profile is identically +inf; it must be proper")
        for c in _qc1d_probe_levels(self):
            parts = _sublevel_parts(self, c)
            if len(parts) > 1:
                raise InputError(
                    f"not quasi-convex: [f <= {c}] splits into {len(parts)} intervals"
                )

    def value(self, u: Fraction):
        u = rat(u)
        k = len(self.breakpoints)
        for i, b in enumerate(self.breakpoints):
            if u == b:
                v = self.breakpoint_values[i]
                return POS_INF if v is None else v
            if u < b:
                piece = self.interval_pieces[i]
                return POS_INF if piece is None else piece.value(u)
        piece = self.interval_pieces[k]
        return POS_INF if piece is None else piece.value(u)


def _qc1d_probe_levels(q: QuasiConvex1D) -> list[Fraction]:
    """Levels where the sublevel structure can change, plus one per gap.

    Critical levels are the finite breakpoint values and the one-sided piece
    limits at every breakpoint; between consecutive criticals the number of
    sublevel components is constant, so probing criticals, midpoints, and one
    value below/above everything decides quasi-convexity exactly.
    """
    crit: set[Fraction] = set()
    for v in q.breakpoint_values:
        if v is not None:
            crit.add(v)
    for i, b in enumerate(q.breakpoints):
        left = q.interval_pieces[i]
        right = q.interval_pieces[i + 1]
        if left is not None:
            crit.add(left.value(b))
        if right is not None:
            crit.add(right.value(b))
    return _levels_around(crit)


def _levels_around(crit: set[Fraction]) -> list[Fraction]:
    """The levels crit, the midpoint of each gap between consecutive ones,
    and one level below and one above them all, ascending ([0] for no
    crit). A set of levels whose membership can change only at crit, such
    as a difference of intervals ending in crit, is nonempty iff it holds
    one of these."""
    if not crit:
        return [Fraction(0)]
    levels = sorted(crit)
    mids = [(a + b) / 2 for a, b in zip(levels, levels[1:])]
    return sorted(levels + mids + [levels[0] - 1, levels[-1] + 1])


def _piece_sublevel_on(piece: Affine1 | None, lo, hi, c: Fraction) -> Interval:
    """[piece <= c] within the open interval (lo, hi); None bounds are +-inf."""
    if piece is None:
        return EMPTY_INTERVAL
    base = Interval(lo, False, hi, False)
    if piece.slope == 0:
        return base if piece.intercept <= c else EMPTY_INTERVAL
    bound = (c - piece.intercept) / piece.slope
    if piece.slope > 0:
        return base.intersect(Interval(None, False, bound, True))
    return base.intersect(Interval(bound, True, None, False))


def _sublevel_parts(q: QuasiConvex1D, c: Fraction) -> list[Interval]:
    """Connected components of [q <= c], left to right, exactly."""
    k = len(q.breakpoints)
    raw: list[Interval] = []
    for i in range(k + 1):
        lo = q.breakpoints[i - 1] if i > 0 else None
        hi = q.breakpoints[i] if i < k else None
        part = _piece_sublevel_on(q.interval_pieces[i], lo, hi, c)
        if not part.is_empty:
            raw.append(part)
        if i < k:
            v = q.breakpoint_values[i]
            if v is not None and v <= c:
                b = q.breakpoints[i]
                raw.append(Interval(b, True, b, True))
    merged: list[Interval] = []
    for part in raw:
        if merged:
            prev = merged[-1]
            touches = (
                prev.hi is not None
                and part.lo is not None
                and prev.hi == part.lo
                and (prev.hi_closed or part.lo_closed)
            )
            if touches:
                merged[-1] = Interval(prev.lo, prev.lo_closed, part.hi, part.hi_closed)
                continue
        merged.append(part)
    return merged


def qc1d_sublevel(q: QuasiConvex1D, c) -> Interval:
    """[q <= c] as a single (possibly empty) interval."""
    parts = _sublevel_parts(q, rat(c))
    if not parts:
        return EMPTY_INTERVAL
    if len(parts) > 1:
        raise InternalCheckError("validated profile produced a disconnected sublevel set")
    return parts[0]


def qc1d_closed_hull(q: QuasiConvex1D) -> QuasiConvex1D:
    """Lower semicontinuous hull: each breakpoint value drops to the min of
    itself and the two one-sided limits; affine pieces are already lsc."""
    new_vals: list[Fraction | None] = []
    for i, b in enumerate(q.breakpoints):
        candidates: list[Fraction] = []
        if q.breakpoint_values[i] is not None:
            candidates.append(q.breakpoint_values[i])
        left = q.interval_pieces[i]
        if left is not None:
            candidates.append(left.value(b))
        right = q.interval_pieces[i + 1]
        if right is not None:
            candidates.append(right.value(b))
        new_vals.append(min(candidates) if candidates else None)
    return QuasiConvex1D(q.breakpoints, q.interval_pieces, tuple(new_vals))


@dataclass(frozen=True)
class ClosureIdentityReport:
    holds: bool
    lhs: object  # cl[f <= 0]
    rhs: object  # [lsc-hull f <= 0]
    witness: object | None = None


def convex_sublevel_closure_identity(f) -> ClosureIdentityReport:
    """Check cl[f <= 0] = [f-bar <= 0] exactly.

    For PolyhedralFunction both sides are the same closed polyhedron (the
    function is lsc); for QuasiConvex1D the left side is the closure of the
    exact sublevel interval and the right side the sublevel interval of the
    lsc hull. Precondition: [f <= 0] nonempty.
    """
    if isinstance(f, PolyhedralFunction):
        s = sublevel_set(f, 0)
        if is_empty_poly(s):
            raise RefusedError("closure identity needs [f <= 0] nonempty")
        return ClosureIdentityReport(True, s, s)
    if isinstance(f, QuasiConvex1D):
        raw = qc1d_sublevel(f, 0)
        if raw.is_empty:
            raise RefusedError("closure identity needs [f <= 0] nonempty")
        lhs = raw.closure()
        rhs = qc1d_sublevel(qc1d_closed_hull(f), 0)
        if interval_equal(lhs, rhs):
            return ClosureIdentityReport(True, lhs, rhs)
        witness = _interval_difference_point(rhs, lhs)
        return ClosureIdentityReport(False, lhs, rhs, witness)
    raise InputError(f"unsupported function type {type(f).__name__}")


def _interval_difference_point(big: Interval, small: Interval) -> Fraction | None:
    """Some rational point of big \\ small (big is assumed to contain small)."""
    if big.is_empty:
        return None
    for cand in (big.lo, big.hi):
        if cand is not None and big.contains(cand) and not small.contains(cand):
            return cand
    if big.lo is None and (small.lo is not None):
        return small.lo - 1
    if big.hi is None and (small.hi is not None):
        return small.hi + 1
    return None
