"""Polyhedral set representations and exact operations on them.

Three representations, all over exact rationals:

* PolyhedronH      {y : <normal, y> <= offset for each halfspace}
* GeneratorSet     conv(points) + cone(rays); empty iff points is empty
* ConeGen          cone(rays), always containing the origin

Conversions run through the double description method (dd.cone_rays) on the
homogenization; membership and equality questions run through exact LPs.
Canonical forms (primitive integer directions, lexicographic order, redundant
generators removed) make equality checks and report files stable.

Directions are primitive int tuples; points and scalars are Fractions.
polyhedron stores each row as the int tuple primitive_ints gives for
(normal, offset), and generators and cone store each ray as its primitive
int tuple; the lex order of those tuples is the lex order of the same values
as Fractions. The conversions read the cone_rays output as it comes, and
h_to_v forms each point as Fraction(x, t).

Redundant generators are removed in one of two ways. Where the rows of a
conversion are at hand (h_to_v, recession_cone, inequality_cone) and have
full rank, the cone is pointed and its unique minimal generating set
is its extreme rays: a generator is kept iff no other generator has a
strictly larger set of tight rows, a bitmask test with no LP. h_to_v runs it
even with minimal=False, which only turns off the pruning LPs. Everywhere
else (rows of lower rank, and generators(...) or cone(...) on generators
of unknown origin) rays are pruned one int phase-1 LP
(lp.nonneg_feasible) per ray, which stops as soon as the rays still kept are
linearly independent (an integer rank test), and points one per point. Both
give the same canonical output.

Every yes/no cone question (a redundant ray or point, cone_contains,
is_pointed) is one lp.nonneg_feasible call on primitive int columns: none of
these answers builds a Fraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from ..errors import InputError, InternalCheckError
from . import lp
from .dd import cone_rays
from .vec import (
    Vec,
    _int_point,
    divide_gcd,
    dot,
    is_zero_vec,
    primitive_ints,
    rat,
    vec,
    zero_vec,
)

POS_INF = float("inf")
NEG_INF = float("-inf")


@dataclass(frozen=True)
class HalfSpace:
    """{y : <normal, y> <= offset}; ints in a canonical polyhedron."""

    normal: Vec
    offset: Fraction


@dataclass(frozen=True)
class PolyhedronH:
    dim: int
    halfspaces: tuple[HalfSpace, ...]


@dataclass(frozen=True)
class GeneratorSet:
    """conv(points) + cone(rays). No points means the empty set."""

    dim: int
    points: tuple[Vec, ...]
    rays: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if not self.points and self.rays:
            raise InputError("a GeneratorSet without points is empty and must have no rays")

    @property
    def is_empty(self) -> bool:
        return not self.points


@dataclass(frozen=True)
class ConeGen:
    """cone(rays); the empty ray list is the zero cone {theta}."""

    dim: int
    rays: tuple[tuple[int, ...], ...]

    @property
    def is_zero(self) -> bool:
        return not self.rays


def halfspace(normal: Iterable, offset) -> HalfSpace:
    return HalfSpace(vec(normal), rat(offset))


def polyhedron(dim: int, halfspaces: Iterable[HalfSpace] = ()) -> PolyhedronH:
    """Canonical constructor: primitive rows, vacuous rows dropped, sorted.

    A zero-normal row with negative offset is an unsatisfiable constraint;
    the whole polyhedron collapses to the canonical empty marker.
    """
    rows = set()
    for h in halfspaces:
        if len(h.normal) != dim:
            raise InputError(f"halfspace normal has dim {len(h.normal)}, expected {dim}")
        joint = primitive_ints(h.normal + (h.offset,))
        if not any(joint[:dim]):
            if joint[dim] < 0:
                return empty_polyhedron(dim)
            continue
        rows.add(joint)
    return PolyhedronH(dim, tuple(HalfSpace(r[:dim], r[dim]) for r in sorted(rows)))


def whole_space(dim: int) -> PolyhedronH:
    return PolyhedronH(dim, ())


def empty_polyhedron(dim: int) -> PolyhedronH:
    return PolyhedronH(dim, (HalfSpace((0,) * dim, -1),))


def empty_generators(dim: int) -> GeneratorSet:
    return GeneratorSet(dim, (), ())


def generators(dim: int, points: Iterable[Vec] = (), rays: Iterable[Vec] = ()) -> GeneratorSet:
    """Canonical constructor: dedupe, primitive rays, lexicographic order.

    Also drops generators that do not change the set: a ray inside the cone
    of the remaining rays, a point inside the hull of the remaining
    generators. One int phase-1 LP per point, and one per ray until the rays
    still kept are linearly independent (see _prune_rays); h_to_v replaces
    these LPs by a tight-row test when its homogenized rows have full rank.
    """
    pts = sorted({tuple(p) for p in points})
    for p in pts:
        if len(p) != dim:
            raise InputError(f"point has dim {len(p)}, expected {dim}")
    rys = _canonical_rays(dim, rays)
    if not pts:
        if rys:
            raise InputError("a GeneratorSet without points is empty and must have no rays")
        return GeneratorSet(dim, (), ())
    rys = _prune_rays(rys)
    if len(pts) > 1:
        # (p, 1) and its primitive int form are positive multiples: the
        # same question for the LP.
        keep_pts: list[Vec] = list(pts)
        lifted = [primitive_ints(p + (1,)) for p in keep_pts]
        recs = [r + (0,) for r in rys]
        i = 0
        while i < len(keep_pts):
            if lp.nonneg_feasible(lifted[:i] + lifted[i + 1 :] + recs, lifted[i]):
                keep_pts.pop(i)
                lifted.pop(i)
            else:
                i += 1
        pts = keep_pts
    return GeneratorSet(dim, tuple(pts), tuple(rys))


def cone(dim: int, rays: Iterable[Vec] = ()) -> ConeGen:
    """Canonical cone: primitive sorted rays, with redundant ones dropped."""
    return ConeGen(dim, tuple(_prune_rays(_canonical_rays(dim, rays))))


def _prune_rays(rays: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """The rays left after dropping, in order, each one inside the cone of
    the others still kept: one int phase-1 LP (lp.nonneg_feasible) per ray
    tested.

    Before the first LP and after each drop, an integer rank test ends the
    loop: linearly independent rays have none in the span of the others, so
    none in their cone, and the LPs left would keep every one of them.
    """
    if len(rays) < 2:
        return rays
    kept = list(rays)
    i = 0
    changed = True
    while i < len(kept):
        if changed and len(kept) <= len(kept[0]) and _int_rank(kept) == len(kept):
            break
        if lp.nonneg_feasible(kept[:i] + kept[i + 1 :], kept[i]):
            kept.pop(i)
            changed = True
        else:
            i += 1
            changed = False
    return kept


def _canonical_rays(dim: int, rays: Iterable[Vec]) -> list[tuple[int, ...]]:
    """Distinct nonzero rays as primitive int tuples, in lexicographic order."""
    ints = sorted({p for p in (primitive_ints(tuple(r)) for r in rays) if any(p)})
    for r in ints:
        if len(r) != dim:
            raise InputError(f"ray has dim {len(r)}, expected {dim}")
    return ints


# --- linear programming over an H-polyhedron -------------------------------


@dataclass(frozen=True)
class LpResult:
    status: str  # lp.OPTIMAL | lp.INFEASIBLE | lp.UNBOUNDED
    value: Fraction | None = None
    point: Vec | None = None
    ray: tuple[int, ...] | None = None


def lp_solve(objective: Vec, poly: PolyhedronH) -> LpResult:
    """max <objective, y> over poly; exact value and maximizer when optimal."""
    d = poly.dim
    if len(objective) != d:
        raise InputError("objective dimension mismatch")
    hs = poly.halfspaces
    m = len(hs)
    # y = u - v, slack w per constraint: <n, u> - <n, v> + w = offset.
    cols = 2 * d + m
    rows = []
    rhs = []
    for i, h in enumerate(hs):
        row = [h.normal[k] for k in range(d)] + [-h.normal[k] for k in range(d)]
        row += [1 if j == i else 0 for j in range(m)]
        rows.append(row)
        rhs.append(h.offset)
    cost = [-c for c in objective] + [c for c in objective] + [0] * m
    res = lp.solve_min_eq(rows, rhs, cost)
    if res.status == lp.INFEASIBLE:
        return LpResult(lp.INFEASIBLE)
    if res.point is None:
        raise InternalCheckError(f"simplex reported {res.status} without a point")
    point = tuple(res.point[k] - res.point[d + k] for k in range(d))
    if res.status == lp.UNBOUNDED:
        if res.ray is None:
            raise InternalCheckError("simplex reported unbounded without a ray")
        ray = tuple(res.ray[k] - res.ray[d + k] for k in range(d))
        return LpResult(lp.UNBOUNDED, point=point, ray=primitive_ints(ray))
    value = dot(objective, point)
    return LpResult(lp.OPTIMAL, value=value, point=point)


def is_empty_poly(poly: PolyhedronH) -> bool:
    return lp_solve(zero_vec(poly.dim), poly).status == lp.INFEASIBLE


def poly_contains_point(poly: PolyhedronH, x: Vec) -> bool:
    return _contains_at(poly, *_int_point(x))


def _contains_at(poly: PolyhedronH, xs: Sequence[int], q: int) -> bool:
    """poly_contains_point at x = xs / q."""
    return all(v <= 0 for v in _row_values(poly, xs, q))


def _row_values(poly: PolyhedronH, xs: Sequence[int], q: int) -> list:
    """<normal, xs> - offset * q per row: the sign of <normal, x> - offset
    at x = xs / q with q > 0, on ints for canonical rows."""
    hs = poly.halfspaces
    if hs and len(hs[0].normal) != len(xs):
        raise InputError(f"dimension mismatch: {len(hs[0].normal)} vs {len(xs)}")
    return [sum(map(mul, h.normal, xs)) - h.offset * q for h in hs]


def intersect(*polys: PolyhedronH) -> PolyhedronH:
    dims = {p.dim for p in polys}
    if len(dims) != 1:
        raise InputError("cannot intersect polyhedra of different dimensions")
    hs: list[HalfSpace] = []
    for p in polys:
        hs.extend(p.halfspaces)
    return polyhedron(dims.pop(), hs)


# --- representation conversions ---------------------------------------------


def h_to_v(poly: PolyhedronH, minimal: bool = True) -> GeneratorSet:
    """Generators of an H-polyhedron via DD on the homogenization.

    P lifts to {(y, t) : <n_i, y> - offset_i * t <= 0, t >= 0}; generators
    with positive last coordinate scale to points, the rest are rays. No
    generator with t > 0 means P is empty. When the lifted rows have full
    rank d + 1, P has no lines and the rank test cuts the DD generators to
    its vertices and extreme rays, the unique minimal generating set,
    whatever minimal says. Otherwise minimal=True prunes by LPs, and
    minimal=False returns the DD generators as they come, deduplicated and
    sorted: minimal=False means no pruning LPs, not no pruning.
    """
    d = poly.dim
    rows = [h.normal + (-h.offset,) for h in poly.halfspaces]
    rows.append((0,) * d + (-1,))
    rays = cone_rays(rows, d + 1)
    n_points = sum(1 for r in rays if r[d] > 0)
    if not n_points:
        return empty_generators(d)
    lp_prune = False
    # At most one point and one ray are already minimal.
    if n_points > 1 or len(rays) - n_points > 1:
        extreme = _extreme_rays(rows, rays, d + 1)
        if extreme is None:
            lp_prune = minimal
        else:
            rays = extreme
    # Distinct primitive rays give distinct points; the rays with t = 0 stay
    # primitive and in lex order.
    points = sorted(tuple(Fraction(x, r[d]) for x in r[:d]) for r in rays if r[d] > 0)
    recs = [r[:d] for r in rays if r[d] == 0]
    if lp_prune:
        return generators(d, points, recs)
    return GeneratorSet(d, tuple(points), tuple(recs))


def v_to_h(gen: GeneratorSet) -> PolyhedronH:
    """H-representation via DD on the polar of the homogenization cone.

    The generators of polar(cone{(p,1)} + cone{(r,0)}) are exactly the lifted
    facet normals (a, beta) with <a, y> <= -beta; bipolarity closes the loop
    because the homogenization cone is finitely generated, hence closed.
    """
    d = gen.dim
    if gen.is_empty:
        return empty_polyhedron(d)
    rows = [p + (1,) for p in gen.points] + [r + (0,) for r in gen.rays]
    polar = cone_rays(rows, d + 1)
    hs = []
    for w in polar:
        a, beta = w[:d], w[d]
        if is_zero_vec(a):
            continue  # 0 <= -beta with beta <= 0: vacuous
        hs.append(HalfSpace(a, -beta))
    return polyhedron(d, hs)


def recession_cone(poly: PolyhedronH) -> ConeGen:
    """{y : <n_i, y> <= 0 for all constraints} for nonempty P, else {theta}.

    A polyhedron that contains the origin (every eps-hull does) is nonempty
    without the emptiness LP.
    """
    if not poly_contains_point(poly, zero_vec(poly.dim)) and is_empty_poly(poly):
        return ConeGen(poly.dim, ())
    return inequality_cone([h.normal for h in poly.halfspaces], poly.dim)


def inequality_cone(rows: Sequence[Vec], dim: int) -> ConeGen:
    """The minimal cone {x : <row, x> <= 0 for every row}.

    Same result as cone(dim, cone_rays(rows, dim)). The cone_rays output is
    already canonical: distinct primitive int tuples in lex order. When the
    rows have full rank, the rank test keeps its extreme rays.
    """
    rays = cone_rays(rows, dim)
    if len(rays) > 1:
        extreme = _extreme_rays(rows, rays, dim)
        if extreme is None:
            return cone(dim, rays)
        rays = extreme
    return ConeGen(dim, tuple(rays))


def _extreme_rays(
    rows: Sequence[Vec], rays: list[tuple[int, ...]], n: int
) -> list[tuple[int, ...]] | None:
    """The extreme rays among rays, a generating set of {x : <row, x> <= 0}.

    rays are the cone_rays output: distinct primitive int tuples. The rows
    pass through primitive_ints once so that the rank runs on ints: the
    callers also take rational rows, not only canonical ones. When the
    nonzero rows have rank n the cone is pointed, and a nonzero ray of it is
    extreme iff the rows tight at it have rank n - 1 (Fukuda, "Frequently
    Asked Questions in Polyhedral Computation", 2004). rays generate the
    cone, so they hold every extreme ray, and a ray is extreme iff no other
    ray's set of tight rows strictly contains its own: a ray on a face of
    dimension >= 2 is outdone by the extreme rays of that face, and a set
    strictly containing an extreme ray's would have rank n, which only 0
    satisfies. The rank is then taken once per call, and each ray costs a
    bitmask of its tight rows. The extreme rays of a pointed cone are its
    unique minimal generating set, which is what LP pruning keeps. Rows of
    lower rank give None: the cone contains a line, its minimal generating
    sets are not unique, and LP pruning decides.
    """
    int_rows = list({p for p in (primitive_ints(r) for r in rows) if any(p)})
    if _int_rank(int_rows) < n:
        return None
    masks = []
    for x in rays:
        m = 0
        for bit, a in enumerate(int_rows):
            if sum(u * v for u, v in zip(a, x)) == 0:
                m |= 1 << bit
        masks.append(m)
    distinct = set(masks)
    return [
        x for x, m in zip(rays, masks) if not any(o != m and o & m == m for o in distinct)
    ]


def _int_rank(rows: list[tuple[int, ...]]) -> int:
    """Rank of integer vectors by fraction-free elimination; each new row is
    divided by its gcd so entries stay small."""
    work = list(rows)
    rank = 0
    for col in range(len(work[0]) if work else 0):
        piv = next((i for i in range(rank, len(work)) if work[i][col]), None)
        if piv is None:
            continue
        work[rank], work[piv] = work[piv], work[rank]
        p = work[rank]
        pc = p[col]
        for i in range(rank + 1, len(work)):
            q = work[i]
            qc = q[col]
            if qc:
                work[i] = divide_gcd([pc * b - qc * a for a, b in zip(p, q)])
        rank += 1
    return rank


# --- support and membership queries ------------------------------------------


def support_function(a: GeneratorSet, direction: Vec):
    """sup_{y in A} <direction, y>: -inf on empty, +inf past any ray."""
    if a.is_empty:
        return NEG_INF
    for r in a.rays:
        if dot(direction, r) > 0:
            return POS_INF
    return max(dot(direction, p) for p in a.points)


def cone_contains(c: ConeGen, v: Vec) -> bool:
    """Is v in cone(c.rays)? One int phase-1 LP on v's primitive form."""
    if len(v) != c.dim:
        raise InputError("vector dimension mismatch")
    return lp.nonneg_feasible(c.rays, primitive_ints(v))


def is_pointed(dim: int, rays: Sequence[Vec]) -> bool:
    """Does cone(rays) hold no line? Zero rays do not change the cone and
    are dropped first. Linearly independent rays (an integer rank test)
    generate a pointed cone; no rays give the zero cone. Otherwise cone(rays)
    holds a line iff 0 is in conv(rays): one int phase-1 LP, on each ray's
    primitive form (a positive multiple of a ray leaves that answer as it
    is)."""
    ints = [p for p in (primitive_ints(tuple(r)) for r in rays) if any(p)]
    if len(ints) <= dim and _int_rank(ints) == len(ints):
        return True
    return not lp.nonneg_feasible([r + (1,) for r in ints], (0,) * dim + (1,))


def cone_equal(a: ConeGen, b: ConeGen) -> bool:
    """Mutual containment, checked generator-wise with exact LPs.

    Equal ray tuples generate the same cone, minimal or not, and need no LP.
    """
    if a.dim != b.dim:
        return False
    if a.rays == b.rays:
        return True
    return all(cone_contains(b, r) for r in a.rays) and all(
        cone_contains(a, r) for r in b.rays
    )


def generator_member(gen: GeneratorSet, v: Vec) -> list[Fraction] | None:
    """Multipliers witnessing v in conv(points)+cone(rays), or None.

    Returned list is the point coefficients followed by the ray coefficients;
    point coefficients sum to one.
    """
    if gen.is_empty:
        return None
    d = gen.dim
    if len(v) != d:
        raise InputError("vector dimension mismatch")
    np_, nr = len(gen.points), len(gen.rays)
    cols = np_ + nr
    rows = []
    rhs = []
    for k in range(d):
        rows.append([gen.points[i][k] for i in range(np_)] + [gen.rays[j][k] for j in range(nr)])
        rhs.append(v[k])
    rows.append([1] * np_ + [0] * nr)
    rhs.append(1)
    res = lp.solve_min_eq(rows, rhs, [0] * cols)
    if res.status != lp.OPTIMAL:
        return None
    return res.point


def poly_contains_generators(poly: PolyhedronH, gen: GeneratorSet) -> bool:
    """Every point satisfies the constraints; every ray satisfies them homogeneously."""
    if gen.is_empty:
        return True
    for h in poly.halfspaces:
        for p in gen.points:
            if dot(h.normal, p) > h.offset:
                return False
        for r in gen.rays:
            if dot(h.normal, r) > 0:
                return False
    return True


def poly_equal(a: PolyhedronH, b: PolyhedronH) -> bool:
    """Set equality via mutual generator containment.

    Equal halfspace tuples describe the same set and need no conversion.
    """
    if a.dim != b.dim:
        return False
    if a.halfspaces == b.halfspaces:
        return True
    ga, gb = h_to_v(a), h_to_v(b)
    if ga.is_empty or gb.is_empty:
        return ga.is_empty and gb.is_empty
    return poly_contains_generators(b, ga) and poly_contains_generators(a, gb)


def sup_distance_to_cone(v: Vec, c: ConeGen) -> tuple[Fraction, list[Fraction]]:
    """Exact sup-norm distance from v to cone(rays), with optimal multipliers.

    LP: minimize t subject to -t <= (sum mu_i r_i - v)_k <= t, mu >= 0.
    """
    d = c.dim
    if len(v) != d:
        raise InputError("vector dimension mismatch")
    nr = len(c.rays)
    # variables: mu (nr), t, slack pairs (2d)
    cols = nr + 1 + 2 * d
    rows = []
    rhs = []
    for k in range(d):
        row = [c.rays[j][k] for j in range(nr)] + [-1]
        row += [1 if s == k else 0 for s in range(2 * d)]
        rows.append(row)
        rhs.append(v[k])
        row2 = [-c.rays[j][k] for j in range(nr)] + [-1]
        row2 += [1 if s == d + k else 0 for s in range(2 * d)]
        rows.append(row2)
        rhs.append(-v[k])
    cost = [0] * nr + [1] + [0] * (2 * d)
    res = lp.solve_min_eq(rows, rhs, cost)
    if res.status != lp.OPTIMAL or res.point is None or res.value is None:
        # mu = 0, t = sup|v_k| is feasible and t >= 0 bounds the objective
        raise InternalCheckError(f"distance LP ended {res.status} without an optimum")
    return res.value, res.point[:nr]
