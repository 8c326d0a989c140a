"""Double description: generators of homogeneous inequality cones.

cone_rays computes a generating set for {x in R^dim : <row, x> <= 0 for all
rows}. The cone is embedded through x = u - v into the nonnegative orthant of
R^(2*dim), which keeps every intermediate cone pointed; the textbook
combinatorial adjacency test is only valid for pointed cones, and this
sidesteps separate lineality bookkeeping. Constraints are inserted sparsest
first: by the number of nonzero entries of their primitive forms, ties in
lexicographic order. A row with k nonzero entries is zero on the 2*(dim - k)
unit rays outside its support, so the early insertions make few new rays
(Fukuda & Prodon, "Double description method revisited", 1996, compare such
orderings). The output is sorted, so the conversion is deterministic.
Intermediate generator counts are capped.

The conversion runs on Python ints. Every row is first scaled to its
primitive integer form, so the lifted rows and every intermediate ray are
integer vectors; each new ray dp*xn - dn*xp is divided by the gcd of its
coordinates. A ray's zero set (the orthant coordinates and inserted rows
tight at it) is an int bitmask: bit i for coordinate i of (u, v), bit
2*dim + j for the j-th inserted row. Two rays are adjacent iff no other ray's
zero set contains their common zero set, that is iff ``common & z == common``
holds for no third ray. The rows may come in as any rationals; the rays
leave as primitive int tuples, the representation of every direction.

Before that scan, a pair whose common zero set has fewer than 2*dim - 2 bits
is skipped. A face of a polyhedral cone in R^N has dimension N minus the rank
of the constraints tight on all of it, whatever the dimension of the cone.
Two extreme rays are adjacent iff the smallest face holding both is
2-dimensional, and the constraints tight on that face are exactly their
common zero set. With N = 2*dim, adjacency needs that set to have rank
N - 2, so it needs at least N - 2 members (orthant bits plus row bits).

Output contract: the result is a generating set that depends on the cone
alone, not on the order, multiplicity or redundancy of its rows. It is not
the set of extreme rays. The lifted cone is pointed, so the conversion returns
its extreme rays exactly, but their images u - v can include non-extreme
generators of the cone. In dim 3 the rows (0,3,1), (0,2,3), (1,2,1),
(-3,1,3), (1,-1,0) and (2,2,2) give 6 rays for a cone with 3 extreme rays.
Callers that need a minimal set prune with ``cone(...)``, or,
since they know the rows, keep the rays at which the tight rows have rank
dim - 1 when all rows together have rank dim (the cone is then pointed and
those are its extreme rays; see ``sets.inequality_cone``).
"""

from __future__ import annotations

from operator import mul
from typing import Sequence

from ..errors import InputError, SizingError
from .vec import Vec, divide_gcd, primitive_ints

DEFAULT_ROW_CAP = 10**6


def cone_rays(
    rows: Sequence[Vec], dim: int, cap: int = DEFAULT_ROW_CAP
) -> list[tuple[int, ...]]:
    """Generators (primitive, lex-sorted) of the cone {x : <row, x> <= 0}."""
    clean = sorted({p for p in (primitive_ints(tuple(r)) for r in rows) if any(p)})
    for r in clean:
        if len(r) != dim:
            raise InputError(f"dimension mismatch: {2 * len(r)} vs {2 * dim}")
    # Sparsest row first; the sort is stable, so ties keep their lex order.
    clean.sort(key=lambda r: dim - r.count(0))
    emb = 2 * dim
    # Two rays are adjacent only if they share emb - 2 tight constraints.
    need = emb - 2
    # <a, u - v> <= 0 lifts to <(a, -a), (u, v)> <= 0.
    lifted = [r + tuple(-x for x in r) for r in clean]

    # The unit ray e_k is zero on every coordinate but k.
    full = (1 << emb) - 1
    rays: list[tuple[int, ...]] = []
    zsets: list[int] = []
    for k in range(emb):
        rays.append(tuple(1 if i == k else 0 for i in range(emb)))
        zsets.append(full & ~(1 << k))

    for j, a in enumerate(lifted):
        bit = 1 << (emb + j)
        zero_r: list[tuple[int, ...]] = []
        zero_z: list[int] = []
        neg: list[tuple[tuple[int, ...], int, int]] = []
        pos: list[tuple[tuple[int, ...], int, int]] = []
        for ray, zs in zip(rays, zsets):
            d = sum(map(mul, a, ray))
            if d == 0:
                zero_r.append(ray)
                zero_z.append(zs | bit)
            elif d < 0:
                neg.append((ray, zs, d))
            else:
                pos.append((ray, zs, d))
        nxt_r = zero_r + [ray for ray, _, _ in neg]
        nxt_z = zero_z + [zs for _, zs, _ in neg]
        seen = set(nxt_r)
        for rp, zp, dp in pos:
            for rn, zn, dn in neg:
                common = zp & zn
                if common.bit_count() < need:
                    continue
                # rp and rn always contain common; a third ray that does
                # rules the pair out.
                hits = 0
                for z3 in zsets:
                    if z3 & common == common:
                        hits += 1
                        if hits > 2:
                            break
                if hits > 2:
                    continue
                comb = divide_gcd([dp * xn - dn * xp for xp, xn in zip(rp, rn)])
                if comb not in seen:
                    seen.add(comb)
                    nxt_r.append(comb)
                    # A positive combination of two rays of the current cone
                    # is tight exactly where both are, and on row j.
                    nxt_z.append(common | bit)
        if len(nxt_r) > cap:
            raise SizingError(
                f"double description exceeded {cap} intermediate generators "
                f"after inserting {j + 1} of {len(lifted)} constraints"
            )
        rays, zsets = nxt_r, nxt_z

    out = set()
    for ray in rays:
        x = [ray[i] - ray[dim + i] for i in range(dim)]
        if any(x):
            out.add(divide_gcd(x))
    return sorted(out)
