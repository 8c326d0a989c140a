"""Independent polyhedral ground truth for normal cones.

Everything here works directly on H-representations: the normal cone to a
polyhedron at a point is the cone of the tight constraint normals, computed
without touching the formula machinery. verify_result judges a cone the
caller already computed against the oracle cone of the same set.
verify_formula_instance runs the formula once, through a late import that is
the oracle's only contact with formulas, and hands the result to
verify_result; the ground truth itself stays formula-free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InputError, PreconditionError
from .functions import (
    ImproperFunction,
    PolyhedralFunction,
    sublevel_set,
)
from .geometry import (
    ConeGen,
    PolyhedronH,
    Vec,
    cone,
    cone_contains,
    dot,
    intersect,
    poly_contains_point,
    rat,
)

EQUAL = "equal"
INSIDE = "formula-strictly-inside"
VIOLATION = "violation"


def polyhedron_normal_cone(poly: PolyhedronH, x: Vec) -> ConeGen:
    """N_P(x) = cone of the normals of the constraints tight at x."""
    if not poly_contains_point(poly, x):
        raise PreconditionError("normal cone requested at a point outside the polyhedron")
    tight = [h.normal for h in poly.halfspaces if dot(h.normal, x) == h.offset]
    return cone(poly.dim, tight)


def sup_sublevel_polyhedron(members, level=0) -> PolyhedronH:
    """[sup_t f_t <= level] for a family of polyhedral members.

    Proper members contribute their sublevel polyhedra, improper members
    their domains (the value is -inf there, below any finite level).
    """
    c = rat(level)
    polys = []
    for f in members:
        if isinstance(f, ImproperFunction):
            polys.append(f.domain)
        elif isinstance(f, PolyhedralFunction):
            polys.append(sublevel_set(f, c))
        else:
            raise InputError(f"unsupported member type {type(f).__name__}")
    if not polys:
        raise InputError("a family needs at least one member")
    return intersect(*polys)


def dom_polyhedron(members) -> PolyhedronH:
    """Intersection of the member domains."""
    polys = [f.domain for f in members]
    if not polys:
        raise InputError("a family needs at least one member")
    return intersect(*polys)


@dataclass
class VerificationReport:
    instance_id: str
    which: str  # "sublevel" | "dom" | "qc"
    epsilon: Fraction
    verdict: str  # EQUAL | INSIDE | VIOLATION
    formula_cone: ConeGen
    oracle_cone: ConeGen
    witness: Vec | None


def compare_cones(formula_cone: ConeGen, oracle_cone: ConeGen):
    """(verdict, witness): EQUAL, INSIDE (strict), or VIOLATION with a
    formula generator that lies outside the oracle cone. Equal ray tuples
    are EQUAL without an LP."""
    if formula_cone.rays == oracle_cone.rays:
        return EQUAL, None
    for r in formula_cone.rays:
        if not cone_contains(oracle_cone, r):
            return VIOLATION, r
    # the formula cone is inside the oracle cone; equal iff the converse holds
    if all(cone_contains(formula_cone, r) for r in oracle_cone.rays):
        return EQUAL, None
    return INSIDE, None


def verify_result(
    res, family, x: Vec, which: str = "sublevel", instance_id: str = ""
) -> VerificationReport:
    """Judge res.cone, a formula result the caller already has, against the
    oracle cone of the same set.

    which = "sublevel": normal cone to [sup f_t <= 0];
    which = "dom":      normal cone to the intersection of domains;
    which = "qc":       normal cone to an intersection of quasi-convex
                        zero-sublevel sets (family is a SublevelOracleQC).
    """
    if which == "sublevel":
        target = sup_sublevel_polyhedron([f for _, f in family.members])
    elif which == "dom":
        target = dom_polyhedron([f for _, f in family.members])
    elif which == "qc":
        target = intersect(*(m.sublevel for m in family.members))
    else:
        raise InputError(f"unknown verification kind {which!r}")
    oracle_cone = polyhedron_normal_cone(target, x)
    verdict, witness = compare_cones(res.cone, oracle_cone)
    return VerificationReport(
        instance_id=instance_id,
        which=which,
        epsilon=res.epsilon,
        verdict=verdict,
        formula_cone=res.cone,
        oracle_cone=oracle_cone,
        witness=witness,
    )


def verify_formula_instance(
    family,
    x: Vec,
    eps,
    which: str = "sublevel",
    grid=None,
    instance_id: str = "",
    mode: str = "auto",
) -> VerificationReport:
    """Run the formula named by which once, then verify_result on it."""
    from . import formulas  # late import keeps the oracle formula-free

    e = rat(eps)
    if which == "sublevel":
        # the report reads only res.cone and res.epsilon: skip the formula's
        # own oracle certification
        res = formulas.sublevel_normal_cone_formula(
            family, x, e, grid=grid, mode=mode, certify=False
        )
    elif which == "dom":
        res = formulas.dom_sup_normal_cone(family, x, e)
    elif which == "qc":
        res = formulas.qc_sublevel_normal_cone(family, x, e)
    else:
        raise InputError(f"unknown verification kind {which!r}")
    return verify_result(res, family, x, which=which, instance_id=instance_id)
