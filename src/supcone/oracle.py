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
    _piece_rows,
)
from .geometry import (
    ConeGen,
    PolyhedronH,
    Vec,
    cone,
    cone_contains,
    intersect,
    polyhedron,
    rat,
)
from .geometry.sets import _row_values
from .geometry.vec import _int_point

EQUAL = "equal"
INSIDE = "formula-strictly-inside"
VIOLATION = "violation"


def polyhedron_normal_cone(poly: PolyhedronH, x: Vec) -> ConeGen:
    """N_P(x) = cone of the normals of the constraints tight at x."""
    vals = _row_values(poly, *_int_point(x))
    if any(v > 0 for v in vals):
        raise PreconditionError("normal cone requested at a point outside the polyhedron")
    tight = [h.normal for h, v in zip(poly.halfspaces, vals) if v == 0]
    return cone(poly.dim, tight)


def sup_sublevel_polyhedron(members) -> PolyhedronH:
    """[sup_t f_t <= 0] for a family of polyhedral members.

    Proper members contribute their domain rows and one row per piece at
    level 0, improper members their domain rows (the value is -inf there,
    below 0). One polyhedron() call canonicalizes all of them: the same
    PolyhedronH as intersecting the members' sublevel_set polyhedra, with
    each row made primitive once.
    """
    rows = []
    dims = set()
    for f in members:
        if isinstance(f, ImproperFunction):
            rows.extend(f.domain.halfspaces)
        elif isinstance(f, PolyhedralFunction):
            rows.extend(f.domain.halfspaces)
            rows.extend(_piece_rows(f))
        else:
            raise InputError(f"unsupported member type {type(f).__name__}")
        dims.add(f.dim)
    if not dims:
        raise InputError("a family needs at least one member")
    if len(dims) != 1:
        raise InputError("cannot intersect polyhedra of different dimensions")
    return polyhedron(dims.pop(), rows)


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
    instance_id: str = "",
    mode: str = "auto",
) -> VerificationReport:
    """Run the formula named by which once, then verify_result on it."""
    from . import formulas  # late import keeps the oracle formula-free

    e = rat(eps)
    if which == "sublevel":
        # the report reads only res.cone and res.epsilon: skip the formula's
        # own oracle certification
        res = formulas.sublevel_normal_cone_formula(family, x, e, mode=mode, certify=False)
    elif which == "dom":
        res = formulas.dom_sup_normal_cone(family, x, e)
    elif which == "qc":
        res = formulas.qc_sublevel_normal_cone(family, x, e)
    else:
        raise InputError(f"unknown verification kind {which!r}")
    return verify_result(res, family, x, which=which, instance_id=instance_id)
