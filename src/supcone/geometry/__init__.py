"""Exact rational polyhedral geometry: representations, conversions, LPs."""

from .dd import DEFAULT_ROW_CAP, cone_rays
from .lp import INFEASIBLE, OPTIMAL, UNBOUNDED
from .sets import (
    ConeGen,
    GeneratorSet,
    HalfSpace,
    LpResult,
    NEG_INF,
    POS_INF,
    PolyhedronH,
    cone,
    cone_contains,
    cone_equal,
    empty_generators,
    empty_polyhedron,
    generator_member,
    generators,
    h_to_v,
    halfspace,
    inequality_cone,
    intersect,
    is_empty_poly,
    is_pointed,
    lp_solve,
    poly_contains_generators,
    poly_contains_point,
    poly_equal,
    polyhedron,
    recession_cone,
    sup_distance_to_cone,
    support_function,
    v_to_h,
    whole_space,
)
from .vec import (
    Vec,
    dot,
    format_rat,
    is_zero_vec,
    parse_rat,
    primitive_ints,
    rat,
    vadd,
    vec,
    vscale,
    vsub,
    zero_vec,
)

__all__ = [name for name in dir() if not name.startswith("_")]
