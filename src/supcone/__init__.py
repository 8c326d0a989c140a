"""supcone: exact normal cones to sublevel sets of supremum functions.

The package computes, in exact rational arithmetic, the normal cone to
[sup_t f_t <= 0] and to dom(sup_t f_t) for finite families of polyhedral
convex and quasi-convex functions, cross-validates every result against an
independent polyhedral oracle, and checks optimality certificates built on
those cones.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    InputError,
    InternalCheckError,
    PreconditionError,
    RefusedError,
    SizingError,
)
from .geometry import (  # noqa: F401
    ConeGen,
    GeneratorSet,
    HalfSpace,
    PolyhedronH,
    cone,
    cone_contains,
    cone_equal,
    generators,
    h_to_v,
    halfspace,
    lp_solve,
    polyhedron,
    recession_cone,
    v_to_h,
)
from .functions import (  # noqa: F401
    AffinePiece,
    ImproperFunction,
    PolyhedralFunction,
    QuasiConvex1D,
    affine_function,
    convex_sublevel_closure_identity,
    eps_normal_set,
    eps_subdifferential,
    evaluate,
    exact_subdifferential,
    indicator,
    max_affine,
    sublevel_set,
)
from .formulas import (  # noqa: F401
    SGrid,
    SmoothQCMember,
    SublevelOracleQC,
    SupFamily,
    cc_condition_check,
    dom_sup_normal_cone,
    frechet_outer_cone,
    inclusion_witness_check,
    qc_sublevel_normal_cone,
    strict_sublevel_normal_cone,
    sublevel_normal_cone_formula,
    sublevel_normal_cone_intersection,
)
from .optimality import (  # noqa: F401
    LinearSIPInstance,
    ProgramInstance,
    QCProgram,
    Qualification,
    check_necessary_qc,
    check_optimal_convex,
    check_sip_linear,
    verify_certificate,
)
from .oracle import verify_formula_instance, verify_result  # noqa: F401
