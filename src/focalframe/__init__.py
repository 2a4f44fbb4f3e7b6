"""Numerical differential geometry of curves in E^{m+1}.

Frenet frames and curvatures in any ambient dimension, focal curves
(centers of osculating hyperspheres) with an independent brute-force
oracle, curve synthesis from prescribed curvature profiles, and
detection plus focal verification of k-slant helices.
"""

from .curves import (
    Curve,
    CurvatureProfile,
    arc_length,
    curve_from_coordinates,
    eval_derivatives,
    make_circle,
    make_ellipse,
    make_helix,
    make_salkowski,
    make_wcurve,
    random_trig_curve,
    reparam_to_arclength,
    sampled_curve,
    synthesize_from_curvatures,
)
from .errors import (
    BadParameters,
    ConvergenceFailure,
    DegenerateFlag,
    DivisionGuard,
    FocalFrameError,
    FocalNotRegular,
    InvalidProfile,
    MethodLimit,
    NonOrthonormalFrame,
    NotGeneric,
    NotUnitSpeed,
    OrderUnsupported,
    OutOfDomain,
    ReducedOrder,
    RegularityFailure,
    SingularSystem,
    SpecFileError,
)
from .focal import (
    FocalData,
    FocalRelationsReport,
    focal_curvatures,
    focal_curve,
    focal_relations_check,
    osculating_center_oracle,
)
from .frenet import (
    Classification,
    FrenetData,
    classify,
    classify_curvatures,
    curvature_table,
    frenet_apparatus,
    frenet_grid,
)
from .linalg import solve_linear
from .slant import (
    AxisFit,
    ResidualTable,
    SlantReport,
    TheoremReport,
    coefficient_residuals,
    estimate_axis,
    is_k_slant,
    slant_reports,
    theorem_target_index,
    verify_focal_slant,
    verify_focal_slants,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
