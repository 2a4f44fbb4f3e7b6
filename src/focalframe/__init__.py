"""Numerical differential geometry of curves in E^{m+1}.

Frenet frames and curvatures in any ambient dimension, focal curves
(centers of osculating hyperspheres) with an independent brute-force
oracle, curve synthesis from prescribed curvature profiles, and
detection plus focal verification of k-slant helices.

Curves live by kind: analytic and sampled curves in :mod:`.curves`,
arclength reparametrizations in :mod:`.arclength`, curvature profiles and
synthesized curves in :mod:`.synthesis`.

Exports are lazy (PEP 562): ``import focalframe`` loads neither numpy nor
any submodule. The first use of a public name imports its home module and
keeps the name here.
"""

import importlib

__version__ = "0.1.0"

# The public names of each home module; a module name is a public name too.
_EXPORTS = {
    "curves": (
        "Curve", "curve_from_coordinates", "eval_derivatives", "make_circle", "make_ellipse",
        "make_helix", "make_salkowski", "make_wcurve", "random_trig_curve", "sampled_curve",
    ),
    "arclength": ("arc_length", "reparam_to_arclength"),
    "synthesis": ("CurvatureProfile", "synthesize_from_curvatures"),
    "errors": (
        "BadParameters", "ConvergenceFailure", "DivisionGuard", "FocalFrameError",
        "InputError", "InvalidProfile", "NotUnitSpeed", "NumericFailure", "OrderUnsupported",
        "OutOfDomain", "ReducedOrder", "RegularityFailure", "SingularSystem", "SpecFileError",
    ),
    "focal": (
        "FocalData", "FocalRelationsReport", "focal_curvatures", "focal_curve",
        "focal_relations_check", "osculating_center_oracle",
    ),
    "frenet": (
        "Classification", "FrenetData", "classify", "classify_curvatures", "curvature_table",
        "frenet_apparatus", "frenet_grid",
    ),
    "linalg": ("solve_linear",),
    "numdiff": (),
    "series": (),
    "slant": (
        "AxisFit", "ResidualTable", "SlantReport", "TheoremReport", "coefficient_residuals",
        "estimate_axis", "is_k_slant", "slant_reports", "theorem_target_index",
        "verify_focal_slant", "verify_focal_slants",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names)}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f"{__name__}.{home}")
    value = module if name == home else getattr(module, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
