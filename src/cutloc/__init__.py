"""cutloc: distance-function geometry for planar domains bounded by C2 arcs.

Computes cut values along inward normals, the boundary criterion function
phi, curvature/cut-value bounds, Minkowski-type and normal-ray integral
identities, a ball-characterization verdict, the closed-form solution of
the associated Monge-Kantorovich system, and web-function ray profiles.

Submodules load on first use (PEP 562): ``import cutloc`` runs none of
them, a public name imports only the submodule that defines it, and
``cutloc.<submodule>`` imports that submodule.
"""

import importlib

__version__ = "0.1.0"

# defining submodule -> its public names
_EXPORTS = {
    "boundary": ("BoundaryCurve", "BoundaryPoint", "CornerInfo"),
    "cutlocus": ("CutTable", "cut_table", "cut_value", "focal_check",
                 "max_lambda_kappa", "phi"),
    "distfield": ("DistanceField", "GridSpec", "build_distance_field",
                  "inside_mask"),
    "domain": ("Domain",),
    "errors": ("ConfigurationError", "ConstructionError", "CutlocError",
               "DegenerateRayError", "FormulaOutOfScopeError",
               "HypothesisViolationError", "InapplicableError",
               "InvalidRayError", "OperatorRangeError", "ShapeParseError"),
    "fields": ("ScalarField", "constant"),
    "integrals": ("IntegralReport", "area", "corner_sum", "cov_integral",
                  "cov_residual", "mean_value_residual", "minkowski_residual",
                  "minkowski_residual_corners"),
    "mk": ("MKSolution", "complementarity_max", "eikonal_max_deviation",
           "mk_verdict", "residual_summary", "vf_field", "weak_form_check"),
    "projector": ("CurveProjector", "Projection"),
    "shapes": ("from_spec", "load_shape"),
    "symmetry": ("SymmetryReport", "criterion_report"),
    "web": ("DivergenceOperator", "PartialWebReport", "WebProfile",
            "flux_identity_residual", "laplace", "parse_operator",
            "partial_web_report", "plap", "profile_checks", "web_profile"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is not None:
        return getattr(importlib.import_module(f".{module}", __name__), name)
    if not name.startswith("__"):
        try:
            return importlib.import_module(f".{name}", __name__)
        except ModuleNotFoundError as e:
            if e.name != f"{__name__}.{name}":
                raise
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
