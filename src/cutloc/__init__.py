"""cutloc: distance-function geometry for planar domains bounded by C2 arcs.

Computes cut values along inward normals, the boundary criterion function
phi, curvature/cut-value bounds, Minkowski-type and normal-ray integral
identities, a ball-characterization verdict, the closed-form solution of
the associated Monge-Kantorovich system, and web-function ray profiles.
"""

from .boundary import BoundaryCurve, BoundaryPoint, CornerInfo
from .cutlocus import (CutTable, cut_table, cut_value, focal_check,
                       max_lambda_kappa, phi)
from .distfield import (DistanceField, GridSpec, build_distance_field,
                        inside_mask)
from .domain import Domain
from .errors import (ConfigurationError, ConstructionError, CutlocError,
                     DegenerateRayError, FormulaOutOfScopeError,
                     HypothesisViolationError, InapplicableError,
                     InvalidRayError, OperatorRangeError, ShapeParseError)
from .fields import ScalarField, abs2, constant, coordinate, parse_field
from .integrals import (IntegralReport, area, corner_sum, cov_integral,
                        cov_residual, divergence_area_residual,
                        mean_value_residual, minkowski_residual,
                        minkowski_residual_corners, perimeter)
from .mk import (MKSolution, complementarity_max, eikonal_max_deviation,
                 mk_verdict, residual_summary, singular_measure, vf_at,
                 vf_boundary, vf_field, weak_form_check)
from .projector import CurveProjector, Projection
from .shapes import from_spec, load_shape
from .symmetry import (SymmetryReport, criterion_report, f_value,
                       inequality_chain_check)
from .web import (DivergenceOperator, PartialWebReport, WebProfile,
                  flux_identity_residual, laplace, parse_operator,
                  partial_web_report, plap, profile_checks, web_profile)

__version__ = "0.1.0"

__all__ = [
    "BoundaryCurve",
    "BoundaryPoint",
    "CornerInfo",
    "ConfigurationError",
    "ConstructionError",
    "CurveProjector",
    "CutlocError",
    "CutTable",
    "DegenerateRayError",
    "DistanceField",
    "DivergenceOperator",
    "Domain",
    "FormulaOutOfScopeError",
    "GridSpec",
    "HypothesisViolationError",
    "InapplicableError",
    "IntegralReport",
    "InvalidRayError",
    "MKSolution",
    "OperatorRangeError",
    "PartialWebReport",
    "Projection",
    "ScalarField",
    "ShapeParseError",
    "SymmetryReport",
    "WebProfile",
    "abs2",
    "area",
    "build_distance_field",
    "complementarity_max",
    "constant",
    "coordinate",
    "corner_sum",
    "cov_integral",
    "cov_residual",
    "criterion_report",
    "cut_table",
    "cut_value",
    "divergence_area_residual",
    "eikonal_max_deviation",
    "f_value",
    "flux_identity_residual",
    "focal_check",
    "from_spec",
    "inequality_chain_check",
    "inside_mask",
    "laplace",
    "load_shape",
    "max_lambda_kappa",
    "mean_value_residual",
    "minkowski_residual",
    "minkowski_residual_corners",
    "mk_verdict",
    "parse_field",
    "parse_operator",
    "partial_web_report",
    "perimeter",
    "phi",
    "plap",
    "profile_checks",
    "residual_summary",
    "singular_measure",
    "vf_at",
    "vf_boundary",
    "vf_field",
    "weak_form_check",
    "web_profile",
    "__version__",
]
