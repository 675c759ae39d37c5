"""v_f one point at a time: a reference for the grid solution and the trace.

``cutloc.mk`` evaluates v_f on grid cells (vf_field) and spot-checks its
boundary trace on the cut table's rows (mk_verdict).  These helpers
evaluate the same ray integral at a single interior point, projected
afresh, and at a single boundary point, with a fresh cut value.
"""

from typing import NamedTuple

import numpy as np

from cutloc.boundary import BoundaryPoint
from cutloc.cutlocus import corner_zone, cut_value
from cutloc.errors import DegenerateRayError
from cutloc.fields import constant
from cutloc.mk import _DEGEN
from cutloc.projector import CurveProjector
from cutloc.quadrature import ray_quadrature


class VfValue(NamedTuple):
    value: float
    singular: bool


def vf_at(dom, x, f=None):
    """v_f at a single interior point; (0, True) on the singular set."""
    if f is None:
        f = constant(1.0)
    curve, tol = dom.curve, dom.tol
    x = np.asarray(x, dtype=float)
    p = CurveProjector(curve).project(x[None, :])
    d = float(p.dist[0])
    kap = float(p.kappa[0])
    lam = cut_value(curve, float(p.s[0]), tol=tol)
    tau = lam - d
    if tau <= 5.0 * tol:
        return VfValue(0.0, True)
    if 1.0 - d * kap <= _DEGEN:
        raise DegenerateRayError("normal chart degenerate at the query depth")
    val = ray_quadrature(f, x[None, :], p.normal, p.dist, p.kappa,
                         np.array([tau]))
    return VfValue(float(val[0]), False)


def vf_boundary(dom, y, f=None):
    """Boundary restriction of v_f; for constant gamma equals gamma phi(y).

    y is a BoundaryPoint or an arclength.  In the corner zone (corner_zone)
    the returned value is the corner limit 0, flagged.
    """
    if f is None:
        f = constant(1.0)
    curve = dom.curve
    if isinstance(y, BoundaryPoint):
        geom = curve.geometry([y.arc_index], [y.param])
    else:
        geom = curve.geometry_at_s([float(y)])
    if corner_zone(curve, geom.s, dom.tol)[0]:
        return VfValue(0.0, True)
    lam = cut_value(curve, float(geom.s[0]), tol=dom.tol)
    val = ray_quadrature(f, geom.position, geom.normal, np.zeros(1),
                         geom.curvature, np.array([float(lam)]))
    return VfValue(float(val[0]), False)
