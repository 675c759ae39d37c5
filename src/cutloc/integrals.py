"""Boundary and bulk integral identities.

Area by adaptive quadrature, the curvature integral identity (smooth and
cornered forms), the change of variables over inward normal rays, and the
mean-value identity for the criterion function phi.  The boundary length
is the curve's own, the total of its arclength table (BoundaryCurve.length).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .boundary import _BLOCK_NODES
from .distfield import _inside, inside_mask
from .errors import FormulaOutOfScopeError, InapplicableError
from .quadrature import ray_quadrature, simpson_doubling_vec

__all__ = [
    "IntegralReport", "ROT_CCW", "area", "minkowski_residual",
    "minkowski_residual_corners", "corner_sum", "cov_integral",
    "cov_residual", "mean_value_residual", "divergence_area_residual",
]

_EPS_REL = 1e-14

# Counterclockwise quarter turn; the corner term sign assumes CCW orientation.
ROT_CCW = np.array([[0.0, -1.0], [1.0, 0.0]])


@dataclass(frozen=True)
class IntegralReport:
    lhs: float
    rhs: float
    abs_residual: float
    rel_residual: float
    samples_used: int

    @staticmethod
    def from_pair(lhs, rhs, samples_used):
        lhs = float(lhs)
        rhs = float(rhs)
        ab = abs(lhs - rhs)
        return IntegralReport(lhs=lhs, rhs=rhs, abs_residual=ab,
                              rel_residual=ab / max(abs(rhs), _EPS_REL),
                              samples_used=int(samples_used))


# ------------------------------------------------------------ arc quadrature

def _arc_batch_integral(curve, rowfun, evaluators, tol):
    """Sum over arcs of the doubling-Simpson integral of a row function.

    rowfun maps the named evaluators' (k, 2) values at k nodes to (k,)
    values.  Each doubling level evaluates every arc's nodes through the
    curve's ArcTable, one stack per arc kind, _BLOCK_NODES rows at a time;
    a row's values are its arc's own, bit for bit.  Returns (value,
    node_count).
    """
    table = curve.arc_table
    count = [0]

    def f(tmat):
        count[0] += tmat.size
        which = np.repeat(np.arange(table.t0.size), tmat.shape[1])
        t = tmat.ravel()
        out = np.empty(t.size)
        for i in range(0, t.size, _BLOCK_NODES):
            rows = slice(i, i + _BLOCK_NODES)
            out[rows] = rowfun(*table.evaluate(which[rows],
                                               *evaluators)(t[rows]))
        return out.reshape(tmat.shape)

    vals = simpson_doubling_vec(f, table.t0, table.t1, tol=tol)
    return float(np.sum(vals)), count[0]


def _shoelace_row(p, v):
    # <y, nu> ds = (x y' - y x') dt for a CCW curve
    return p[:, 0] * v[:, 1] - p[:, 1] * v[:, 0]


def _curvature_support_row(p, v, acc):
    speed2 = v[:, 0] ** 2 + v[:, 1] ** 2
    kappa_speed = (v[:, 0] * acc[:, 1] - v[:, 1] * acc[:, 0]) / speed2
    return kappa_speed * (p[:, 0] * v[:, 1] - p[:, 1] * v[:, 0]) / np.sqrt(speed2)


# each row function with the evaluators it reads, in its argument order
_SHOELACE = (_shoelace_row, ("point", "velocity"))
_CURVATURE_SUPPORT = (_curvature_support_row,
                      ("point", "velocity", "acceleration"))


def _length_tol(curve):
    """Absolute quadrature tolerance of a length-dimensioned integral."""
    return 1e-10 * max(1.0, curve.extent)


def area(curve):
    """Enclosed area via the divergence theorem, (1/2) oint <y, nu> ds."""
    tol = 1e-10 * max(1.0, curve.extent) ** 2
    val, _ = _arc_batch_integral(curve, *_SHOELACE, tol)
    return 0.5 * val


# -------------------------------------------------------- curvature integral

def minkowski_residual(curve):
    """Report for oint kappa <y, nu> ds = |boundary| on smooth curves.

    The right-hand side is curve.length; samples_used counts the nodes of
    the curvature integral's quadrature.
    """
    if curve.corners:
        raise InapplicableError(
            "curve has corners; use minkowski_residual_corners")
    lhs, n = _arc_batch_integral(curve, *_CURVATURE_SUPPORT,
                                 _length_tol(curve))
    return IntegralReport.from_pair(lhs, curve.length, n)


def corner_sum(curve):
    """sum_i <y_i, R (nu_plus - nu_minus)> over every arc junction.

    C1 junctions contribute ~0; the value is the corner correction of the
    cornered curvature-integral identity.
    """
    jt = curve.junctions
    rotated = (jt.nu_plus - jt.nu_minus) @ ROT_CCW.T
    return float(np.sum(jt.position * rotated))


def minkowski_residual_corners(curve):
    """Cornered identity: |boundary| = oint kappa <y,nu> ds - corner sum.

    The right-hand side is curve.length; samples_used counts the nodes of
    the curvature integral's quadrature.
    """
    if curve.corner_status == "concave-present":
        raise FormulaOutOfScopeError(
            "concave corner present; the cornered identity is out of scope")
    smooth_part, n = _arc_batch_integral(curve, *_CURVATURE_SUPPORT,
                                         _length_tol(curve))
    return IntegralReport.from_pair(smooth_part - corner_sum(curve),
                                    curve.length, n)


# --------------------------------------------------- normal-ray bulk integral

def _require_no_concave(dom):
    if dom.curve.corner_status == "concave-present":
        raise FormulaOutOfScopeError(
            "concave corner present; the ray change of variables is not "
            "available")


def cov_integral(dom, h):
    """int_Omega h via the normal-ray change of variables.

    Outer composite midpoint in arclength on each arc (the domain's
    midpoint table), inner Gauss-Legendre in t with the 1 - t kappa
    Jacobian weight, exact for a polynomial h.  Rays in corner zones have
    lambda = 0 and add nothing.
    """
    _require_no_concave(dom)
    table = dom.midpoint_table
    inner = ray_quadrature(h, table.position, table.normal,
                           np.zeros(len(table)), table.kappa, table.lam)
    return float(np.sum(inner * dom.midpoint_weight))


def cov_residual(dom, h, grid):
    """Ray-side integral of h against its grid quadrature over inside cells."""
    lhs = cov_integral(dom, h)
    centers = grid.centers()
    inside = _inside(dom.curve, grid, centers)
    vals = np.asarray(h(centers)).reshape(inside.shape)
    rhs = float(np.sum(vals[inside]) * grid.h ** 2)
    return IntegralReport.from_pair(lhs, rhs, int(np.sum(inside)))


def mean_value_residual(dom):
    """Arclength average of phi against |Omega| / |boundary|.

    The average is the weighted mean over the domain's midpoint table:
    phi jumps where the curvature jumps at C1 junctions, and a rule per
    arc never straddles a jump.
    """
    _require_no_concave(dom)
    table = dom.midpoint_table
    lhs = float(np.average(table.phi, weights=dom.midpoint_weight))
    return IntegralReport.from_pair(lhs, dom.ratio, len(table))


def divergence_area_residual(curve, grid):
    """Quadrature area against the grid cell-count area."""
    lhs = area(curve)
    cells = int(np.sum(inside_mask(curve, grid)))
    return IntegralReport.from_pair(lhs, float(cells) * grid.h ** 2, cells)
