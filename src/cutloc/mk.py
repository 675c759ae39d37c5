"""Closed-form v-component of the distance-gradient transport system.

The pair (d_Omega, v_f) solves the system off the singular set: u is the
distance to the boundary and v_f integrates the source along the inward
normal ray with the curvature Jacobian ratio

    v_f(x) = int_0^tau f(x - t nu) (1 - (d + t) kappa) / (1 - d kappa) dt,

tau = lambda(pi(x)) - d, and v_f = 0 on the closure of the singular set.
The cut locus is the closure of {y - lambda(y) nu(y)}, so on a grid the
singular set is read off tau: the inside cells within _SIGMA_H cells of
their cut value, plus those where the ray chart 1 - d kappa degenerates.
v_f is evaluated on grid cells only (vf_field); its boundary trace,
gamma phi for a constant source gamma, is spot-checked on the cut
table's rows (mk_verdict).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distfield import DistanceField
from .errors import HypothesisViolationError
from .fields import constant
from .quadrature import ray_quadrature
from .symmetry import criterion_report

__all__ = [
    "MKSolution", "vf_field", "residual_summary", "complementarity_max",
    "weak_form_check", "eikonal_max_deviation", "mk_verdict",
    "export_mk_csv",
]

_DEGEN = 1e-12
# a grid cell is singular when tau <= _SIGMA_H h.  3 is the smallest
# integer multiple whose set holds every cell with a second nearest site
# within 2h and every cell within max(3h, sqrt(h)/4) of its focal depth
# 1/kappa, on the circle, ellipse, square, stadium, rounded square,
# superellipse and a Fourier shape at h = 1/64 and 1/128
_SIGMA_H = 3.0
# depths eps of the tent test functions of weak_form_check
_TENT_EPS = (0.2, 0.1, 0.05)


@dataclass(eq=False)
class MKSolution:
    grid: object
    curve: object
    u: np.ndarray         # (ny, nx) distance values, 0 outside
    v: np.ndarray         # (ny, nx) ray integrals, 0 on singular cells
    tau: np.ndarray       # (ny, nx) lambda(foot) - d, clamped at 0
    residual: np.ndarray  # (ny, nx) -div(v grad u) - f, NaN off valid cells
    inside: np.ndarray    # (ny, nx) bool
    singular: np.ndarray  # (ny, nx) bool
    valid: np.ndarray     # (ny, nx) bool, residual stencil applicable
    gx: np.ndarray        # (ny, nx) central-difference x-derivative and
    gy: np.ndarray        # (ny, nx) y-derivative of the signed distance,
                          # finite on inside cells
    source: np.ndarray    # (ny, nx) f at the cell centers
    field: DistanceField

    @property
    def h(self):
        return self.grid.h


def _erode4(mask):
    out = mask.copy()
    out[1:, :] &= mask[:-1, :]
    out[:-1, :] &= mask[1:, :]
    out[:, 1:] &= mask[:, :-1]
    out[:, :-1] &= mask[:, 1:]
    out[0, :] = out[-1, :] = False
    out[:, 0] = out[:, -1] = False
    return out


def _dilate8(mask):
    out = mask.copy()
    out[1:, :] |= mask[:-1, :]
    out[:-1, :] |= mask[1:, :]
    out[:, 1:] |= out[:, :-1].copy()
    out[:, :-1] |= out[:, 1:].copy()
    return out


def _signed_gradient(field):
    """Central-difference gradient of the signed distance (smooth at the
    boundary, unlike the one-sided zero extension)."""
    su = field.signed()
    h = field.grid.h
    gx = np.zeros_like(su)
    gy = np.zeros_like(su)
    gx[:, 1:-1] = (su[:, 2:] - su[:, :-2]) / (2.0 * h)
    gy[1:-1, :] = (su[2:, :] - su[:-2, :]) / (2.0 * h)
    return gx, gy


def vf_field(dom, field, f=None):
    """Assemble the grid solution on a distance field of the domain's curve.

    tau = lambda(foot) - d, with the field's lambda at the foot
    (interpolated from the domain's cut table), or read off the corner's
    fan (Domain.corner_fans) where the foot is a concave corner.
    Singular: inside cells with tau <= _SIGMA_H h, and those whose
    1 - d kappa is degenerate.  v is zero on singular cells and outside.
    The feet's curvature and normal come from the field; the solution
    keeps the signed distance's gradient and the source values that its
    checks read.  It reads the field on inside cells and, through the
    gradient, on their ring only.
    """
    if f is None:
        f = constant(1.0)
    curve = dom.curve
    grid = field.grid
    centers = field.centers

    inside = field.inside
    d = np.where(inside, field.d, 0.0)
    tau = np.where(inside, np.maximum(field.nearest_lambda - d, 0.0), 0.0)
    t0, t1 = curve.arc_table.t0, curve.arc_table.t1
    for fan in dom.corner_fans:
        j, k = fan.junction, (fan.junction + 1) % t0.size
        at = inside & (((field.nearest_arc == j)
                        & (field.nearest_param == t1[j]))
                       | ((field.nearest_arc == k)
                          & (field.nearest_param == t0[k])))
        tau[at] = np.maximum(fan.cut(centers[at.ravel()]) - d[at], 0.0)

    singular = inside & (tau <= _SIGMA_H * grid.h)
    compute = inside & ~singular
    denom_bad = compute & (1.0 - d * field.nearest_kappa <= _DEGEN)
    singular |= denom_bad
    compute &= ~denom_bad

    v = np.zeros_like(d)
    if np.any(compute):
        v[compute] = ray_quadrature(
            f, centers[compute.ravel()], field.nearest_normal[compute],
            field.d[compute], field.nearest_kappa[compute], tau[compute])

    fvals = np.asarray(f(centers)).reshape(d.shape)
    gx, gy = _signed_gradient(field)
    flux_x = np.where(inside, v * gx, 0.0)
    flux_y = np.where(inside, v * gy, 0.0)
    h = grid.h
    div = np.full_like(d, np.nan)
    div[1:-1, 1:-1] = ((flux_x[1:-1, 2:] - flux_x[1:-1, :-2])
                       + (flux_y[2:, 1:-1] - flux_y[:-2, 1:-1])) / (2.0 * h)
    valid = _erode4(inside) & ~_dilate8(singular)
    residual = np.where(valid, -div - fvals, np.nan)

    return MKSolution(grid=grid, curve=curve, u=d, v=v, tau=tau,
                      residual=residual, inside=inside, singular=singular,
                      valid=valid, gx=gx, gy=gy, source=fvals, field=field)


def residual_summary(sol):
    """(median |r|, max |r|, L1 = h^2 sum |r|) over valid cells."""
    r = np.abs(sol.residual[sol.valid])
    if r.size == 0:
        return 0.0, 0.0, 0.0
    return (_median(r), float(np.max(r)), float(np.sum(r) * sol.h ** 2))


def _median(r):
    """np.median of a non-empty 1-D array, bit for bit.

    np.median's NaN check imports numpy.ma, about 1.3 MB of resident
    memory for one number; NaNs sort last, so the largest value says
    whether there is one.
    """
    n = r.size
    part = np.partition(r, sorted({(n - 1) // 2, n // 2, n - 1}))
    if np.isnan(part[-1]):
        return float("nan")
    if n % 2:
        return float(part[n // 2])
    # np.mean of the two middle values: their sum over 2
    return float((part[n // 2 - 1] + part[n // 2]) / 2)


def complementarity_max(sol):
    """max over valid cells of (1 - |grad u|) * v."""
    mag = np.hypot(sol.gx, sol.gy)
    vals = (1.0 - mag[sol.valid]) * sol.v[sol.valid]
    return float(np.max(np.abs(vals))) if vals.size else 0.0


def eikonal_max_deviation(sol):
    """max | |grad u| - 1 | by central differences on valid cells deeper
    than 2h.

    Valid cells have their 4-neighbourhood inside and no singular cell in
    their 8-neighbourhood: a stencil that straddles the kink of d reports
    an O(1) defect that says nothing about the field away from the
    singular set.
    """
    elig = sol.valid & (sol.u > 2 * sol.h)
    if not np.any(elig):
        return 0.0
    mag = np.hypot(sol.gx, sol.gy)
    return float(np.max(np.abs(mag[elig] - 1.0)))


def weak_form_check(sol):
    """Tent test function psi = min(d/eps, 1), eps in _TENT_EPS: flux
    integral against int f psi, with the solution's own source f.
    Returns a list of (eps, lhs, rhs, abs_err) records."""
    h2 = sol.h ** 2
    d = sol.field.d
    out = []
    for eps in _TENT_EPS:
        collar = sol.inside & (d < eps)
        lhs = float(np.sum(sol.v[collar]
                           * (sol.gx[collar] ** 2 + sol.gy[collar] ** 2))
                    * h2 / eps)
        psi = np.minimum(d / eps, 1.0)
        rhs = float(np.sum(sol.source[sol.inside] * psi[sol.inside]) * h2)
        out.append({"eps": float(eps), "lhs": lhs, "rhs": rhs,
                    "abs_err": abs(lhs - rhs)})
    return out


def mk_verdict(dom, gamma=1.0):
    """Ball verdict from the boundary trace of v_f with constant source.

    The trace is gamma phi, so the decision delegates to the criterion
    report; the trace identity is spot-checked at 16 smooth table rows, one
    ray_quadrature call per row (a row's value depends on its batch).
    Returns (SymmetryReport, max trace deviation / gamma).
    """
    if gamma <= 0.0:
        raise HypothesisViolationError("source constant gamma must be > 0")
    table = dom.table
    report = criterion_report(dom)
    f = constant(gamma)
    smooth = np.flatnonzero(table.smooth())
    picks = smooth[:: max(1, smooth.size // 16)][:16]
    err = 0.0
    for i in picks:
        row = slice(i, i + 1)
        val = ray_quadrature(f, table.position[row], table.normal[row],
                             np.zeros(1), table.kappa[row], table.lam[row])
        err = max(err, abs(float(val[0]) - gamma * float(table.phi[i])))
    return report, err / gamma


def export_mk_csv(sol, path):
    """Cellwise CSV: x, y, u, v, tau, residual, singular (row-major)."""
    grid = sol.grid
    xs, ys = grid.xs, grid.ys
    with open(path, "w") as fh:
        fh.write("x,y,u,v,tau,residual,singular\n")
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                fh.write("%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%d\n" % (
                    xs[ix], ys[iy], sol.u[iy, ix], sol.v[iy, ix],
                    sol.tau[iy, ix], sol.residual[iy, ix],
                    int(sol.singular[iy, ix])))
