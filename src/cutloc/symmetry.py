"""Ball-characterization criterion for starshaped planar domains.

Locates the maximal-curvature boundary point y0 from at least _MIN_SMOOTH
smooth samples, tests the two hypotheses (curvature max attained at y0;
phi(y0) >= |Omega|/|boundary|) and reports the verdict.  The paper's
auxiliary function f and the pointwise inequality chain behind the
criterion are test references (tests/conftest.py, tests/test_symmetry.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .boundary import BoundaryPoint
from .cutlocus import corner_zone
from .errors import ConfigurationError
from .quadrature import golden_min_vec

__all__ = [
    "SymmetryReport", "criterion_report", "refine_max_curvature", "diameter",
]

# relative phi spread at or below which the constant-phi route applies
_CONSTANCY_TOL = 1e-3
# fewest smooth samples that y0 is located from
_MIN_SMOOTH = 64


# ----------------------------------------------------------------- reporting

@dataclass(frozen=True, eq=False)
class SymmetryReport:
    y0: BoundaryPoint
    H_max: float
    phi_at_y0: float
    lambda_at_y0: float
    ratio: float
    hypothesis_H: bool
    hypothesis_phi: bool
    phi_constancy: float
    basic_bound_max: float
    corner_status: str        # none | convex-only | concave-present
    starshaped: bool
    verdict: str              # ball | hypotheses-not-met | inapplicable
    note: str
    phi_slack: float
    constancy_tol: float
    samples_used: int


def diameter(curve, n=1024):
    """Max pairwise distance over a boundary polygon sampling.

    Exact: the farthest pair of a point set is an antipodal pair of
    vertices of its convex hull, and rotating calipers list those pairs
    in O(hull) (Shamos 1978).  The pairs are measured as the all-pairs
    maximum measures them, so the result equals it bit for bit.
    """
    pts = curve.winding_polygon(n)
    hull = pts[_convex_hull(pts)]
    i, j = _antipodal_pairs(hull)
    d = hull[i] - hull[j]
    return float(np.sqrt(np.max(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1])))


# sine of the turn below which a hull vertex counts as straight: rounding
# bends a straight run of samples by ~1e-13, a sampled arc by >= 1e-6
_STRAIGHT = 1e-9


def _convex_hull(pts):
    """Indices of the convex hull's vertices of (n, 2) pts, counterclockwise.

    Andrew's monotone chain (1979).  A vertex that turns by less than
    _STRAIGHT is dropped with the rest: it lies so near the chord between
    its neighbours that it is nearer every point than one of them, by
    about the square of the sample spacing, and is never the farthest.
    """
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    # memoryviews hand out Python floats one at a time: lists of the
    # whole sampling would hold 32 bytes per coordinate
    xs, ys = memoryview(pts[order, 0]), memoryview(pts[order, 1])

    def chain(ks):
        h = []
        for k in ks:
            x, y = xs[k], ys[k]
            while len(h) >= 2:
                i, j = h[-2], h[-1]
                x0, y0, x1, y1 = xs[i], ys[i], xs[j], ys[j]
                ux, uy, vx, vy = x1 - x0, y1 - y0, x - x0, y - y0
                cross = ux * vy - uy * vx
                if cross > _STRAIGHT * math.hypot(ux, uy) * math.hypot(vx, vy):
                    break
                h.pop()
            h.append(k)
        return h[:-1]

    ks = range(len(xs))
    hull = chain(ks) + chain(reversed(ks))
    return order[hull] if len(hull) > 1 else order[:1]


def _antipodal_pairs(hull):
    """(i, j) index pairs of hull vertices that hold every antipodal pair.

    hull: (h, 2) vertices, counterclockwise, each turning.  For each edge
    k the caliper parallel to it touches the far side at the vertex where
    the edge direction passes the reverse of edge k's, found by search on
    the unwrapped edge angles; both ends of edge k pair with that vertex
    and its two neighbours, which also covers parallel edges and angles
    off by rounding.
    """
    h = hull.shape[0]
    if h < 3:
        return np.arange(h), np.arange(h)[::-1]
    edge = np.roll(hull, -1, axis=0) - hull
    angle = np.unwrap(np.arctan2(edge[:, 1], edge[:, 0]))
    far = np.searchsorted(np.concatenate([angle, angle + 2.0 * np.pi]),
                          angle + np.pi)
    k = np.arange(h)
    i = np.concatenate([k, (k + 1) % h])
    j = np.concatenate([far, far])
    return (np.repeat(i, 3),
            (np.repeat(j, 3) + np.tile([-1, 0, 1], 2 * h)) % h)


def refine_max_curvature(table):
    """Golden-section refinement of the sampled curvature argmax.

    Seeds from the best smooth point over the table samples and the
    curve's site table (at least 8 sites per arc, so curved arcs
    shorter than the sample spacing are not missed) and searches two
    spacings of the seed's set either side, within the owning arc.
    Returns (BoundaryPoint, kappa_max).  A table with fewer than
    _MIN_SMOOTH smooth samples is a ConfigurationError: every reader of
    y0 (report, mk, web) refuses it alike.
    """
    curve = table.curve
    idx = np.flatnonzero(table.smooth())
    if idx.size < _MIN_SMOOTH:
        raise ConfigurationError(
            f"only {idx.size} smooth samples; need at least {_MIN_SMOOTH}")
    i = idx[int(np.argmax(table.kappa[idx]))]
    a, t = int(table.arc_index[i]), float(table.param[i])
    (vel,) = curve.arc_table.evaluate([a], "velocity")(np.array([t]))
    speed = max(float(np.linalg.norm(vel[0])), 1e-30)
    dp = (curve.length / len(table)) / speed
    sites = curve.sites
    kappa = curve.curvature(sites.arc_index, sites.params)
    kappa[corner_zone(curve, sites.s, table.tol)] = -np.inf
    j = int(np.argmax(kappa))
    if kappa[j] > table.kappa[i]:
        a, t = int(sites.arc_index[j]), float(sites.params[j])
        dp = sites.dparam[a]
    lo = np.array([max(curve.arc_table.t0[a], t - 2.0 * dp)])
    hi = np.array([min(curve.arc_table.t1[a], t + 2.0 * dp)])

    def neg_kappa(p):
        return -curve.curvature(np.full(p.shape, a), p)

    t_best, neg = golden_min_vec(neg_kappa, lo, hi)
    y0 = curve.geometry([a], [float(t_best[0])]).point(0)
    return y0, float(-neg[0])


def criterion_report(dom):
    """Assemble the ball-characterization report of a Domain.

    The phi hypothesis allows the domain's phi_slack; the constant-phi
    route needs a relative phi spread of at most _CONSTANCY_TOL.  lambda(y0)
    comes from the curve's site table and the domain's tolerance.
    """
    table = dom.table
    smooth = table.smooth()
    ratio = dom.ratio
    y0, H_max = dom.y0, dom.H_max
    lam0 = dom.lambda_y0
    phi0 = dom.phi_y0

    hyp_H = H_max > 0.0
    hyp_phi = bool(phi0 >= ratio - dom.phi_slack)
    ph = table.phi[smooth]
    mean_phi = float(np.mean(ph))
    constancy = float((np.max(ph) - np.min(ph)) / max(abs(mean_phi), 1e-300))
    basic = float(np.max(ph * table.kappa[smooth]))
    corner_status = dom.curve.corner_status
    starshaped = dom.starshaped

    notes = []
    if corner_status == "concave-present":
        verdict = "inapplicable"
        notes.append("concave corners present")
        if constancy <= _CONSTANCY_TOL:
            notes.append(
                "phi is constant on the smooth part, yet the criterion "
                "does not apply: such a domain need not be a ball")
    elif not starshaped:
        verdict = "inapplicable"
        notes.append("not starshaped with respect to the origin")
    elif corner_status == "none" and hyp_H and hyp_phi:
        verdict = "ball"
    elif constancy <= _CONSTANCY_TOL:
        verdict = "ball"
        notes.append("constant-phi route")
    else:
        verdict = "hypotheses-not-met"
        if corner_status == "convex-only":
            notes.append("corners present and phi is not constant "
                         f"(spread {constancy:.3g})")
        if not hyp_H:
            notes.append("no positive curvature maximum on smooth samples")
        if not hyp_phi:
            notes.append(f"phi(y0)={phi0:.6g} < ratio={ratio:.6g}")
        if hyp_phi and corner_status == "none":
            notes.append(f"phi spread {constancy:.3g} exceeds "
                         f"{_CONSTANCY_TOL:.3g}")

    return SymmetryReport(
        y0=y0, H_max=H_max, phi_at_y0=phi0, lambda_at_y0=lam0, ratio=ratio,
        hypothesis_H=hyp_H, hypothesis_phi=hyp_phi, phi_constancy=constancy,
        basic_bound_max=basic, corner_status=corner_status,
        starshaped=bool(starshaped), verdict=verdict, note="; ".join(notes),
        phi_slack=dom.phi_slack,
        constancy_tol=_CONSTANCY_TOL, samples_used=len(table))
