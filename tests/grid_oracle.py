"""Grid-projected cut values: an independent oracle for the ball pass.

``cutloc`` computes cut values by one shrinking-ball pass over a site
table.  This helper computes them another way, from a DistanceField:
FieldProjector seeds each query's foot from the grid cell it falls in
(the foot of the cell's center, projected afresh where the field holds
none), and the cut depth is a bisection on the nearest-point predicate.  The
tests compare the two within a multiple of the grid step.
"""

import numpy as np

from cutloc.arcs import arc_runs
from cutloc.boundary import cyclic_dist
from cutloc.projector import CurveProjector, Projection

_MAX_BISECT = 64


def refine_in_brackets(curve, points, arc_index, seed_param, half_width):
    """Foot parameters of points on their arcs within [seed -+ half_width].

    The bracket is cut to the arc's parameter range; the foot is the
    bracket's point nearest points[i], from the batch_foot of the rows of
    the arc's kind (ArcTable.rows).
    """
    table = curve.arc_table
    lo = np.maximum(seed_param - half_width, table.t0[arc_index])
    hi = np.minimum(seed_param + half_width, table.t1[arc_index])
    param = np.empty(seed_param.size)
    for k, rows in arc_runs(table.kind[arc_index]):
        param[rows] = table.rows(k, arc_index[rows]).batch_foot(
            points[rows], seed_param[rows], lo[rows], hi[rows])
    return param


def _grid_half_widths(curve, arc_index, param, h, dparam, depth):
    """Bracket half-widths for grid-seeded refinement.

    A seed read off a cell center can sit up to ~h sqrt(2)/2 away from the
    query, so the bracket must cover ~2h of arclength on top of the site
    spacing; convert with the local parametric speed.  The foot parameter
    responds to query motion with gain 1/(1 - d kappa), which blows up
    toward the medial set; widen accordingly (capped at 50x).
    """
    g = curve.geometry(arc_index, param)
    gain = 1.0 / np.clip(1.0 - depth * g.curvature, 0.02, 1.0)
    return 2.2 * h * gain / g.speed + dparam[arc_index]


class FieldProjector:
    """Projection interface backed by a DistanceField (vectorized seeds)."""

    def __init__(self, field):
        self.field = field
        self.curve = field.curve
        self.scan = CurveProjector(field.curve)
        self.spacing = field.grid.h

    def project(self, points):
        field = self.field
        grid = field.grid
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ix = np.clip(((points[:, 0] - grid.xmin) / grid.h).astype(int), 0, grid.nx - 1)
        iy = np.clip(((points[:, 1] - grid.ymin) / grid.h).astype(int), 0, grid.ny - 1)
        arc_index = field.nearest_arc[iy, ix].astype(int)
        seed = field.nearest_param[iy, ix].astype(float)
        dparam = self.curve.sites.dparam
        depth = field.d[iy, ix].astype(float)
        # a cell beyond the field's ring holds no foot: project its center
        # with the curve's projector, the scan and arithmetic of every cell
        far = arc_index < 0
        if np.any(far):
            p = self.scan.project(
                field.centers[iy[far] * grid.nx + ix[far]])
            arc_index[far], seed[far], depth[far] = p.arc_index, p.param, p.dist
        half = _grid_half_widths(self.curve, arc_index, seed, grid.h,
                                 dparam, depth)
        param = refine_in_brackets(self.curve, points, arc_index, seed, half)
        g = self.curve.geometry(arc_index, param)
        dist = np.linalg.norm(points - g.position, axis=1)
        return Projection(point=g.position, dist=dist, s=g.s,
                          arc_index=arc_index, param=param,
                          kappa=g.curvature, normal=g.normal)


def cut_predicate(projector, position, normal, s, t, accept, length):
    """P(t): the nearest boundary point of y - t nu(y) is y itself.

    Acceptance is an arclength ball of radius `accept` around s; exact
    equality is unattainable on a sampled boundary.
    """
    position = np.atleast_2d(position)
    normal = np.atleast_2d(normal)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    x = position - t[:, None] * normal
    s_near = projector.project(x).s
    return cyclic_dist(s_near, s, length) <= accept


def _bisect_cut(projector, pos, nrm, s, cap, tol, accept, length):
    """Bisection on cut_predicate.

    Returns the depth where the predicate turns false, or inf for samples
    where it still holds at `cap`.
    """
    n = s.size
    ok0 = cut_predicate(projector, pos, nrm, s, np.full(n, tol), accept,
                        length)
    depth = np.where(ok0, np.inf, 0.0)
    ok_cap = cut_predicate(projector, pos, nrm, s, cap, accept, length)
    solve = ok0 & ~ok_cap
    lo = np.full(n, tol)
    hi = cap.copy()
    for _ in range(_MAX_BISECT):
        gap = hi[solve] - lo[solve]
        if gap.size == 0 or gap.max() <= tol:
            break
        mid = 0.5 * (lo + hi)
        ok = cut_predicate(projector, pos[solve], nrm[solve], s[solve],
                           mid[solve], accept, length)
        sub = np.where(solve)[0]
        lo[sub[ok]] = mid[sub[ok]]
        hi[sub[~ok]] = mid[sub[~ok]]
    depth[solve] = 0.5 * (lo[solve] + hi[solve])
    return depth


def grid_cut_values(table, field):
    """Grid-projected cut values on the samples of a cut table.

    The table's tolerance and corner zones, the acceptance window
    max(5 tol, 3h) and the cap min(1/kappa+, extent) of the ball pass;
    corner-zone samples read 0, like the table's.
    """
    curve = table.curve
    projector = FieldProjector(field)
    accept = max(5.0 * table.tol, 3.0 * projector.spacing)
    lam = np.zeros(len(table))
    rows = np.flatnonzero(table.smooth())
    kplus = np.maximum(table.kappa[rows], 0.0)
    with np.errstate(divide="ignore"):
        cap = np.where(kplus > 0, 1.0 / np.maximum(kplus, 1e-300), np.inf)
    cap = np.minimum(cap, curve.extent)
    depth = _bisect_cut(projector, table.position[rows], table.normal[rows],
                        table.s[rows], cap, table.tol, accept, curve.length)
    lam[rows] = np.minimum(depth, cap)
    return lam
