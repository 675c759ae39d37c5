"""Nearest-point projection onto a boundary curve.

Two projectors share one interface:

* CurveProjector: global scan over a dense midpoint site table, then a
  golden-section refinement on the owning arc (parameter tolerance 1e-10).
  Rows are refined per arc class, not per arc: one vectorized search runs
  over every row whose arc has the same class (segments, circular arcs, ...).
* FieldProjector (in distfield): seeds from a precomputed grid instead.

project() returns a Projection struct.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .arcs import arc_runs
from .quadrature import golden_min_vec

__all__ = ["Projection", "CurveProjector", "cyclic_dist"]


@dataclass(frozen=True, eq=False)
class Projection:
    point: np.ndarray      # (n, 2) nearest boundary points
    dist: np.ndarray       # (n,)
    s: np.ndarray          # (n,) arclength of the nearest point
    arc_index: np.ndarray  # (n,) int
    param: np.ndarray      # (n,)
    kappa: np.ndarray      # (n,) boundary curvature at the nearest point


def cyclic_dist(s1, s2, length):
    """Cyclic arclength distance."""
    d = np.abs(np.asarray(s1, dtype=float) - np.asarray(s2, dtype=float))
    return np.minimum(d, length - d)


class CurveProjector:
    """Dense-sampling projector; spacing = mean arclength site spacing."""

    def __init__(self, curve, m=4096):
        self.curve = curve
        self.sites = curve.dense_sites(m)
        self.length = curve.length
        self.spacing = self.sites.spacing

    def project(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        idx, _ = _kernels.nearest_site(points, self.sites.points)
        return self.project_from_sites(points, idx)

    def project_from_sites(self, points, idx):
        """Projection of (n, 2) points seeded by their nearest-site indices."""
        arc_index = self.sites.arc_index[idx]
        seed = self.sites.params[idx]
        param = refine_on_arcs(self.curve, points, arc_index, seed,
                               self.sites.dparam)
        g = self.curve.geometry(arc_index, param)
        dist = np.linalg.norm(points - g.position, axis=1)
        return Projection(point=g.position, dist=dist, s=g.s,
                          arc_index=arc_index, param=param,
                          kappa=g.curvature)


def refine_on_arcs(curve, points, arc_index, seed_param, dparam, half_width=None):
    """Golden-section refine |Y_a(p) - x|^2 around per-point seeds.

    dparam: (number of arcs,) parameter step of the site table per arc.
    half_width: optional per-point bracket half-width (parameter units).
    Defaults to the site-table parameter step of the owning arc; callers
    whose seeds are coarser than the site table (grid-seeded projection)
    must widen accordingly.  One search runs per arc class, through the
    class's Arc.batch_point.
    """
    arcs = curve.arcs
    t0 = np.array([arc.t0 for arc in arcs])
    t1 = np.array([arc.t1 for arc in arcs])
    half = dparam[arc_index] if half_width is None else half_width
    lo = np.maximum(seed_param - half, t0[arc_index])
    hi = np.minimum(seed_param + half, t1[arc_index])
    classes = list(dict.fromkeys(type(arc) for arc in arcs))
    arc_class = np.array([classes.index(type(arc)) for arc in arcs])
    param = np.empty(seed_param.size)
    for c, rows in arc_runs(arc_class[arc_index]):
        used, which = np.unique(arc_index[rows], return_inverse=True)
        point = classes[c].batch_point([arcs[a] for a in used], which)
        pts = points[rows]

        def dist2(p, point=point, pts=pts):
            delta = point(p) - pts
            return np.einsum("ij,ij->i", delta, delta)

        param[rows], _ = golden_min_vec(dist2, lo[rows], hi[rows])
    return param
