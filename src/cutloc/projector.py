"""Nearest-point projection onto a boundary curve.

Two projectors share one interface:

* CurveProjector: global scan over a dense midpoint site table, then a
  golden-section refinement on the owning arc (parameter tolerance 1e-10).
* FieldProjector (in distfield): seeds from a precomputed grid instead.

project() returns a Projection struct.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
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
        # per-arc parameter step of the site table: the refinement bracket
        self._dparam = {}
        for a in np.unique(self.sites.arc_index):
            p = self.sites.params[self.sites.arc_index == a]
            self._dparam[int(a)] = float(p[1] - p[0]) if p.size > 1 else \
                float(curve.arcs[a].t1 - curve.arcs[a].t0)

    def project(self, points):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        idx, _ = _kernels.nearest_site(points, self.sites.points)
        return self.project_from_sites(points, idx)

    def project_from_sites(self, points, idx):
        """Projection of (n, 2) points seeded by their nearest-site indices."""
        arc_index = self.sites.arc_index[idx]
        seed = self.sites.params[idx]
        param = refine_on_arcs(self.curve, points, arc_index, seed, self._dparam)
        g = self.curve.geometry(arc_index, param)
        dist = np.linalg.norm(points - g.position, axis=1)
        return Projection(point=g.position, dist=dist, s=g.s,
                          arc_index=arc_index, param=param,
                          kappa=g.curvature)


def refine_on_arcs(curve, points, arc_index, seed_param, dparam, half_width=None):
    """Golden-section refine |Y_a(p) - x|^2 around per-point seeds.

    half_width: optional per-point bracket half-width (parameter units).
    Defaults to the site-table parameter step of the owning arc; callers
    whose seeds are coarser than the site table (grid-seeded projection)
    must widen accordingly.
    """
    param = np.empty(seed_param.size)
    for a in np.unique(arc_index):
        m = arc_index == a
        arc = curve.arcs[a]
        half = dparam[int(a)] if half_width is None else half_width[m]
        lo = np.maximum(seed_param[m] - half, arc.t0)
        hi = np.minimum(seed_param[m] + half, arc.t1)
        pts = points[m]

        def dist2(p, arc=arc, pts=pts):
            delta = arc.point(p) - pts
            return np.einsum("ij,ij->i", delta, delta)

        param[m], _ = golden_min_vec(dist2, lo, hi)
    return param
