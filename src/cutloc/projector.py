"""Nearest-point projection onto a boundary curve.

CurveProjector runs the exact block-pruned nearest-site scan of the
curve's one site table (_kernels.nearest_site), then finds the foot on the
owning arc within a bracket of one site step: in closed form on segments
and circular arcs, by safeguarded Newton steps on every other class
(Arc.batch_foot).  Rows are refined per arc kind, not per arc: one
vectorized search runs over every row whose arc has the same kind
(segments, circular arcs, ...), through the curve's ArcTable.  project()
returns a Projection struct.  Only the distance field projects points;
cut values read the site table directly.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .arcs import arc_runs

__all__ = ["Projection", "CurveProjector"]

# rows per foot search: timed at 4096 to 131 072 rows on the 256² ellipse
# grid, 4096 and 8192 tie (0.062 s), and 32 768 rows take 10 % longer with
# 2.7 times the peak of temporaries (10.8 against 4.0 MB)
_FOOT_ROWS = 4096


@dataclass(frozen=True, eq=False)
class Projection:
    point: np.ndarray      # (n, 2) nearest boundary points
    dist: np.ndarray       # (n,)
    s: np.ndarray          # (n,) arclength of the nearest point
    arc_index: np.ndarray  # (n,) int
    param: np.ndarray      # (n,)
    kappa: np.ndarray      # (n,) boundary curvature at the nearest point
    normal: np.ndarray     # (n, 2) outward unit normal at the nearest point


class CurveProjector:
    """Projector onto a curve, seeded by the curve's site table."""

    def __init__(self, curve):
        self.curve = curve
        self.sites = curve.sites

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
                          kappa=g.curvature, normal=g.normal)


def refine_on_arcs(curve, points, arc_index, seed_param, dparam):
    """Foot parameters of points on their arcs, within brackets around seeds.

    The bracket of row i is [seed - half, seed + half] cut to its arc's
    parameter range, with half the site-table parameter step of the
    owning arc (dparam: (number of arcs,) steps), and the foot is the
    bracket's point nearest points[i].  The search runs per arc kind,
    through the batch_foot of the kind's rows (ArcTable.rows), on at most
    _FOOT_ROWS rows at a time.
    """
    table = curve.arc_table
    half = dparam[arc_index]
    lo = np.maximum(seed_param - half, table.t0[arc_index])
    hi = np.minimum(seed_param + half, table.t1[arc_index])
    param = np.empty(seed_param.size)
    for k, rows in arc_runs(table.kind[arc_index]):
        # a row's foot does not depend on the rows searched with it
        for part in np.split(rows, range(_FOOT_ROWS, rows.size, _FOOT_ROWS)):
            param[part] = table.rows(k, arc_index[part]).batch_foot(
                points[part], seed_param[part], lo[part], hi[part])
    return param
