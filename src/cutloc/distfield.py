"""Grid distance fields: d(x), insideness and nearest-point data.

The nearest site of every cell comes from one exact block-pruned scan of
the site table (``_kernels.nearest_site``), and its foot from a search on
the site's arc; insideness from an even-odd scanline test per grid row
(``_kernels.inside_polygon``), which ``inside_mask`` runs alone for callers
that only count inside cells.  The field keeps the geometry of each
cell's foot (arclength, curvature, outward normal), evaluated once with
the foot, so that no reader evaluates the curve at the feet again.  The
singular set is not a property of the field: ``mk.vf_field`` reads it
off the cut values at the cells' feet.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigurationError, ConstructionError
from .projector import CurveProjector

__all__ = [
    "GridSpec",
    "DistanceField",
    "build_distance_field",
    "inside_mask",
]


@dataclass(frozen=True)
class GridSpec:
    """Uniform square-cell grid; cell centers at origin + (i + 1/2) h."""

    xmin: float
    ymin: float
    nx: int
    ny: int
    h: float

    def __post_init__(self):
        if self.nx < 16 or self.ny < 16:
            raise ConfigurationError("grid needs nx, ny >= 16")
        if self.h <= 0:
            raise ConfigurationError("grid spacing must be positive")

    @property
    def xs(self):
        return self.xmin + (np.arange(self.nx) + 0.5) * self.h

    @property
    def ys(self):
        return self.ymin + (np.arange(self.ny) + 0.5) * self.h

    def centers(self):
        """(ny*nx, 2) cell centers, row-major with x fastest."""
        gx, gy = np.meshgrid(self.xs, self.ys)
        return np.column_stack([gx.ravel(), gy.ravel()])

    @staticmethod
    def from_curve(curve, nx, ny=None):
        """Box = curve bbox + margin, then expanded to square cells.

        The margin must cover at least 2h so boundary stencils stay in-box.
        """
        if ny is None:
            ny = nx
        x0, x1, y0, y1 = curve.bbox
        w, ht = x1 - x0, y1 - y0
        margin = max(0.05 * max(w, ht), 2.5 * max(w, ht) / (min(nx, ny) - 5))
        bw, bh = w + 2 * margin, ht + 2 * margin
        h = max(bw / nx, bh / ny)
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        spec = GridSpec(xmin=cx - 0.5 * nx * h, ymin=cy - 0.5 * ny * h,
                        nx=nx, ny=ny, h=h)
        if min(0.5 * (nx * h - w), 0.5 * (ny * h - ht)) < 2 * h:
            raise ConfigurationError("margin below 2h; enlarge margin or grid")
        return spec

    @staticmethod
    def with_h(curve, h):
        """Box = curve bbox + margin at an exact cell size h."""
        x0, x1, y0, y1 = curve.bbox
        w, ht = x1 - x0, y1 - y0
        margin = max(0.05 * max(w, ht), 3.0 * h)
        nx = max(int(np.ceil((w + 2 * margin) / h)), 16)
        ny = max(int(np.ceil((ht + 2 * margin) / h)), 16)
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        return GridSpec(xmin=cx - 0.5 * nx * h, ymin=cy - 0.5 * ny * h,
                        nx=nx, ny=ny, h=h)


@dataclass(eq=False)
class DistanceField:
    """Distance, insideness and the foot of every cell center.

    The foot of a cell is its nearest boundary point: its arc and
    parameter, and the arclength, signed curvature and outward unit
    normal there, each equal bit for bit to curve.geometry at
    (nearest_arc, nearest_param).  Every array is read-only.
    """

    grid: GridSpec
    curve: object
    d: np.ndarray                 # (ny, nx) distance to the curve
    inside: np.ndarray            # (ny, nx) bool
    nearest_arc: np.ndarray       # (ny, nx) int
    nearest_param: np.ndarray     # (ny, nx)
    nearest_s: np.ndarray         # (ny, nx) arclength of the foot
    nearest_kappa: np.ndarray     # (ny, nx) curvature at the foot
    nearest_normal: np.ndarray    # (ny, nx, 2) outward normal at the foot
    centers: np.ndarray           # (ny*nx, 2) grid.centers()
    projector: CurveProjector

    def signed(self):
        """Signed distance: positive inside, negative outside."""
        return np.where(self.inside, self.d, -self.d)


def build_distance_field(curve, grid, m=4096):
    """Distance field on a grid around the curve.

    For each cell center: the nearest of ~m dense boundary sites, from a
    block-pruned scan that returns the brute scan's result bit for bit;
    then the foot on the owning arc within one site step of the nearest
    site, in closed form on segments and circular arcs and by safeguarded
    Newton steps on every other arc class, with the foot's arclength,
    curvature and normal.
    """
    centers = grid.centers()
    inside = _inside(curve, grid, centers)
    proj = CurveProjector(curve, m=m)
    idx, _ = _kernels.nearest_site(centers, proj.sites.points)
    p = proj.project_from_sites(centers, idx)
    shape = (grid.ny, grid.nx)
    field = DistanceField(
        grid=grid, curve=curve, d=p.dist.reshape(shape), inside=inside,
        nearest_arc=p.arc_index.reshape(shape),
        nearest_param=p.param.reshape(shape), nearest_s=p.s.reshape(shape),
        nearest_kappa=p.kappa.reshape(shape),
        nearest_normal=p.normal.reshape(shape + (2,)), centers=centers,
        projector=proj)
    for arr in (field.d, field.inside, field.nearest_arc,
                field.nearest_param, field.nearest_s, field.nearest_kappa,
                field.nearest_normal, field.centers):
        arr.setflags(write=False)
    return field


def inside_mask(curve, grid):
    """(ny, nx) bool: cell centers inside the curve.

    An even-odd scanline test per grid row against the curve's 2048-point
    winding polygon.  The grid box must hold the curve with a one-cell
    margin, else ConstructionError.
    """
    return _inside(curve, grid, grid.centers())


def _inside(curve, grid, centers):
    """inside_mask on the grid's centers, built by the caller."""
    h = grid.h
    x0, x1, y0, y1 = curve.bbox
    if (x0 < grid.xmin + h or x1 > grid.xmin + grid.nx * h - h
            or y0 < grid.ymin + h or y1 > grid.ymin + grid.ny * h - h):
        raise ConstructionError(
            "grid box does not contain the curve (one-cell margin required)")
    inside = _kernels.inside_polygon(centers, curve.winding_polygon(2048))
    return inside.reshape(grid.ny, grid.nx)
