"""Grid distance fields: d(x), insideness, nearest-point data, singular set.

The singular set Sigma (points with ambiguous nearest boundary point) is
flagged through the multiplicity gap: second-best site distance, taken over
local minima of the per-cell distance sequence at least min_sep away in
arclength, minus the best.  Cells with gap <= sigma_threshold (default 2h)
are flagged; the flagged area should shrink like h for curve-like Sigma.
Nearest site and flag come from one block-pruned scan of the site table
(``_kernels.nearest_site_gap``); insideness from an even-odd scanline test
per grid row (``_kernels.inside_polygon``).
"""

import csv
from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import ConfigurationError, ConstructionError
from .projector import CurveProjector, Projection, refine_on_arcs

__all__ = [
    "GridSpec",
    "DistanceField",
    "FieldProjector",
    "build_distance_field",
    "project",
    "singular_measure",
    "eikonal_max_deviation",
    "export_field_csv",
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
    def xmax(self):
        return self.xmin + self.nx * self.h

    @property
    def ymax(self):
        return self.ymin + self.ny * self.h

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

    def cell_of(self, x):
        ix = int(np.floor((x[0] - self.xmin) / self.h))
        iy = int(np.floor((x[1] - self.ymin) / self.h))
        if not (0 <= ix < self.nx and 0 <= iy < self.ny):
            raise ConfigurationError("point outside the grid box")
        return iy, ix

    @staticmethod
    def from_curve(curve, nx=256, ny=None, margin=None):
        """Box = curve bbox + margin, then expanded to square cells.

        The margin must cover at least 2h so boundary stencils stay in-box.
        """
        if ny is None:
            ny = nx
        x0, x1, y0, y1 = curve.bbox
        w, ht = x1 - x0, y1 - y0
        if margin is None:
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
    def with_h(curve, h, margin=None):
        """Box = curve bbox + margin at an exact cell size h."""
        x0, x1, y0, y1 = curve.bbox
        w, ht = x1 - x0, y1 - y0
        if margin is None:
            margin = max(0.05 * max(w, ht), 3.0 * h)
        margin = max(margin, 2.5 * h)
        nx = max(int(np.ceil((w + 2 * margin) / h)), 16)
        ny = max(int(np.ceil((ht + 2 * margin) / h)), 16)
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        return GridSpec(xmin=cx - 0.5 * nx * h, ymin=cy - 0.5 * ny * h,
                        nx=nx, ny=ny, h=h)


@dataclass(eq=False)
class DistanceField:
    grid: GridSpec
    curve: object
    d: np.ndarray                 # (ny, nx) distance to the curve
    inside: np.ndarray            # (ny, nx) bool
    sigma_mask: np.ndarray        # (ny, nx) bool, inside cells near Sigma
    focal_mask: np.ndarray        # (ny, nx) bool, d within pad of 1/kappa
    nearest_arc: np.ndarray       # (ny, nx) int
    nearest_param: np.ndarray     # (ny, nx)
    sigma_threshold: float
    min_sep: float
    projector: CurveProjector

    def signed(self):
        """Signed distance: positive inside, negative outside."""
        return np.where(self.inside, self.d, -self.d)


def build_distance_field(curve, grid=None, nx=256, m=4096, margin=None,
                         sigma_threshold=None, min_sep=None):
    """Distance field on a grid around the curve.

    For each cell center: nearest of ~m dense boundary sites, with the
    thresholded multiplicity gap, from a block-pruned scan that returns
    the brute scan's result bit for bit; then golden-section refinement
    on the owning arc to parameter tolerance 1e-10.
    """
    if grid is None:
        grid = GridSpec.from_curve(curve, nx=nx, margin=margin)
    h = grid.h
    x0, x1, y0, y1 = curve.bbox
    if (x0 < grid.xmin + h or x1 > grid.xmin + grid.nx * h - h
            or y0 < grid.ymin + h or y1 > grid.ymin + grid.ny * h - h):
        raise ConstructionError(
            "grid box does not contain the curve (one-cell margin required)")
    if sigma_threshold is None:
        sigma_threshold = 2.0 * h
    if min_sep is None:
        min_sep = 10.0 * h
    proj = CurveProjector(curve, m=m)
    centers = grid.centers()
    idx, _, ambiguous = _kernels.nearest_site_gap(
        centers, proj.sites.points, proj.sites.s, proj.length, min_sep,
        sigma_threshold, curve.corner_arclengths())
    p = proj.project_from_sites(centers, idx)
    poly = curve.winding_polygon(max(2048, m // 2))
    shape = (grid.ny, grid.nx)
    inside = _kernels.inside_polygon(centers, poly).reshape(shape)
    d = p.dist.reshape(shape)
    # The multiplicity gap is blind at focal points (unique projection but
    # exploding level-set curvature); flag cells whose depth comes within a
    # pad of the foot's focal depth 1/kappa.  Pad ~ sqrt(h) keeps the
    # flagged area of a point singularity shrinking linearly in h.
    focal_pad = max(3.0 * h, 0.25 * np.sqrt(h))
    with np.errstate(divide="ignore"):
        focal_depth = np.where(p.kappa > 0, 1.0 / np.maximum(p.kappa, 1e-300),
                               np.inf)
    focal = inside & (focal_depth.reshape(shape) - d <= focal_pad)
    sigma = inside & (ambiguous.reshape(shape) | focal)
    field = DistanceField(
        grid=grid, curve=curve, d=d, inside=inside, sigma_mask=sigma,
        focal_mask=focal,
        nearest_arc=p.arc_index.reshape(shape),
        nearest_param=p.param.reshape(shape), sigma_threshold=sigma_threshold,
        min_sep=min_sep, projector=proj)
    for arr in (field.d, field.inside, field.sigma_mask, field.focal_mask,
                field.nearest_arc, field.nearest_param):
        arr.setflags(write=False)
    return field


def project(field, x):
    """Nearest boundary point of x via the field's stored seeds.

    Seeds from the owning cell (bilinear parameter blend when the four
    surrounding cells agree on the owning arc and a tight parameter
    window), then one local re-minimization on the arc.  Returns
    (point, dist, is_singular).
    """
    x = np.asarray(x, dtype=float)
    iy, ix = field.grid.cell_of(x)
    seed_arc = np.asarray([int(field.nearest_arc[iy, ix])])
    seed_param = float(field.nearest_param[iy, ix])
    blend = _bilinear_param(field, x)
    if blend is not None:
        seed_param = blend
    seed_param = np.asarray([seed_param])
    dparam = field.projector._dparam
    depth = np.asarray([float(field.d[iy, ix])])
    half = _grid_half_widths(field.curve, seed_arc, seed_param,
                             field.grid.h, dparam, depth)
    param = refine_on_arcs(field.curve, x[None, :], seed_arc, seed_param,
                           dparam, half_width=half)
    g = field.curve.geometry(seed_arc, param)
    dist = float(np.linalg.norm(x - g.position[0]))
    return g.position[0].copy(), dist, bool(field.sigma_mask[iy, ix])


def _bilinear_param(field, x):
    grid = field.grid
    fx = (x[0] - grid.xmin) / grid.h - 0.5
    fy = (x[1] - grid.ymin) / grid.h - 0.5
    ix0, iy0 = int(np.floor(fx)), int(np.floor(fy))
    if not (0 <= ix0 < grid.nx - 1 and 0 <= iy0 < grid.ny - 1):
        return None
    arcs = field.nearest_arc[iy0:iy0 + 2, ix0:ix0 + 2]
    if not np.all(arcs == arcs[0, 0]):
        return None
    params = field.nearest_param[iy0:iy0 + 2, ix0:ix0 + 2]
    arc = field.curve.arcs[int(arcs[0, 0])]
    window = 4.0 * field.projector._dparam[int(arcs[0, 0])]
    if params.max() - params.min() > window:
        return None
    tx, ty = fx - ix0, fy - iy0
    return float((1 - ty) * ((1 - tx) * params[0, 0] + tx * params[0, 1])
                 + ty * ((1 - tx) * params[1, 0] + tx * params[1, 1]))


def _grid_half_widths(curve, arc_index, param, h, dparam, depth):
    """Bracket half-widths for grid-seeded refinement.

    A seed read off a cell center can sit up to ~h sqrt(2)/2 away from the
    query, so the bracket must cover ~2h of arclength on top of the site
    spacing; convert with the local parametric speed.  The foot parameter
    responds to query motion with gain 1/(1 - d kappa), which blows up
    toward the medial set; widen accordingly (capped at 50x).
    """
    half = np.empty(param.size)
    for a in np.unique(arc_index):
        m = arc_index == a
        arc = curve.arcs[int(a)]
        p = param[m]
        v = arc.velocity(p)
        acc = arc.acceleration(p)
        speed = np.maximum(np.linalg.norm(v, axis=1), 1e-30)
        kappa = (v[:, 0] * acc[:, 1] - v[:, 1] * acc[:, 0]) / speed**3
        gain = 1.0 / np.clip(1.0 - depth[m] * kappa, 0.02, 1.0)
        half[m] = 2.2 * h * gain / speed + dparam[int(a)]
    return half


class FieldProjector:
    """Projection interface backed by a DistanceField (vectorized seeds)."""

    def __init__(self, field):
        self.field = field
        self.curve = field.curve
        self.length = field.curve.length
        self.spacing = field.grid.h

    def project(self, points):
        field = self.field
        grid = field.grid
        points = np.atleast_2d(np.asarray(points, dtype=float))
        ix = np.clip(((points[:, 0] - grid.xmin) / grid.h).astype(int), 0, grid.nx - 1)
        iy = np.clip(((points[:, 1] - grid.ymin) / grid.h).astype(int), 0, grid.ny - 1)
        arc_index = field.nearest_arc[iy, ix].astype(int)
        seed = field.nearest_param[iy, ix].astype(float)
        dparam = field.projector._dparam
        depth = field.d[iy, ix].astype(float)
        half = _grid_half_widths(self.curve, arc_index, seed, grid.h,
                                 dparam, depth)
        param = refine_on_arcs(self.curve, points, arc_index, seed,
                               dparam, half_width=half)
        g = self.curve.geometry(arc_index, param)
        dist = np.linalg.norm(points - g.position, axis=1)
        return Projection(point=g.position, dist=dist, s=g.s,
                          arc_index=arc_index, param=param,
                          kappa=g.curvature)


def singular_measure(field):
    """Area of the flagged singular-set cover: count * h^2."""
    return float(np.sum(field.sigma_mask) * field.grid.h ** 2)


def eikonal_max_deviation(field):
    """max | |grad d| - 1 | by central differences on eligible cells.

    Eligible: cell and 4-neighborhood inside, d > 2h, and the cell is not
    flagged nor adjacent (8-neighborhood) to a flagged cell: a stencil
    that straddles the kink of d reports an O(1) defect that says nothing
    about the field away from the singular set.
    """
    d = field.d
    h = field.grid.h
    near_sigma = field.sigma_mask.copy()
    near_sigma[1:, :] |= field.sigma_mask[:-1, :]
    near_sigma[:-1, :] |= field.sigma_mask[1:, :]
    near_sigma[:, 1:] |= near_sigma[:, :-1].copy()
    near_sigma[:, :-1] |= near_sigma[:, 1:].copy()
    ok = field.inside & ~near_sigma & (d > 2 * h)
    elig = ok.copy()
    elig[1:-1, 1:-1] &= (field.inside[1:-1, :-2] & field.inside[1:-1, 2:]
                         & field.inside[:-2, 1:-1] & field.inside[2:, 1:-1])
    elig[0, :] = elig[-1, :] = False
    elig[:, 0] = elig[:, -1] = False
    gx = np.zeros_like(d)
    gy = np.zeros_like(d)
    gx[1:-1, 1:-1] = (d[1:-1, 2:] - d[1:-1, :-2]) / (2 * h)
    gy[1:-1, 1:-1] = (d[2:, 1:-1] - d[:-2, 1:-1]) / (2 * h)
    mag = np.hypot(gx, gy)
    if not np.any(elig):
        return 0.0
    return float(np.max(np.abs(mag[elig] - 1.0)))


def export_field_csv(field, path):
    """CSV rows x,y,d,inside,sigma over cells, row-major with x fastest."""
    grid = field.grid
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "d", "inside", "sigma"])
        xs, ys = grid.xs, grid.ys
        for iy in range(grid.ny):
            for ix in range(grid.nx):
                w.writerow([f"{xs[ix]:.17g}", f"{ys[iy]:.17g}",
                            f"{field.d[iy, ix]:.17g}",
                            int(field.inside[iy, ix]),
                            int(field.sigma_mask[iy, ix])])
