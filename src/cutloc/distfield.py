"""Grid distance fields: d(x), insideness and nearest-point data.

A field holds values on the cells a transport run reads: the inside cells
and their ring.  The nearest site of such a cell is the one a dense
argmin over the site table returns: found among a few sites around a
local foot where a cut value certifies it, and by one exact block-pruned
scan (``_kernels.nearest_site``) elsewhere.  Its foot comes from a search
on the site's arc; insideness from ``inside_mask``, an even-odd scanline
test per grid row (``_kernels.inside_polygon``) and the package's one
inside test, which ``integrals.cov_residual`` runs too.  The field keeps
the geometry of each cell's foot (arclength, curvature, outward normal)
and the cut value there, evaluated once with the foot, so that no reader
evaluates the curve at the feet again.  The singular set is not a property of the
field: ``mk.vf_field`` reads it off the cut values at the cells' feet.
"""

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .boundary import cyclic_dist
from .errors import ConfigurationError, ConstructionError
from .projector import CurveProjector

__all__ = [
    "GridSpec",
    "DistanceField",
    "build_distance_field",
    "inside_mask",
]

# sites on each side of a cell's walked site in the certified argmin
_WINDOW = 24
# cells per side of the blocks whose one nearest-site scan seeds the walks
_SEED_STRIDE = 4
# walk steps before a cell goes to the full scan
_WALK_STEPS = 16
# inside cells per run of the certified path
_CELL_ROWS = 4096
# cells per chunk of the window argmin: 160 x 49 pairs, a quarter of the
# pair budget, per temporary.  Whole-budget chunks measured no faster on
# the ellipse and square at 96² and raised the field's traced peak there
# from 2.04 / 2.22 to 2.20 / 2.69 MB, above the full scan's 1.95 / 2.20 MB.
_WINDOW_ROWS = 160


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


@dataclass(eq=False)
class DistanceField:
    """Distance, insideness and the foot of the cells a transport run reads.

    Those cells (the kept cells) are the inside cells and their ring: every
    cell one step in x or y from an inside cell.  The ring is what the
    central differences of the signed distance at inside cells read; every
    other reader of a field in mk (the ray integrals, the singular set,
    the tent collars of weak_form_check) takes inside cells only.  The
    foot of a kept cell is its nearest boundary point: its arc and
    parameter, and the arclength, signed curvature and outward unit
    normal there, each equal bit for bit to curve.geometry at
    (nearest_arc, nearest_param), and the cut value at the foot,
    interpolated from the domain's table (CutTable.lambda_at).  Cells
    beyond the ring hold a fill: nearest_arc is -1, and d, nearest_param,
    nearest_s, nearest_kappa, nearest_normal and nearest_lambda are NaN.
    Every array is read-only.
    """

    grid: GridSpec
    curve: object
    d: np.ndarray                 # (ny, nx) distance to the curve
    inside: np.ndarray            # (ny, nx) bool
    nearest_arc: np.ndarray       # (ny, nx) int, -1 beyond the ring
    nearest_param: np.ndarray     # (ny, nx)
    nearest_s: np.ndarray         # (ny, nx) arclength of the foot
    nearest_kappa: np.ndarray     # (ny, nx) curvature at the foot
    nearest_normal: np.ndarray    # (ny, nx, 2) outward normal at the foot
    nearest_lambda: np.ndarray    # (ny, nx) cut value at the foot
    centers: np.ndarray           # (ny*nx, 2) grid.centers()

    def signed(self):
        """Signed distance: positive inside, negative outside, NaN beyond
        the ring."""
        return np.where(self.inside, self.d, -self.d)


def build_distance_field(dom, grid):
    """Distance field of a Domain's curve on the kept cells of a grid.

    The nearest site of a kept cell, among the curve's sites
    (BoundaryCurve.sites), is the one an argmin over every site returns:
    squared distances, ties to the lowest index.  Inside cells whose site a
    cut value certifies take it from an argmin over the 2 _WINDOW + 1 sites
    around a local foot (_certified_feet); every other kept cell takes
    the exact block-pruned scan (_kernels.nearest_site).  Each foot then
    lies on the owning arc within one site step of its site, in closed
    form on segments and circular arcs and by safeguarded Newton steps on
    every other arc class (CurveProjector.project_from_sites), with its
    arclength, curvature, normal and cut value (CutTable.lambda_at).
    Both paths give the same site, so the same foot, bit for bit.  Cells
    beyond the ring hold the fill that DistanceField documents.

    The certificate.  Let b be the window's argmin, at distance r from
    the cell center x; y its foot, with outward normal nu; and
    x - y = -d nu + e with d >= 0 and e tangential, eta = |e|.  Let
    lambda* = lambda~(y) - accept, with lambda~ the table's cut value
    interpolated at y and accept its arclength window, and
    tau = lambda* - d > 0.  Suppose the open ball of radius lambda* about
    x' = y - lambda* nu holds no boundary point z farther than accept +
    gap from y in arclength (gap: the table's largest sample spacing).
    For such z, seen at the angle theta from x' (theta = 0 at y), and
    x = y - d nu,

        |z - x|^2 - d^2 >= 2 lambda* tau (1 - cos theta),

    with equality at |z - x'| = lambda*, the left side growing with
    |z - x'|.
    With w = z - y the ball gives |w|^2 + 2 lambda* <w, nu> >= 0.  If z
    is no farther from x than b, then |z - (y - d nu)| <= r + eta, so
    |w|^2 + 2 d <w, nu> <= delta = (r + eta)^2 - d^2.  lambda* times the
    second minus d times the first:

        tau |w|^2 <= lambda* delta,  so  |z - y| <= rho with
        rho^2 = lambda* delta / tau.

    So where every site outside the window lies farther than
    max(accept + gap, 2 rho) from y in arclength, none is as near x as
    b, and b is the full scan's site, ties included.  Chord and arclength
    agree within the factor 2 over a few site spacings of one smooth
    piece of boundary; a second piece of boundary within rho of y would
    be below the site table's resolution.

    What the margins cover.  The ball pass behind the table ignores
    competitors within arclength accept of a sample; that is the source
    of its known errors (up to 8.8e-4 next to the square's corners,
    3.4e-6 at the ellipse's vertex mirror), and the competitors it hides
    lie in the window, which reaches past accept + gap.  Both samples
    around y see every competitor beyond accept + gap from y, and the cut
    value against those is a minimum of smooth depths: interpolating it
    between two samples of one smooth piece overestimates it by second
    order in the sample spacing, which accept in lambda* covers with the
    depth's rounding.  A foot within arclength gap of a corner
    (BoundaryCurve.corner_distance; its two samples lie on two pieces) is
    not certified, nor is a foot off its normal, as in a concave corner's
    fan (a large eta).  The site spacing enters through r, which the
    window measures; r carries a slack of 1e-9 (1 + the largest site
    coordinate + the extent) for rounding.
    """
    curve = dom.curve
    proj = CurveProjector(curve)
    centers = grid.centers()
    inside = inside_mask(curve, grid, centers)
    n = centers.shape[0]
    d, param, s, kappa, lam = (np.full(n, np.nan) for _ in range(5))
    normal = np.full((n, 2), np.nan)
    arc = np.full(n, -1, dtype=proj.sites.arc_index.dtype)

    def put(rows, p, lam_p, sel=slice(None)):
        d[rows] = p.dist[sel]
        arc[rows] = p.arc_index[sel]
        param[rows] = p.param[sel]
        s[rows] = p.s[sel]
        kappa[rows] = p.kappa[sel]
        normal[rows] = p.normal[sel]
        lam[rows] = lam_p[sel]

    cells = np.flatnonzero(inside.ravel())
    if cells.size and proj.sites.s.size > 2 * _WINDOW + 2:
        seed = _seeds(grid, centers, cells, proj.sites.points)
        # in runs of cells, so that the temporaries stay bounded
        for a in range(0, cells.size, _CELL_ROWS):
            part = cells[a:a + _CELL_ROWS]
            rows, _, p, lam_p, sure = _certified_feet(
                dom, proj, centers[part], seed[a:a + _CELL_ROWS])
            put(part[rows[sure]], p, lam_p, sure)
        del seed, part, rows, p, lam_p, sure  # before the scan's buffers
    rest = np.flatnonzero(_ring(inside).ravel() & (arc < 0))
    idx, _ = _kernels.nearest_site(centers[rest], proj.sites.points)
    p = proj.project_from_sites(centers[rest], idx)
    put(rest, p, dom.table.lambda_at(p.s))
    shape = (grid.ny, grid.nx)
    field = DistanceField(
        grid=grid, curve=curve, d=d.reshape(shape), inside=inside,
        nearest_arc=arc.reshape(shape), nearest_param=param.reshape(shape),
        nearest_s=s.reshape(shape), nearest_kappa=kappa.reshape(shape),
        nearest_normal=normal.reshape(shape + (2,)),
        nearest_lambda=lam.reshape(shape), centers=centers)
    for arr in (field.d, field.inside, field.nearest_arc,
                field.nearest_param, field.nearest_s, field.nearest_kappa,
                field.nearest_normal, field.nearest_lambda, field.centers):
        arr.setflags(write=False)
    return field


def _ring(inside):
    """inside, widened by every cell one step from it in x or y."""
    out = inside.copy()
    out[1:, :] |= inside[:-1, :]
    out[:-1, :] |= inside[1:, :]
    out[:, 1:] |= inside[:, :-1]
    out[:, :-1] |= inside[:, 1:]
    return out


def _d2(qx, qy, sx, sy, j):
    """Squared distances from queries to sites j, with nearest_site's
    arithmetic: dx*dx + dy*dy of the coordinate differences."""
    dx = qx - sx[j]
    dx *= dx
    dy = qy - sy[j]
    dy *= dy
    dx += dy
    return dx


def _certified_feet(dom, proj, q, seed):
    """Sites and feet of inside cell centers q, and which ones a cut value
    certifies; proj is the CurveProjector of dom's curve.

    From its start site in seed, a cell jumps along the chord through the
    site's neighbours to the site nearest its own tangential offset, and
    walks the sorted site table by one site while a neighbour is strictly
    nearer, for at most _WALK_STEPS steps.  Around the site j where it
    stops, the argmin over the sites j - _WINDOW .. j + _WINDOW (squared
    distances as _kernels.nearest_site computes them, ties to the lowest
    index) gives its site and foot; build_distance_field's docstring says
    when that site is certified.  Returns (rows, sites, Projection, lambda
    at the feet, certified mask) over the rows of q whose walk stopped.
    """
    table, sites = dom.table, proj.sites
    m = sites.s.size
    j = _walk(q, seed, sites.points)
    rows = np.flatnonzero(j >= 0)
    q, j = q[rows], j[rows]
    idx, best = _window_argmin(q, j, sites.points)
    p = proj.project_from_sites(q, idx)
    lam = table.lambda_at(p.s)

    L = dom.curve.length
    gap = float(np.max(np.diff(table.s, append=table.s[0] + L)))
    v = q - p.point
    d = -np.einsum("ij,ij->i", v, p.normal)
    eta = np.abs(v[:, 0] * p.normal[:, 1] - v[:, 1] * p.normal[:, 0])
    # inside cells lie in the curve's bounding box
    scale = float(np.max(np.abs(sites.points))) + dom.curve.extent
    r = np.sqrt(best) + eta + 1e-9 * (1.0 + scale)
    lam_lo = lam - table.accept
    tau = lam_lo - d
    delta = r * r - d * d
    out = np.minimum(cyclic_dist(p.s, sites.s[(j - _WINDOW - 1) % m], L),
                     cyclic_dist(p.s, sites.s[(j + _WINDOW + 1) % m], L))
    sure = ((d >= 0.0) & (tau > 0.0) & (out > table.accept + gap)
            & (4.0 * lam_lo * delta < out * out * tau)
            & (dom.curve.corner_distance(p.s) > gap))
    return rows, idx, p, lam, sure


def _walk(q, j, sites):
    """Local nearest sites of points q from start sites j; -1 where the
    walk has not stopped after _WALK_STEPS steps."""
    sx, sy = sites[:, 0], sites[:, 1]
    qx, qy = q[:, 0], q[:, 1]
    m = sx.size
    # the chord through a site's neighbours spans two site steps
    cx = sx[(j + 1) % m] - sx[j - 1]
    cy = sy[(j + 1) % m] - sy[j - 1]
    jump = 2.0 * ((qx - sx[j]) * cx + (qy - sy[j]) * cy) / (cx * cx + cy * cy)
    j = (j + np.rint(jump).astype(int)) % m
    moving = np.arange(j.size)
    for _ in range(_WALK_STEPS):
        jm = j[moving]
        x, y = qx[moving], qy[moving]
        here = _d2(x, y, sx, sy, jm)
        lo = _d2(x, y, sx, sy, jm - 1)
        hi = _d2(x, y, sx, sy, (jm + 1) % m)
        step = np.where(lo < np.minimum(here, hi), -1,
                        np.where(hi < here, 1, 0))
        j[moving] = (jm + step) % m
        moving = moving[step != 0]
        if not moving.size:
            break
    j[moving] = -1
    return j


def _window_argmin(q, j, sites):
    """(site, squared distance) of the nearest of the sites j - _WINDOW ..
    j + _WINDOW (cyclic) to each point of q, ties to the lowest index; in
    chunks of _WINDOW_ROWS points."""
    sx, sy = sites[:, 0], sites[:, 1]
    m = sx.size
    span = np.arange(-_WINDOW, _WINDOW + 1)
    best = np.empty(j.size)
    idx = np.empty(j.size, dtype=int)
    for a in range(0, j.size, _WINDOW_ROWS):
        b = min(j.size, a + _WINDOW_ROWS)
        w = (j[a:b, None] + span) % m
        d2 = _d2(q[a:b, 0, None], q[a:b, 1, None], sx, sy, w)
        best[a:b] = np.min(d2, axis=1)
        idx[a:b] = np.min(np.where(d2 == best[a:b, None], w, m), axis=1)
    return idx, best


def _seeds(grid, centers, cells, sites):
    """Nearest site of one cell per block of _SEED_STRIDE² cells, for each
    of the given cells: the one of its block."""
    stride = _SEED_STRIDE
    iy, ix = np.divmod(cells, grid.nx)
    nbx = -(-grid.nx // stride)
    block = (iy // stride) * nbx + ix // stride
    used = np.zeros(nbx * -(-grid.ny // stride), dtype=bool)
    used[block] = True
    by, bx = np.divmod(np.flatnonzero(used), nbx)
    reps = (np.minimum(by * stride + stride // 2, grid.ny - 1) * grid.nx
            + np.minimum(bx * stride + stride // 2, grid.nx - 1))
    seed, _ = _kernels.nearest_site(centers[reps], sites)
    return seed[(np.cumsum(used) - 1)[block]]


def inside_mask(curve, grid, centers):
    """(ny, nx) bool: which of the grid's cell centers lie inside the curve.

    centers is grid.centers(), built by the caller, which evaluates other
    quantities on the same centers.  An even-odd scanline test per grid
    row against the curve's 2048-point winding polygon.  The grid box
    must hold the curve with a one-cell margin, else ConstructionError.
    """
    h = grid.h
    x0, x1, y0, y1 = curve.bbox
    if (x0 < grid.xmin + h or x1 > grid.xmin + grid.nx * h - h
            or y0 < grid.ymin + h or y1 > grid.ymin + grid.ny * h - h):
        raise ConstructionError(
            "grid box does not contain the curve (one-cell margin required)")
    inside = _kernels.inside_polygon(centers, curve.winding_polygon(2048))
    return inside.reshape(grid.ny, grid.nx)
