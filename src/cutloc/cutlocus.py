"""Cut values along inward normals and the criterion function phi.

The cut value lambda(y) = sup{t >= 0 : the nearest boundary point of
y - t nu(y) is y}.  A site z is nearer than y to y - t nu exactly when
t > |y-z|^2 / (2 <y-z, nu>), so one pass over the curve's site table
gives lambda(y) as the smallest such depth over the sites outside an
arclength window around y (the shrinking-ball construction of Ma, Bae &
Choi, The Visual Computer 2012).  Shrinking steps then move the winning
site along its arc to the foot of the ball centre y - lambda nu, which
removes the site-spacing error.  The depth is capped at 1/kappa(y) for
convex samples (the curvature bound makes the cap a valid upper end, and
returning the cap when no site beats y before it gives the focal identity
kappa lambda = 1 exactly).  phi(y) is the depth integral of
(1 - t kappa) over [0, lambda]; in the plane it has the closed form
lambda - lambda^2 kappa / 2.
"""

import csv
from dataclasses import dataclass

import numpy as np

from .boundary import _PAIR_BUDGET, BoundaryPoint, cyclic_dist
from .errors import (ConfigurationError, DegenerateRayError,
                     InapplicableError)
from .projector import refine_on_arcs

__all__ = [
    "CornerFan",
    "CutTable",
    "cut_table",
    "cut_value",
    "corner_fans",
    "corner_zone",
    "phi",
    "max_lambda_kappa",
    "focal_check",
    "export_cut_csv",
]

# shrinking steps after the site pass; one leaves up to 4e-7 next to the
# square's corners, two reach rounding level
_SHRINK_STEPS = 2
# rays per concave-corner fan table
_FAN_RAYS = 256


@dataclass(eq=False)
class CutTable:
    """Per-sample cut data over a boundary sampling (struct of arrays)."""

    curve: object
    s: np.ndarray            # (n,) arclength
    position: np.ndarray     # (n, 2)
    normal: np.ndarray       # (n, 2) outward unit normals
    kappa: np.ndarray        # (n,)
    arc_index: np.ndarray    # (n,) int
    param: np.ndarray        # (n,)
    lam: np.ndarray          # (n,) cut values; 0 in corner zones
    phi: np.ndarray          # (n,)
    lambda_kappa: np.ndarray  # (n,)
    corner_zone: np.ndarray  # (n,) bool
    focal_capped: np.ndarray  # (n,) bool, lambda = cap: nothing beats y sooner
    tol: float
    accept: float

    def __len__(self):
        return self.s.size

    def point(self, i):
        """Boundary point of sample i."""
        return BoundaryPoint(
            arc_index=int(self.arc_index[i]), param=float(self.param[i]),
            s=float(self.s[i]), position=self.position[i].copy(),
            curvature=float(self.kappa[i]))

    def smooth(self):
        """Boolean mask of samples outside corner zones."""
        return ~self.corner_zone

    def lambda_at(self, s):
        """Cut values at arclengths s, interpolated linearly between the
        samples, cyclically in arclength."""
        L = self.curve.length
        sq = np.mod(np.asarray(s, dtype=float), L)
        xp = np.concatenate([[self.s[-1] - L], self.s, [self.s[0] + L]])
        fp = np.concatenate([[self.lam[-1]], self.lam, [self.lam[0]]])
        return np.interp(sq, xp, fp)


def phi(lam, kappa):
    """Criterion function, planar closed form lambda - lambda^2 kappa / 2."""
    lam = np.asarray(lam, dtype=float)
    kappa = np.asarray(kappa, dtype=float)
    return lam - 0.5 * lam * lam * kappa


def _ball_cut(sites, pos, nrm, s, accept, length):
    """Shrinking-ball cut depth of each sample against a site table.

    Site z is nearer than y to y - t nu exactly when
    t > |y-z|^2 / (2 <y-z, nu>); returns the smallest such depth over the
    sites outside the arclength window `accept` with <y-z, nu> > 0 (inf
    when no site competes) and the index of the site that attains it.
    One pass over the sites, in chunks of samples holding at most
    _PAIR_BUDGET (sample, site) pairs.

    The pass ranks q / max(<y-z, nu>, 0) with q = |y-z|^2 and halves only
    each sample's winner: halving is exact, so the argmin and its value
    are those of q / (2 <y-z, nu>).  A site with <y-z, nu> <= 0 gets
    q / +0 = inf.  Sites are sorted by s, so each sample's window lies in
    an index band found by searchsorted with a margin of 4 site spacings;
    only the band's columns take the exact cyclic test, and those in the
    window are set to inf.
    """
    sx, sy = sites.points[:, 0], sites.points[:, 1]
    m = sites.s.size
    best = np.empty(s.size)
    arg = np.empty(s.size, dtype=int)
    reach = accept + 4.0 * sites.spacing
    ring = np.concatenate([sites.s - length, sites.s, sites.s + length])
    first = np.searchsorted(ring, s - reach, side="left")
    band = np.searchsorted(ring, s + reach, side="right") - first
    span = np.arange(min(m, int(np.max(band, initial=0))))
    chunk = max(1, min(s.size, _PAIR_BUDGET // max(m, 1)))
    # one set of work arrays for all chunks: fresh temporaries per chunk go
    # back to the system (malloc's mmap and trim thresholds) and are faulted
    # in again on every chunk
    work = np.empty((4, chunk, m))
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(0, s.size, chunk):
            b = min(s.size, a + chunk)
            dx, dy, q, tmp = work[:, :b - a]
            np.subtract(pos[a:b, 0, None], sx, out=dx)
            np.subtract(pos[a:b, 1, None], sy, out=dy)
            np.multiply(dx, dx, out=q)
            np.multiply(dy, dy, out=tmp)
            np.add(q, tmp, out=q)
            np.multiply(dx, nrm[a:b, 0, None], out=dx)
            np.multiply(dy, nrm[a:b, 1, None], out=dy)
            dot = np.add(dx, dy, out=dx)
            np.maximum(dot, 0.0, out=dot)
            # which zero maximum returns for -0.0 against 0.0 is not fixed
            # (numpy's SIMD and scalar loops differ); -0.0 + 0.0 is +0.0,
            # so the quotient is +inf, never -inf
            np.add(dot, 0.0, out=dot)
            np.divide(q, dot, out=q)
            # the window's columns, by the cyclic_dist test; a site on the
            # sample gives 0 / 0 and lies in the window
            cols = (first[a:b, None] + span) % m
            sep = np.abs(s[a:b, None] - sites.s[cols])
            row, k = np.nonzero(np.minimum(sep, length - sep) <= accept)
            q[row, cols[row, k]] = np.inf
            arg[a:b] = np.argmin(q, axis=1)
            best[a:b] = 0.5 * q[np.arange(b - a), arg[a:b]]
    return best, arg


def _shrink_ball(curve, pos, nrm, s, depth, arg, accept):
    """Refine site-table depths off the sites, in place.

    Each step projects the ball centre y - depth nu onto the owning arc of
    the current competitor (a bracket of one site step around it); the
    foot is nearer the centre than the competitor, so its depth is no
    larger.  It is kept when it still competes.  Two steps take the
    site-spacing error (up to 7e-5 next to the square's corners at 4096
    sites) to rounding level.
    """
    sites = curve.sites
    rows = np.flatnonzero(np.isfinite(depth))
    arc_index = sites.arc_index[arg[rows]]
    param = sites.params[arg[rows]]
    y, nu = pos[rows], nrm[rows]
    for _ in range(_SHRINK_STEPS):
        centre = y - depth[rows, None] * nu
        foot = refine_on_arcs(curve, centre, arc_index, param, sites.dparam)
        g = curve.geometry(arc_index, foot)
        d = y - g.position
        dot = np.einsum("ij,ij->i", d, nu)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.einsum("ij,ij->i", d, d) / (2.0 * dot)
        keep = ((dot > 0) & (t < depth[rows])
                & (cyclic_dist(g.s, s[rows], curve.length) > accept))
        depth[rows[keep]] = t[keep]
        param[keep] = foot[keep]


def corner_zone(curve, s, tol):
    """Mask of arclengths s within 10*tol of a corner, where lambda -> 0:
    cut_table gives them lambda = phi = 0, and y0 and v_f's boundary trace
    are not taken there."""
    return curve.corner_distance(np.ravel(s)) <= 10.0 * tol


def _cut_values(curve, geom, tol, accept, active):
    """Cut values of a sampled geometry struct: (lam, focal_capped).

    lam = min(depth, cap) with cap = min(1/kappa+, extent), where depth is
    the shrinking-ball depth against the curve's site table.  `active`
    masks samples to solve; inactive rows come back 0.  An active sample
    whose depth is below tol raises ConfigurationError on a curve without
    corners (the absolute tolerance exceeds a cut value: the shape is too
    thin for it) and DegenerateRayError otherwise.
    """
    n = geom.s.size
    lam = np.zeros(n)
    focal = np.zeros(n, dtype=bool)
    rows = np.flatnonzero(active)
    if rows.size == 0:
        return lam, focal

    pos, nrm, s = geom.position[rows], geom.normal[rows], geom.s[rows]
    kplus = np.maximum(geom.curvature[rows], 0.0)
    with np.errstate(divide="ignore"):
        cap = np.where(kplus > 0, 1.0 / np.maximum(kplus, 1e-300), np.inf)
    cap = np.minimum(cap, curve.extent)

    depth, arg = _ball_cut(curve.sites, pos, nrm, s, accept, curve.length)
    _shrink_ball(curve, pos, nrm, s, depth, arg, accept)
    bad = depth < tol
    if np.any(bad):
        i = int(np.argmax(bad))
        where = (f"inward ray at s={s[i]:.6g} loses its base point at depth "
                 f"{depth[i]:.6g}, below the absolute tolerance tol={tol:.6g}")
        if not curve.corners:
            raise ConfigurationError(
                f"{where}; the shape is too thin for this tolerance")
        raise DegenerateRayError(
            f"{where}; the sample sits next to a corner or in a part "
            "thinner than tol")
    lam[rows] = np.minimum(depth, cap)
    focal[rows] = depth >= cap
    return lam, focal


def cut_table(curve, n=2048, tol=None, samples=None):
    """Cut values, phi, and kappa*lambda over a uniform boundary sampling.

    Samples in the corner zone (corner_zone: within arclength 10*tol of a
    corner, where lambda -> 0 at convex corners) are excluded from the ray
    computation; they carry lambda = phi = 0 and corner_zone = True.
    """
    if tol is None:
        tol = 1e-6 * curve.extent
    accept = max(5.0 * tol, 3.0 * curve.sites.spacing)
    geom = samples if samples is not None else curve.resample_struct(n)
    zone = corner_zone(curve, geom.s, tol)
    lam, focal = _cut_values(curve, geom, tol, accept, active=~zone)
    phival = np.where(zone, 0.0, phi(lam, geom.curvature))
    return CutTable(
        curve=curve, s=geom.s.copy(), position=geom.position.copy(),
        normal=geom.normal.copy(), kappa=geom.curvature.copy(),
        arc_index=geom.arc_index.copy(), param=geom.param.copy(),
        lam=lam, phi=phival, lambda_kappa=lam * geom.curvature,
        corner_zone=zone, focal_capped=focal, tol=tol, accept=accept)


def cut_value(curve, y, tol=None):
    """Cut value of a single boundary point (BoundaryPoint or arclength).

    The value of a one-sample cut_table, corner-zone rule included.
    """
    if isinstance(y, BoundaryPoint):
        geom = curve.geometry([y.arc_index], [y.param])
    else:
        geom = curve.geometry_at_s([float(y)])
    table = cut_table(curve, tol=tol, samples=geom)
    return float(table.lam[0])


@dataclass(frozen=True, eq=False)
class CornerFan:
    """Cut depths along the inward fan of rays at a concave corner."""

    junction: int
    position: np.ndarray  # (2,) the corner
    start: np.ndarray     # (2,) first ray direction, -nu_minus
    turn: float           # signed angle from -nu_minus to -nu_plus
    lam: np.ndarray       # (_FAN_RAYS,) depths at evenly spaced angles

    def cut(self, points):
        """Cut value along the fan ray through each of (n, 2) points."""
        w = np.asarray(points, dtype=float) - self.position
        angle = np.arctan2(self.start[0] * w[:, 1] - self.start[1] * w[:, 0],
                           w @ self.start)
        return np.interp(angle / self.turn,
                         np.linspace(0.0, 1.0, self.lam.size), self.lam)


def corner_fans(table):
    """One CornerFan per concave corner of the table's curve.

    The points of the fan between -nu_minus and -nu_plus all have the
    corner as their foot, so their cut value is the depth along their own
    ray from the corner, not the table's value on either adjacent arc.
    Each fan holds the shrinking-ball depth of _FAN_RAYS evenly spaced
    rays against the curve's site table, with the table's window around
    the corner, capped at the curve's extent.
    """
    curve = table.curve
    fans = []
    for c in curve.corners:
        if c.convex:
            continue
        angle = np.linspace(0.0, c.angle, _FAN_RAYS)
        cos, sin = np.cos(angle), np.sin(angle)
        # nu_minus turned by each angle: the outward nu of the ray y - t nu
        nu = np.column_stack([cos * c.nu_minus[0] - sin * c.nu_minus[1],
                              sin * c.nu_minus[0] + cos * c.nu_minus[1]])
        depth, _ = _ball_cut(curve.sites,
                             np.tile(c.position, (_FAN_RAYS, 1)), nu,
                             np.full(_FAN_RAYS, c.s), table.accept,
                             curve.length)
        fans.append(CornerFan(junction=c.junction, position=c.position,
                              start=-c.nu_minus, turn=c.angle,
                              lam=np.minimum(depth, curve.extent)))
    return fans


def max_lambda_kappa(table):
    """max over smooth samples of kappa*lambda (the curvature bound says <= 1)."""
    vals = table.lambda_kappa[table.smooth()]
    return float(np.max(vals)) if vals.size else 0.0


def focal_check(dom):
    """|H_max lambda(y0) - 1| at a Domain's refined curvature maximum y0.

    At the curvature maximum of a smooth curve the cut value equals the
    focal depth 1/kappa (the inscribed disk of radius 1/H_max touches y0),
    so the product is 1 there.  Cornered curves have no smooth maximum to
    test against.
    """
    if dom.curve.corners:
        raise InapplicableError("focal identity needs a smooth curve")
    if dom.H_max <= 0:
        raise InapplicableError("focal identity needs positive curvature")
    return abs(dom.H_max * dom.lambda_y0 - 1.0)


def export_cut_csv(table, path):
    """CSV rows s,x,y,nx,ny,kappa,lambda,phi,kappa_lambda per sample."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["s", "x", "y", "nx", "ny", "kappa", "lambda", "phi",
                    "kappa_lambda"])
        for i in range(len(table)):
            w.writerow([f"{v:.17g}" for v in (
                table.s[i], table.position[i, 0], table.position[i, 1],
                table.normal[i, 0], table.normal[i, 1], table.kappa[i],
                table.lam[i], table.phi[i], table.lambda_kappa[i])])
