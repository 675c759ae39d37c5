"""Closed boundary curves assembled from C2 arcs, with arclength machinery.

The curve is oriented counterclockwise; the outward normal at a point with
unit tangent T = (tx, ty) is nu = (ty, -tx), and the signed curvature
kappa = (x'y'' - y'x'') / |Y'|^3 is positive where the domain is locally
convex (kappa = 1/R on a circle of radius R).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arcs import TransformedArc, arc_runs, per_arc
from .errors import ConstructionError

__all__ = [
    "BoundaryPoint",
    "CornerInfo",
    "DenseSites",
    "Junctions",
    "BoundaryCurve",
]

DEFAULT_ANGLE_TOL = 1e-7   # radians; junctions turning less are treated as C1
_TABLE_NODES = 65536       # fixed arclength-table resolution; a single
                           # size keeps every query independent of what
                           # was computed on the curve before
# point or segment pairs per chunk of an all-pairs pass that is not a
# nearest-site scan (curve validation, diameter): each float temporary
# stays about 1 MB, small enough to stay in cache
_PAIR_CHUNK = 131_072


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    arc_index: int
    param: float
    s: float
    position: np.ndarray
    tangent: np.ndarray
    normal: np.ndarray
    curvature: float


@dataclass(frozen=True, eq=False)
class CornerInfo:
    junction: int          # between arcs[junction] and arcs[junction+1 mod n]
    s: float
    position: np.ndarray
    nu_minus: np.ndarray
    nu_plus: np.ndarray
    delta_nu: np.ndarray
    angle: float           # signed turning angle at the corner
    convex: bool


@dataclass(frozen=True, eq=False)
class DenseSites:
    """Midpoint-offset boundary sampling used by projection kernels."""
    points: np.ndarray     # (m, 2)
    params: np.ndarray     # (m,)
    arc_index: np.ndarray  # (m,) int
    s: np.ndarray          # (m,) cyclic arclength, increasing
    spacing: float         # mean arclength spacing L/m
    dparam: np.ndarray     # (number of arcs,) parameter step per arc: the
                           # bracket half-width of a site-seeded refinement


@dataclass(frozen=True, eq=False)
class Junctions:
    """Every arc junction j, between arcs[j] and arcs[j+1 mod n]."""
    s: np.ndarray          # (n,) arclength
    position: np.ndarray   # (n, 2) end point of arcs[j]
    nu_minus: np.ndarray   # (n, 2) outward normal at the end of arcs[j]
    nu_plus: np.ndarray    # (n, 2) outward normal at the start of arcs[j+1]
    angle: np.ndarray      # (n,) signed turning angle of the normal
    convex: np.ndarray     # (n,) bool, the normal turns counterclockwise


class _Geom:
    """Plain struct of vectorized point data."""

    __slots__ = ("arc_index", "param", "s", "position", "tangent", "normal",
                 "curvature", "speed")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    @property
    def n(self):
        return self.s.size

    def point(self, i):
        return BoundaryPoint(
            arc_index=int(self.arc_index[i]), param=float(self.param[i]),
            s=float(self.s[i]), position=self.position[i].copy(),
            tangent=self.tangent[i].copy(), normal=self.normal[i].copy(),
            curvature=float(self.curvature[i]))


class BoundaryCurve:
    """Closed CCW chain of arcs with cached arclength tables."""

    def __init__(self, arcs):
        if not arcs:
            raise ConstructionError("need at least one arc")
        self.arcs = list(arcs)
        self._tables = None
        self._sites_cache = {}

        poll = self._poll_points(64)
        lo = poll.min(axis=0)
        hi = poll.max(axis=0)
        self._bbox = (lo[0], hi[0], lo[1], hi[1])
        self._extent = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
        if not self._extent > 0:
            raise ConstructionError("curve has zero extent")
        self._validate()

    # ------------------------------------------------------------ validation

    def _poll_points(self, per_arc):
        pts = []
        for arc in self.arcs:
            t = np.linspace(arc.t0, arc.t1, per_arc, endpoint=False)
            pts.append(arc.point(t))
        return np.vstack(pts)

    def _validate(self):
        n = len(self.arcs)
        for i, arc in enumerate(self.arcs):
            nxt = self.arcs[(i + 1) % n]
            miss = np.linalg.norm(arc.end - nxt.start)
            if miss > 1e-9 * self._extent:
                raise ConstructionError(
                    f"arcs {i} and {(i + 1) % n} fail to chain: gap {miss:.3e}")
        for i, arc in enumerate(self.arcs):
            t = np.linspace(arc.t0, arc.t1, 257)
            sp = np.linalg.norm(arc.velocity(t), axis=1)
            if np.min(sp) <= 1e-12 * (self._extent + 1.0):
                raise ConstructionError(f"arc {i} is not regular (|Y'| ~ 0)")
        poly = self.winding_polygon(512)
        x, y = poly[:, 0], poly[:, 1]
        area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        if area2 <= 0:
            raise ConstructionError("curve is not counterclockwise")
        if _polyline_self_intersects(poly):
            raise ConstructionError("curve self-intersects at sampling resolution")

    # --------------------------------------------------------------- tables

    def _ensure_tables(self):
        if self._tables is not None:
            return
        total_nodes = _TABLE_NODES
        # bootstrap length fractions from a chord poll
        frac = []
        for arc in self.arcs:
            t = np.linspace(arc.t0, arc.t1, 257)
            p = arc.point(t)
            frac.append(np.sum(np.linalg.norm(np.diff(p, axis=0), axis=1)))
        frac = np.asarray(frac)
        frac = frac / frac.sum()

        p_tabs, s_tabs, lengths = [], [], []
        for arc, f in zip(self.arcs, frac):
            k = max(32, int(np.ceil(total_nodes * f)))
            p = np.linspace(arc.t0, arc.t1, k + 1)
            mid = 0.5 * (p[:-1] + p[1:])
            sp = np.linalg.norm(arc.velocity(p), axis=1)
            sm = np.linalg.norm(arc.velocity(mid), axis=1)
            dp = (arc.t1 - arc.t0) / k
            seg = dp / 6.0 * (sp[:-1] + 4.0 * sm + sp[1:])
            s = np.concatenate([[0.0], np.cumsum(seg)])
            p_tabs.append(p)
            s_tabs.append(s)
            lengths.append(s[-1])
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        self._tables = {"p": p_tabs, "s": s_tabs, "cum": cum}

    @property
    def length(self):
        self._ensure_tables()
        return float(self._tables["cum"][-1])

    @property
    def arc_lengths(self):
        """(number of arcs,) arclength of each arc."""
        self._ensure_tables()
        return np.diff(self._tables["cum"])

    @property
    def bbox(self):
        return self._bbox

    @property
    def extent(self):
        """Bounding-box diagonal; the length scale for tolerances and brackets."""
        return self._extent

    def param_to_s(self, arc_index, param):
        self._ensure_tables()
        arc_index = np.atleast_1d(np.asarray(arc_index, dtype=int))
        param = np.atleast_1d(np.asarray(param, dtype=float))
        out = np.empty(param.size)
        tabs = self._tables
        for a, rows in arc_runs(arc_index):
            out[rows] = (np.interp(param[rows], tabs["p"][a], tabs["s"][a])
                         + tabs["cum"][a])
        return out

    def s_to_param(self, s):
        self._ensure_tables()
        tabs = self._tables
        L = tabs["cum"][-1]
        s = np.mod(np.atleast_1d(np.asarray(s, dtype=float)), L)
        aidx = np.clip(np.searchsorted(tabs["cum"], s, side="right") - 1,
                       0, len(self.arcs) - 1)
        t = np.empty(s.size)
        for a, rows in arc_runs(aidx):
            t[rows] = np.interp(s[rows] - tabs["cum"][a], tabs["s"][a],
                                tabs["p"][a])
        return aidx, t

    # ------------------------------------------------------------- geometry

    def geometry(self, arc_index, param):
        """Vectorized point data at (arc_index, param) pairs."""
        arc_index = np.atleast_1d(np.asarray(arc_index, dtype=int))
        param = np.atleast_1d(np.asarray(param, dtype=float))
        pos, vel, acc = per_arc(self.arcs, arc_index, "point", "velocity",
                                "acceleration")(param)
        speed, kappa = _speed_curvature(vel, acc)
        tangent = vel / speed[:, None]
        normal = np.stack([tangent[:, 1], -tangent[:, 0]], axis=-1)
        s = self.param_to_s(arc_index, param)
        return _Geom(arc_index=arc_index, param=param, s=s, position=pos,
                     tangent=tangent, normal=normal, curvature=kappa, speed=speed)

    def curvature(self, arc_index, param):
        """Signed curvature at (arc_index, param) pairs, bit for bit
        geometry's, from velocity and acceleration only."""
        arc_index = np.atleast_1d(np.asarray(arc_index, dtype=int))
        param = np.atleast_1d(np.asarray(param, dtype=float))
        vel, acc = per_arc(self.arcs, arc_index, "velocity",
                           "acceleration")(param)
        return _speed_curvature(vel, acc)[1]

    def geometry_at_s(self, s):
        aidx, t = self.s_to_param(s)
        return self.geometry(aidx, t)

    # ------------------------------------------------------------- sampling

    def resample_struct(self, n):
        """Uniform-arclength node struct; shifts the grid off detected corners."""
        if n < 1:
            raise ValueError("need n >= 1")
        self._ensure_tables()
        L = self.length
        nodes = np.arange(n) * (L / n)
        corner_s = self.corner_arclengths()
        if corner_s.size:
            tol_hit = 1e-9 * L
            if _min_cyclic_dist(nodes, corner_s, L) < tol_hit:
                nodes = nodes + L / (2 * n)
            # last resort: nudge individual offenders
            bad = _cyclic_dist_to_set(nodes, corner_s, L) < tol_hit
            if np.any(bad):
                nodes[bad] += 16 * tol_hit
        return self.geometry_at_s(nodes)

    def dense_sites(self, m):
        """Midpoint-offset per-arc sampling (~m sites) for projection kernels.

        Memoized per m: every projector of the curve shares one table, so
        its arrays must not be written to.
        """
        key = int(m)
        if key in self._sites_cache:
            return self._sites_cache[key]
        self._ensure_tables()
        cum = self._tables["cum"]
        L = cum[-1]
        pts, prm, aix = [], [], []
        for a, arc in enumerate(self.arcs):
            frac = (cum[a + 1] - cum[a]) / L
            ma = max(8, int(round(m * frac)))
            t = arc.t0 + (np.arange(ma) + 0.5) * ((arc.t1 - arc.t0) / ma)
            pts.append(arc.point(t))
            prm.append(t)
            aix.append(np.full(ma, a, dtype=int))
        points = np.vstack(pts)
        params = np.concatenate(prm)
        arc_index = np.concatenate(aix)
        s = self.param_to_s(arc_index, params)
        # every arc holds at least 8 consecutive sites
        first = np.searchsorted(arc_index, np.arange(len(self.arcs)))
        sites = DenseSites(points=points, params=params, arc_index=arc_index,
                           s=s, spacing=L / s.size,
                           dparam=params[first + 1] - params[first])
        self._sites_cache[key] = sites
        return sites

    def winding_polygon(self, m):
        """Per-arc sampling that keeps arc start points (corners included)."""
        pts = []
        total = sum((a.t1 - a.t0) for a in self.arcs)
        for arc in self.arcs:
            ma = max(8, int(round(m * (arc.t1 - arc.t0) / total)))
            t = arc.t0 + np.arange(ma) * ((arc.t1 - arc.t0) / ma)
            pts.append(arc.point(t))
        return np.vstack(pts)

    # -------------------------------------------------------------- corners

    @cached_property
    def junctions(self):
        """Junction table: two batched evaluations, arc ends and next starts."""
        self._ensure_tables()
        cum = self._tables["cum"]
        n = len(self.arcs)
        nxt = np.roll(np.arange(n), -1)
        ends = self.geometry(np.arange(n), [arc.t1 for arc in self.arcs])
        starts = self.geometry(nxt, [self.arcs[a].t0 for a in nxt])
        nu_m, nu_p = ends.normal, starts.normal
        cross = nu_m[:, 0] * nu_p[:, 1] - nu_m[:, 1] * nu_p[:, 0]
        dot = nu_m[:, 0] * nu_p[:, 0] + nu_m[:, 1] * nu_p[:, 1]
        return Junctions(s=np.mod(cum[1:], cum[-1]), position=ends.position,
                         nu_minus=nu_m, nu_plus=nu_p,
                         angle=np.arctan2(cross, dot), convex=cross > 0)

    def detect_corners(self, angle_tol=DEFAULT_ANGLE_TOL):
        """Junctions where the outward normal turns by more than angle_tol."""
        jt = self.junctions
        return [CornerInfo(junction=int(j), s=float(jt.s[j]),
                           position=jt.position[j].copy(),
                           nu_minus=jt.nu_minus[j].copy(),
                           nu_plus=jt.nu_plus[j].copy(),
                           delta_nu=jt.nu_plus[j] - jt.nu_minus[j],
                           angle=float(jt.angle[j]), convex=bool(jt.convex[j]))
                for j in np.flatnonzero(np.abs(jt.angle) > angle_tol)]

    def corner_arclengths(self):
        jt = self.junctions
        return jt.s[np.abs(jt.angle) > DEFAULT_ANGLE_TOL]

    def check_starshaped(self):
        """(flag, min <y, nu>) over 2048 arclength samples; origin-dependent."""
        g = self.resample_struct(2048)
        support = np.sum(g.position * g.normal, axis=1)
        m = float(np.min(support))
        return bool(m > 0.0), m

    # ------------------------------------------------------------ transform

    def transformed(self, scale=1.0, rotation=0.0):
        """Dilated/rotated copy about the origin."""
        return BoundaryCurve(
            [TransformedArc(a, scale=scale, rotation=rotation) for a in self.arcs])


def _speed_curvature(vel, acc):
    """|Y'| and the signed curvature (x'y'' - y'x'') / |Y'|^3 per row."""
    speed = np.linalg.norm(vel, axis=1)
    kappa = (vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]) / speed ** 3
    return speed, kappa


def _min_cyclic_dist(nodes, targets, L):
    return float(np.min(_cyclic_dist_to_set(nodes, targets, L)))


def _cyclic_dist_to_set(nodes, targets, L):
    d = np.abs(nodes[:, None] - targets[None, :])
    d = np.minimum(d, L - d)
    return d.min(axis=1)


def _polyline_self_intersects(poly):
    """Proper crossing between non-adjacent segments of a closed polyline.

    Sort-and-sweep on x (Shamos & Hoey, "Geometric intersection problems",
    1976): segments whose closed x-ranges are disjoint cannot cross, so
    only the pairs that overlap in x go to the orientation test, in chunks
    of at most _PAIR_CHUNK pairs.
    """
    n = poly.shape[0]
    a = poly
    b = np.roll(poly, -1, axis=0)
    left = np.minimum(a[:, 0], b[:, 0])
    right = np.maximum(a[:, 0], b[:, 0])
    order = np.argsort(left, kind="stable")
    # segment order[k] overlaps segments order[k+1:stop[k]] in x
    stop = np.searchsorted(left[order], right[order], side="right")
    count = stop - np.arange(n) - 1
    end = np.cumsum(count)
    total = int(end[-1])

    def orient(p, q, r):
        return ((q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1])
                - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0]))

    for first in range(0, total, _PAIR_CHUNK):
        pair = np.arange(first, min(first + _PAIR_CHUNK, total))
        k = np.searchsorted(end, pair, side="right")
        u = order[k]
        v = order[k + 1 + pair - (end[k] - count[k])]
        i, j = np.minimum(u, v), np.maximum(u, v)
        # the closing segment (n-1, 0) is adjacent to segment 0
        keep = (j - i != 1) & (j - i != n - 1)
        i, j = i[keep], j[keep]
        p1, p2 = a[i], b[i]
        p3, p4 = a[j], b[j]
        o1 = orient(p1, p2, p3)
        o2 = orient(p1, p2, p4)
        o3 = orient(p3, p4, p1)
        o4 = orient(p3, p4, p2)
        if np.any((o1 * o2 < 0) & (o3 * o4 < 0)):
            return True
    return False
