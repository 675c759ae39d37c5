"""Closed boundary curves assembled from C2 arcs, with arclength machinery.

The curve is oriented counterclockwise; the outward normal at a point with
unit tangent T = (tx, ty) is nu = (ty, -tx), and the signed curvature
kappa = (x'y'' - y'x'') / |Y'|^3 is positive where the domain is locally
convex (kappa = 1/R on a circle of radius R).
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .arcs import ArcTable
from .errors import ConstructionError

__all__ = [
    "BoundaryPoint",
    "CornerInfo",
    "DenseSites",
    "Junctions",
    "BoundaryCurve",
    "cyclic_dist",
]

DEFAULT_ANGLE_TOL = 1e-7   # radians; junctions turning less are treated as C1
_TABLE_NODES = 65536       # fixed arclength-table resolution; a single
                           # size keeps every query independent of what
                           # was computed on the curve before
# (point, point) pairs per temporary of every pairwise pass, 8 bytes each:
# 256 kB, small enough to stay in cache.  It sizes the crossing test of
# curve validation here, and the nearest-site scans of _kernels and
# cutlocus._ball_cut, which import it from here so that `import cutloc`
# does not load _kernels.  Timed from 2^14 to 2^17 against 4096 sites:
# 2^14 and 2^15 tie on the nearest-site scan of the 256² ellipse and
# square grids, and 2^15 gives the faster ball pass.
_PAIR_BUDGET = 1 << 15
# parameters per block of the per-arc samplings (_arc_blocks): evaluating
# a block holds a few hundred bytes of temporaries per parameter
_BLOCK_NODES = 8192
# sites of BoundaryCurve.sites, split across the arcs by length
_SITES = 4096


@dataclass(frozen=True, eq=False)
class BoundaryPoint:
    arc_index: int
    param: float
    s: float
    position: np.ndarray
    curvature: float


@dataclass(frozen=True, eq=False)
class CornerInfo:
    junction: int          # between arcs[junction] and arcs[junction+1 mod n]
    s: float
    position: np.ndarray
    nu_minus: np.ndarray
    nu_plus: np.ndarray
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


@dataclass(frozen=True, eq=False)
class _Arclength:
    """Arclength against parameter on every arc, flat over the arcs."""
    p: np.ndarray          # parameter nodes, arc a's at first[a]:first[a+1]
    s: np.ndarray          # arclength from each node's arc start
    first: np.ndarray      # (number of arcs + 1,) int offsets of the arcs
    cum: np.ndarray        # (number of arcs + 1,) arclength before each arc


class _Geom:
    """Plain struct of vectorized point data."""

    __slots__ = ("arc_index", "param", "s", "position", "tangent", "normal",
                 "curvature", "speed")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def point(self, i):
        return BoundaryPoint(
            arc_index=int(self.arc_index[i]), param=float(self.param[i]),
            s=float(self.s[i]), position=self.position[i].copy(),
            curvature=float(self.curvature[i]))


class BoundaryCurve:
    """Closed CCW chain of arcs with cached arclength tables."""

    def __init__(self, arcs):
        if not arcs:
            raise ConstructionError("need at least one arc")
        self.arcs = list(arcs)
        self.arc_table = ArcTable(self.arcs)

        poll = self._sample(64, endpoint=False)
        lo = poll.min(axis=0)
        hi = poll.max(axis=0)
        self._bbox = (lo[0], hi[0], lo[1], hi[1])
        self._extent = float(np.hypot(hi[0] - lo[0], hi[1] - lo[1]))
        if not self._extent > 0:
            raise ConstructionError("curve has zero extent")
        self._validate()

    # ------------------------------------------------------------ validation

    def _arc_blocks(self, counts, endpoint, offset=0.0):
        """counts[a] parameters on each arc a, in blocks of consecutive ones.

        Yields (arc of each parameter, parameters) pairs, arcs in order.
        Arc a's parameters are t0 + (j + offset) * step, j < counts[a];
        with offset 0 they are np.linspace's, bit for bit, with or without
        the endpoint.  A block holds at most _BLOCK_NODES parameters: it
        ends at the last arc end within them, or after all of them when no
        arc ends there, so an arc with more parameters comes out in
        consecutive runs, and one with fewer always in a single block.  An
        arc with no parameters is skipped.
        """
        t0, t1 = self.arc_table.t0, self.arc_table.t1
        counts = np.broadcast_to(counts, t0.shape)
        step = (t1 - t0) / (counts - 1 if endpoint else counts)
        end = np.cumsum(counts)
        lo = 0
        while lo < end[-1]:
            hi = lo + _BLOCK_NODES
            k = int(np.searchsorted(end, hi, side="right"))
            if k and end[k - 1] > lo:
                hi = int(end[k - 1])
            which = np.searchsorted(end, np.arange(lo, hi), side="right")
            t = np.arange(lo, hi) - (end[which] - counts[which]) + offset
            t *= step[which]
            t += t0[which]
            if endpoint:
                last = np.flatnonzero((end > lo) & (end <= hi) & (counts > 0))
                t[end[last] - 1 - lo] = t1[last]
            yield which, t
            lo = hi

    def _speed(self, which, t):
        """|Y'| at parameters t of arcs which."""
        (vel,) = self.arc_table.evaluate(which, "velocity")(t)
        return np.linalg.norm(vel, axis=1)

    def _sample(self, counts, endpoint):
        """(nodes, 2) points at the parameters of _arc_blocks."""
        blocks = self._arc_blocks(counts, endpoint)
        return np.concatenate([self.arc_table.evaluate(which, "point")(t)[0]
                               for which, t in blocks])

    def _validate(self):
        n = len(self.arcs)
        point = self.arc_table.evaluate(np.arange(n), "point")
        (end,), (start,) = point(self.arc_table.t1), point(self.arc_table.t0)
        miss = np.linalg.norm(end - np.roll(start, -1, axis=0), axis=1)
        gap = np.flatnonzero(miss > 1e-9 * self._extent)
        if gap.size:
            i = gap[0]
            raise ConstructionError(f"arcs {i} and {(i + 1) % n} fail to "
                                    f"chain: gap {miss[i]:.3e}")
        # an arc of constant speed has it in the table; the others are
        # polled at 257 nodes
        slowest = self.arc_table.speed.copy()
        polled = np.isnan(slowest)
        if np.any(polled):
            blocks = self._arc_blocks(np.where(polled, 257, 0), endpoint=True)
            slowest[polled] = np.concatenate([
                np.min(self._speed(which, t).reshape(-1, 257), axis=1)
                for which, t in blocks])
        slow = np.flatnonzero(slowest <= 1e-12 * (self._extent + 1.0))
        if slow.size:
            raise ConstructionError(f"arc {slow[0]} is not regular (|Y'| ~ 0)")
        poly = self.winding_polygon(512)
        x, y = poly[:, 0], poly[:, 1]
        area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
        if area2 <= 0:
            raise ConstructionError("curve is not counterclockwise")
        if _polyline_self_intersects(poly):
            raise ConstructionError("curve self-intersects at sampling resolution")

    # --------------------------------------------------------------- tables

    @cached_property
    def _arclength(self):
        """The curve's arclength table, flat over the arcs; built on first
        read.

        Arc a owns nodes first[a]:first[a+1] of p (parameters, increasing)
        and s (arclength from the arc's start), and cum[a] is the
        arclength before the arc.  An arc of constant speed
        (Arc.constant_speed) has arclength linear in its parameter: its
        nodes are its two ends with its closed-form length, and
        interpolation on them is exact.  Every other arc gets a composite
        Simpson table on k >= 32 intervals, k its share of _TABLE_NODES by
        a chord poll of all the arcs, written block by block in place.
        """
        t0, t1 = self.arc_table.t0, self.arc_table.t1
        speed = self.arc_table.speed
        simpson = np.isnan(speed)
        k = np.ones(len(self.arcs), dtype=int)
        if np.any(simpson):
            frac = []
            for which, t in self._arc_blocks(257, endpoint=True):
                (p,) = self.arc_table.evaluate(which, "point")(t)
                p = p.reshape(-1, 257, 2)
                frac.append(np.sum(np.linalg.norm(np.diff(p, axis=1),
                                                  axis=2), axis=1))
            frac = np.concatenate(frac)
            frac = frac / frac.sum()
            k[simpson] = np.maximum(
                32, np.ceil(_TABLE_NODES * frac[simpson]).astype(int))
        first = np.concatenate([[0], np.cumsum(k + 1)])
        p, s = np.empty(first[-1]), np.empty(first[-1])
        two = first[:-1][~simpson]
        p[two], p[two + 1] = t0[~simpson], t1[~simpson]
        s[two], s[two + 1] = 0.0, (speed * (t1 - t0))[~simpson]

        # node i of the blocks' layout, which holds the Simpson arcs only,
        # is node i + shift[a] of the table for its arc a
        counts = np.where(simpson, k + 1, 0)
        sixth = (t1 - t0) / k / 6.0
        starts = np.cumsum(counts) - counts
        shift = first[:-1] - starts
        lo, last_p, last_sp = 0, 0.0, 0.0
        for which, t in self._arc_blocks(counts, endpoint=True):
            hi = lo + t.size
            # node i's Simpson term is the interval [p[i - 1], p[i]]'s: the
            # block's first node takes the last block's last node and its
            # speed; an arc's first node ends no interval, so its midpoint
            # is the node itself and its term is set to 0
            start = starts[(starts >= lo) & (starts < hi)] - lo
            mid = np.concatenate([[last_p], t[:-1]])
            mid[start] = t[start]
            mid += t
            mid *= 0.5
            seg = self._speed(which, mid)
            sp = self._speed(which, t)
            seg *= 4.0
            seg += np.concatenate([[last_sp], sp[:-1]])
            seg += sp
            seg *= sixth[which]
            seg[start] = 0.0
            rows = np.arange(lo, hi) + shift[which]
            p[rows], s[rows] = t, seg
            last_p, last_sp = t[-1], sp[-1]
            lo = hi
        for a in np.flatnonzero(simpson):
            run = s[first[a]:first[a + 1]]
            np.cumsum(run, out=run)
        cum = np.concatenate([[0.0], np.cumsum(s[first[1:] - 1])])
        return _Arclength(p=p, s=s, first=first, cum=cum)

    @property
    def length(self):
        return float(self._arclength.cum[-1])

    @property
    def arc_lengths(self):
        """(number of arcs,) arclength of each arc."""
        return np.diff(self._arclength.cum)

    @property
    def bbox(self):
        return self._bbox

    @property
    def extent(self):
        """Bounding-box diagonal; the length scale for tolerances and brackets."""
        return self._extent

    def param_to_s(self, arc_index, param):
        tab = self._arclength
        arc_index = np.atleast_1d(np.asarray(arc_index, dtype=int))
        param = np.atleast_1d(np.asarray(param, dtype=float))
        return (self._interp(arc_index, param, tab.p, tab.s)
                + tab.cum[arc_index])

    def s_to_param(self, s):
        tab = self._arclength
        L = tab.cum[-1]
        s = np.mod(np.atleast_1d(np.asarray(s, dtype=float)), L)
        aidx = np.clip(np.searchsorted(tab.cum, s, side="right") - 1,
                       0, len(self.arcs) - 1)
        return aidx, self._interp(aidx, s - tab.cum[aidx], tab.s, tab.p)

    def _interp(self, arc, x, xp, fp):
        """Row i is np.interp(x[i], xp[nodes], fp[nodes]) bit for bit, nodes
        those of arc arc[i] in the arclength table.

        Its node j is found as np.interp finds it: the arc's first on two
        nodes, and by np.searchsorted on the arc's own nodes otherwise (an
        arc with more is an ArcTable kind of its own).  The value is
        np.interp's slope times (x - xp[j]) plus fp[j], with fp[j] at and
        below node j, and the arc's last fp at and beyond its last node.
        """
        first = self._arclength.first
        j = first[arc]
        for a in np.flatnonzero(np.diff(first) > 2):
            rows = np.flatnonzero(arc == a)
            nodes = xp[first[a]:first[a + 1]]
            j[rows] += np.clip(np.searchsorted(nodes, x[rows], "right") - 1,
                               0, nodes.size - 2)
        lo, hi = xp[j], xp[j + 1]
        y = (fp[j + 1] - fp[j]) / (hi - lo) * (x - lo) + fp[j]
        return np.where(x <= lo, fp[j], np.where(x >= hi, fp[j + 1], y))

    # ------------------------------------------------------------- geometry

    def geometry(self, arc_index, param):
        """Vectorized point data at (arc_index, param) pairs.

        Evaluated _BLOCK_NODES rows at a time: a row's values do not
        depend on its batch.
        """
        arc_index = np.atleast_1d(np.asarray(arc_index, dtype=int))
        param = np.atleast_1d(np.asarray(param, dtype=float))
        n = param.size
        pos, tangent, normal = (np.empty((n, 2)) for _ in range(3))
        s, speed, kappa = np.empty(n), np.empty(n), np.empty(n)
        for i in range(0, n, _BLOCK_NODES):
            rows = slice(i, i + _BLOCK_NODES)
            s[rows] = self.param_to_s(arc_index[rows], param[rows])
            pos[rows], vel, acc = self.arc_table.evaluate(
                arc_index[rows], "point", "velocity",
                "acceleration")(param[rows])
            speed[rows], kappa[rows] = _speed_curvature(vel, acc)
            np.divide(vel, speed[rows, None], out=tangent[rows])
            normal[rows, 0] = tangent[rows, 1]
            normal[rows, 1] = -tangent[rows, 0]
        return _Geom(arc_index=arc_index, param=param, s=s, position=pos,
                     tangent=tangent, normal=normal, curvature=kappa, speed=speed)

    def curvature(self, arc_index, param):
        """Signed curvature at (arc_index, param) pairs, bit for bit
        geometry's, from velocity and acceleration only."""
        arc_index = np.atleast_1d(np.asarray(arc_index, dtype=int))
        param = np.atleast_1d(np.asarray(param, dtype=float))
        vel, acc = self.arc_table.evaluate(arc_index, "velocity",
                                           "acceleration")(param)
        return _speed_curvature(vel, acc)[1]

    def geometry_at_s(self, s):
        aidx, t = self.s_to_param(s)
        return self.geometry(aidx, t)

    # ------------------------------------------------------------- sampling

    def resample_struct(self, n):
        """Uniform-arclength node struct at k L / n; shifted by half a step
        when a node lies within 1e-9 L of a corner, and a node still that
        near one nudged 16e-9 L forward."""
        if n < 1:
            raise ValueError("need n >= 1")
        L = self.length
        nodes = np.arange(n) * (L / n)
        tol_hit = 1e-9 * L
        if np.min(self.corner_distance(nodes)) < tol_hit:
            nodes = nodes + L / (2 * n)
            nodes[self.corner_distance(nodes) < tol_hit] += 16 * tol_hit
        return self.geometry_at_s(nodes)

    @cached_property
    def sites(self):
        """Midpoint-offset per-arc sampling of ~_SITES sites: the one site
        table of the curve's cut values and projections.

        Built once per curve and shared by every reader, so its arrays
        must not be written to.
        """
        cum = self._arclength.cum
        L = cum[-1]
        counts = np.maximum(8, np.round(_SITES * (np.diff(cum) / L))
                            .astype(int))
        blocks = list(self._arc_blocks(counts, endpoint=False, offset=0.5))
        arc_index = np.concatenate([which for which, _ in blocks])
        params = np.concatenate([t for _, t in blocks])
        points = np.concatenate([self.arc_table.evaluate(which, "point")(t)[0]
                                 for which, t in blocks])
        s = self.param_to_s(arc_index, params)
        # every arc holds at least 8 consecutive sites
        first = np.searchsorted(arc_index, np.arange(len(self.arcs)))
        return DenseSites(points=points, params=params, arc_index=arc_index,
                          s=s, spacing=L / s.size,
                          dparam=params[first + 1] - params[first])

    def winding_polygon(self, m):
        """Per-arc sampling that keeps arc start points (corners included)."""
        span = self.arc_table.t1 - self.arc_table.t0
        # np.cumsum adds in order, as a running sum over the arcs does
        counts = np.maximum(8, np.round(m * span / np.cumsum(span)[-1]))
        return self._sample(counts.astype(int), endpoint=False)

    # -------------------------------------------------------------- corners

    @cached_property
    def junctions(self):
        """Junction table: two batched evaluations, arc ends and next starts."""
        cum = self._arclength.cum
        n = len(self.arcs)
        nxt = np.roll(np.arange(n), -1)
        ends = self.geometry(np.arange(n), self.arc_table.t1)
        starts = self.geometry(nxt, self.arc_table.t0[nxt])
        nu_m, nu_p = ends.normal, starts.normal
        cross = nu_m[:, 0] * nu_p[:, 1] - nu_m[:, 1] * nu_p[:, 0]
        dot = nu_m[:, 0] * nu_p[:, 0] + nu_m[:, 1] * nu_p[:, 1]
        return Junctions(s=np.mod(cum[1:], cum[-1]), position=ends.position,
                         nu_minus=nu_m, nu_plus=nu_p,
                         angle=np.arctan2(cross, dot), convex=cross > 0)

    @cached_property
    def corners(self):
        """CornerInfo of each junction turning by more than DEFAULT_ANGLE_TOL.

        Built once per curve and shared by every reader, so its arrays
        must not be written to."""
        jt = self.junctions
        return tuple(
            CornerInfo(junction=int(j), s=float(jt.s[j]),
                       position=jt.position[j].copy(),
                       nu_minus=jt.nu_minus[j].copy(),
                       nu_plus=jt.nu_plus[j].copy(),
                       angle=float(jt.angle[j]), convex=bool(jt.convex[j]))
            for j in np.flatnonzero(np.abs(jt.angle) > DEFAULT_ANGLE_TOL))

    @cached_property
    def corner_status(self):
        """none | convex-only | concave-present."""
        convex = [c.convex for c in self.corners]
        return ("none" if not convex else
                "convex-only" if all(convex) else "concave-present")

    def corner_arclengths(self):
        """(corners,) arclength of each corner, in junction order."""
        return np.array([c.s for c in self.corners])

    def corner_distance(self, s):
        """Cyclic arclength from each s to the nearest corner (inf if none):
        the nearer of the two corners around s in sorted order, which is
        the minimum of cyclic_dist over all corners."""
        corners = np.sort(self.corner_arclengths())
        if not corners.size:
            return np.full(np.shape(s), np.inf)
        k = np.searchsorted(corners, s)
        return np.minimum(cyclic_dist(s, corners[k - 1], self.length),
                          cyclic_dist(s, corners[k % corners.size],
                                      self.length))

    def check_starshaped(self):
        """(flag, min <y, nu>) over 2048 arclength samples; origin-dependent."""
        g = self.resample_struct(2048)
        support = np.sum(g.position * g.normal, axis=1)
        m = float(np.min(support))
        return bool(m > 0.0), m


def _speed_curvature(vel, acc):
    """|Y'| and the signed curvature (x'y'' - y'x'') / |Y'|^3 per row."""
    speed = np.linalg.norm(vel, axis=1)
    kappa = (vel[:, 0] * acc[:, 1] - vel[:, 1] * acc[:, 0]) / speed ** 3
    return speed, kappa


def cyclic_dist(s1, s2, length):
    """Cyclic arclength distance."""
    d = np.abs(np.asarray(s1, dtype=float) - np.asarray(s2, dtype=float))
    return np.minimum(d, length - d)


def _polyline_self_intersects(poly):
    """Proper crossing between non-adjacent segments of a closed polyline.

    Sort-and-sweep on x (Shamos & Hoey, "Geometric intersection problems",
    1976): segments whose closed x-ranges are disjoint cannot cross, so
    only the pairs that overlap in x go to the orientation test, in chunks
    whose four (pairs, 2) end-point arrays hold _PAIR_BUDGET floats
    together.
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

    chunk = _PAIR_BUDGET // 8
    for first in range(0, total, chunk):
        pair = np.arange(first, min(first + chunk, total))
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
