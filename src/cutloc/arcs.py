"""Parametric arc pieces: C2 maps t -> R^2 with first and second derivatives.

All evaluators accept scalar or (n,) parameter arrays and return (n, 2).
Arcs are immutable; a curve chains them end to start, counterclockwise.
"""

import numpy as np

__all__ = [
    "Arc",
    "CircleArc",
    "SegmentArc",
    "EllipseArc",
    "PolarArc",
    "SuperellipseArc",
    "FourierArc",
    "TransformedArc",
]


def _col(t):
    return np.atleast_1d(np.asarray(t, dtype=float))


def arc_runs(index):
    """Rows grouped by arc: (arc, rows) pairs, one per arc that owns a row.

    A single stable argsort of the (n,) int index puts each arc's rows in
    one contiguous run, so grouping costs O(n log n) however many arcs
    there are; rows keep their input order within an arc.  Empty input
    gives no groups.
    """
    index = np.asarray(index)
    if index.size == 0:
        return
    order = np.argsort(index, kind="stable")
    edges = np.flatnonzero(np.diff(index[order])) + 1
    for rows in np.split(order, edges):
        yield int(index[rows[0]]), rows


class Arc:
    """Base class. Subclasses set t0/t1 and implement the three evaluators."""

    t0 = 0.0
    t1 = 1.0

    def point(self, t):
        raise NotImplementedError

    def velocity(self, t):
        raise NotImplementedError

    def acceleration(self, t):
        raise NotImplementedError

    @classmethod
    def batch_point(cls, arcs, which):
        """Callable t -> (n, 2) with row i on arcs[which[i]], all of class cls.

        Evaluates each arc's point on its own rows; subclasses with a
        closed form override it with stacked per-row coefficients.
        """
        groups = list(arc_runs(which))

        def point(t):
            out = np.empty((t.size, 2))
            for k, rows in groups:
                out[rows] = arcs[k].point(t[rows])
            return out
        return point

    @property
    def start(self):
        return self.point(self.t0)[0]

    @property
    def end(self):
        return self.point(self.t1)[0]


class CircleArc(Arc):
    def __init__(self, center, radius, t0, t1):
        if radius <= 0:
            raise ValueError("radius must be positive")
        if not t1 > t0:
            raise ValueError("need t1 > t0")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.t0 = float(t0)
        self.t1 = float(t1)

    def point(self, t):
        t = _col(t)
        return self.center + self.radius * np.stack([np.cos(t), np.sin(t)], axis=-1)

    @classmethod
    def batch_point(cls, arcs, which):
        center = np.array([arc.center for arc in arcs])[which]
        radius = np.array([arc.radius for arc in arcs])[which, None]
        return lambda t: center + radius * np.stack([np.cos(t), np.sin(t)],
                                                    axis=-1)

    def velocity(self, t):
        t = _col(t)
        return self.radius * np.stack([-np.sin(t), np.cos(t)], axis=-1)

    def acceleration(self, t):
        t = _col(t)
        return -self.radius * np.stack([np.cos(t), np.sin(t)], axis=-1)


class SegmentArc(Arc):
    """Straight segment, t in [0, 1]."""

    def __init__(self, p0, p1):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        if not np.linalg.norm(self.p1 - self.p0) > 0:
            raise ValueError("degenerate segment")
        self.t0 = 0.0
        self.t1 = 1.0

    def point(self, t):
        t = _col(t)
        return self.p0 + t[:, None] * (self.p1 - self.p0)

    @classmethod
    def batch_point(cls, arcs, which):
        p0 = np.array([arc.p0 for arc in arcs])[which]
        step = np.array([arc.p1 - arc.p0 for arc in arcs])[which]
        return lambda t: p0 + t[:, None] * step

    def velocity(self, t):
        t = _col(t)
        return np.broadcast_to(self.p1 - self.p0, (t.size, 2)).copy()

    def acceleration(self, t):
        t = _col(t)
        return np.zeros((t.size, 2))


class EllipseArc(Arc):
    """Full ellipse (a cos t, b sin t), t in [0, 2pi]."""

    def __init__(self, a, b):
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        self.a = float(a)
        self.b = float(b)
        self.t0 = 0.0
        self.t1 = 2.0 * np.pi

    def point(self, t):
        t = _col(t)
        return np.stack([self.a * np.cos(t), self.b * np.sin(t)], axis=-1)

    def velocity(self, t):
        t = _col(t)
        return np.stack([-self.a * np.sin(t), self.b * np.cos(t)], axis=-1)

    def acceleration(self, t):
        t = _col(t)
        return np.stack([-self.a * np.cos(t), -self.b * np.sin(t)], axis=-1)


class PolarArc(Arc):
    """Closed polar graph (r(t) cos t, r(t) sin t), t in [0, 2pi].

    Subclasses provide _r, _dr, _ddr (vectorized).  The curve is regular
    whenever r > 0 since |Y'|^2 = r^2 + r'^2.
    """

    t0 = 0.0
    t1 = 2.0 * np.pi

    def _r(self, t):
        raise NotImplementedError

    def _dr(self, t):
        raise NotImplementedError

    def _ddr(self, t):
        raise NotImplementedError

    def point(self, t):
        t = _col(t)
        r = self._r(t)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def velocity(self, t):
        t = _col(t)
        r, dr = self._r(t), self._dr(t)
        c, s = np.cos(t), np.sin(t)
        return np.stack([dr * c - r * s, dr * s + r * c], axis=-1)

    def acceleration(self, t):
        t = _col(t)
        r, dr, ddr = self._r(t), self._dr(t), self._ddr(t)
        c, s = np.cos(t), np.sin(t)
        return np.stack([ddr * c - 2 * dr * s - r * c,
                         ddr * s + 2 * dr * c - r * s], axis=-1)


class SuperellipseArc(PolarArc):
    """|x/a|^p + |y/b|^p = 1 in polar form; C2 for p >= 2."""

    def __init__(self, a, b, p):
        if a <= 0 or b <= 0:
            raise ValueError("semi-axes must be positive")
        if p < 2:
            raise ValueError("need p >= 2 for a C2 boundary")
        self.a = float(a)
        self.b = float(b)
        self.p = float(p)

    def _guv(self, t):
        p = self.p
        c, s = np.cos(t), np.sin(t)
        ac, as_ = np.abs(c), np.abs(s)
        u = ac ** p
        v = as_ ** p
        du = -p * np.sign(c) * ac ** (p - 1) * s
        dv = p * np.sign(s) * as_ ** (p - 1) * c
        ddu = p * (p - 1) * ac ** (p - 2) * s * s - p * u
        ddv = p * (p - 1) * as_ ** (p - 2) * c * c - p * v
        ap, bp = self.a ** p, self.b ** p
        g = u / ap + v / bp
        dg = du / ap + dv / bp
        ddg = ddu / ap + ddv / bp
        return g, dg, ddg

    def _r(self, t):
        g, _, _ = self._guv(t)
        return g ** (-1.0 / self.p)

    def _dr(self, t):
        p = self.p
        g, dg, _ = self._guv(t)
        return -(1.0 / p) * g ** (-1.0 / p - 1.0) * dg

    def _ddr(self, t):
        p = self.p
        g, dg, ddg = self._guv(t)
        return ((1.0 / p) * (1.0 / p + 1.0) * g ** (-1.0 / p - 2.0) * dg * dg
                - (1.0 / p) * g ** (-1.0 / p - 1.0) * ddg)


class FourierArc(PolarArc):
    """Truncated Fourier radius r(t) = a0 + sum a_k cos(kt) + b_k sin(kt)."""

    def __init__(self, a0, cos_coeffs=(), sin_coeffs=()):
        self.a0 = float(a0)
        self.ak = np.asarray(cos_coeffs, dtype=float)
        self.bk = np.asarray(sin_coeffs, dtype=float)
        n = max(self.ak.size, self.bk.size)
        self.ak = np.pad(self.ak, (0, n - self.ak.size))
        self.bk = np.pad(self.bk, (0, n - self.bk.size))
        self.k = np.arange(1, n + 1, dtype=float)
        probe = self._r(np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False))
        if np.min(probe) <= 0:
            raise ValueError("radius must stay positive")

    def _modes(self, t):
        kt = np.multiply.outer(t, self.k)
        return np.cos(kt), np.sin(kt)

    def _r(self, t):
        c, s = self._modes(t)
        return self.a0 + c @ self.ak + s @ self.bk

    def _dr(self, t):
        c, s = self._modes(t)
        return -(s * self.k) @ self.ak + (c * self.k) @ self.bk

    def _ddr(self, t):
        c, s = self._modes(t)
        k2 = self.k * self.k
        return -(c * k2) @ self.ak - (s * k2) @ self.bk


class TransformedArc(Arc):
    """scale * R(rotation) * base(t) + shift; curvature scales by 1/scale."""

    def __init__(self, base, scale=1.0, rotation=0.0, shift=(0.0, 0.0)):
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.base = base
        self.scale = float(scale)
        self.rotation = float(rotation)
        self.shift = np.asarray(shift, dtype=float)
        self._cos, self._sin = np.cos(self.rotation), np.sin(self.rotation)
        self.t0 = base.t0
        self.t1 = base.t1

    def _apply(self, xy, translate):
        # elementwise: a matrix product's rounding can depend on the
        # number of rows, and a row's value must not depend on its batch
        c, s = self._cos, self._sin
        x, y = xy[:, 0], xy[:, 1]
        out = self.scale * np.stack([c * x - s * y, s * x + c * y], axis=-1)
        if translate:
            out = out + self.shift
        return out

    def point(self, t):
        return self._apply(self.base.point(t), True)

    def velocity(self, t):
        return self._apply(self.base.velocity(t), False)

    def acceleration(self, t):
        return self._apply(self.base.acceleration(t), False)
