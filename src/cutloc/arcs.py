"""Parametric arc pieces: C2 maps t -> R^2 with first and second derivatives.

All evaluators accept scalar or (n,) parameter arrays and return (n, 2).
Arcs are immutable; a curve chains them end to start, counterclockwise.

A curve's ArcTable stacks the coefficients of its arcs once, one stack
per arc kind, and evaluates (arc, parameter) rows kind by kind.  The rows
of one kind also find their feet (nearest points), within a parameter
bracket per row: segments and circular arcs in closed form, every other
class by safeguarded Newton steps on <Y(p) - x, Y'(p)> = 0.
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


# Newton steps per foot: a site-table seed sits within one site step of
# the foot and a grid seed within a few cells, and quadratic convergence
# reaches rounding level from there in four or five steps
_NEWTON_STEPS = 6


def _col(t):
    return np.atleast_1d(np.asarray(t, dtype=float))


def _dot(u, v):
    """Row-wise <u, v> of (n, 2) arrays, elementwise (batch independent)."""
    return u[:, 0] * v[:, 0] + u[:, 1] * v[:, 1]


def _nearest_of(rows, x, candidates):
    """Per row, the candidate parameter whose point on its row of rows (an
    ArcTable.rows evaluator) is nearest x.

    Ties go to the earliest candidate.
    """
    dist2 = []
    for p in candidates:
        d = rows.point(p) - x
        dist2.append(_dot(d, d))
    return np.choose(np.argmin(dist2, axis=0), candidates)


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


class ArcTable:
    """A curve's arcs as arrays, built once per curve.

    t0, t1: (number of arcs,) parameter ranges.  speed: each arc's
    Arc.constant_speed, NaN where it has none.  kind: each arc's kind
    index; arcs of one Arc.kind share one kind, and an arc whose kind is
    None is a kind of its own.  slot: each arc's row in its kind's stack
    (Arc.stack; the arc itself when its kind is None).
    """

    def __init__(self, arcs):
        self.t0 = np.array([arc.t0 for arc in arcs])
        self.t1 = np.array([arc.t1 for arc in arcs])
        self.speed = np.array([np.nan if arc.constant_speed is None
                               else arc.constant_speed for arc in arcs])
        index, members, kind, slot = {}, [], [], []
        for a, arc in enumerate(arcs):
            key = arc.kind
            k = index.setdefault(a if key is None else key, len(members))
            if k == len(members):
                members.append((key, []))
            kind.append(k)
            slot.append(len(members[k][1]))
            members[k][1].append(arc)
        self.kind = np.array(kind, dtype=np.intp)
        self.slot = np.array(slot, dtype=np.intp)
        self._stacks = [(group[0], False) if key is None
                        else (type(group[0]).stack(group), True)
                        for key, group in members]

    def rows(self, kind, which):
        """Evaluator whose row i is arc which[i]'s, the arcs of one kind."""
        stack, stacked = self._stacks[kind]
        return stack.take(self.slot[which]) if stacked else stack

    def evaluate(self, which, *names):
        """Callable t -> one (n, 2) array per named evaluator ("point", ...).

        Row i comes from arc which[i].  Rows are grouped once by kind with
        arc_runs, and each kind's rows evaluate at once through its stack:
        a row's value is its arc's own, bit for bit.
        """
        which = np.asarray(which)
        groups = [(self.rows(k, which[rows]), rows)
                  for k, rows in arc_runs(self.kind[which])]
        # each evaluator's rows come out grouped; back puts them in order
        order = np.concatenate([rows for _, rows in groups]
                               or [np.zeros(0, dtype=np.intp)])
        back = np.empty(order.size, dtype=np.intp)
        back[order] = np.arange(order.size)

        def evaluate(t):
            t_rows = [t[rows] for _, rows in groups]
            out = []
            for name in names:
                grouped = [getattr(arc, name)(tr)
                           for (arc, _), tr in zip(groups, t_rows)]
                out.append(np.take(np.concatenate(
                    grouped or [np.empty((0, 2))]), back, axis=0))
            return out
        return evaluate


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

    # |Y'| where it is the same at every parameter, else None
    constant_speed = None

    # the attributes that hold an arc's coefficients, when its evaluators
    # are closed forms in them; empty: each arc evaluates its own rows
    _ROW_COEFFICIENTS = ()

    @property
    def kind(self):
        """Key under which an ArcTable stacks arcs: the class, when it
        stacks (_ROW_COEFFICIENTS), else None (this arc alone)."""
        return type(self) if self._ROW_COEFFICIENTS else None

    @classmethod
    def stack(cls, arcs):
        """An instance of cls holding arcs' coefficients, one row per arc.

        arcs are of one kind (Arc.kind is not None).  Each coefficient is
        an (n, 1) array for a number and (n, 2) for a vector.
        """
        stack = object.__new__(cls)
        for name in cls._ROW_COEFFICIENTS:
            value = np.array([getattr(arc, name) for arc in arcs])
            setattr(stack, name, value.reshape(len(arcs), -1))
        return stack

    def take(self, slots):
        """Rows of this stack (Arc.stack), row i its row slots[i]: the
        class's own evaluators run once on all of them, with the same
        elementwise arithmetic as each arc's."""
        rows = object.__new__(type(self))
        for name in self._ROW_COEFFICIENTS:
            setattr(rows, name, getattr(self, name)[slots])
        return rows

    def batch_foot(self, x, seed, lo, hi):
        """Parameter in [lo, hi] of the point of row i nearest x[i].

        self is an ArcTable.rows evaluator.  Safeguarded Newton on
        g(p) = <Y(p) - x, Y'(p)>, the derivative of |Y(p) - x|^2 / 2, from
        the seed: the sign of g keeps a bracket around the minimum, and a
        step that leaves it, or one taken where
        g' = |Y'|^2 + <Y - x, Y''> <= 0 (at and beyond focal points),
        bisects it instead.  The answer is the nearest of the Newton
        point and the two ends of [lo, hi].  x is (n, 2); seed, lo, hi
        are (n,).
        """
        p = np.clip(seed, lo, hi)
        a, b = lo, hi
        with np.errstate(divide="ignore", invalid="ignore"):
            for _ in range(_NEWTON_STEPS):
                d = self.point(p) - x
                v = self.velocity(p)
                g = _dot(d, v)
                dg = _dot(v, v) + _dot(d, self.acceleration(p))
                # the distance grows at p where g > 0: the minimum is left
                a = np.where(g > 0, a, p)
                b = np.where(g > 0, p, b)
                step = p - g / dg
                newton = (dg > 0) & (step >= a) & (step <= b)
                p = np.where(newton, step, 0.5 * (a + b))
        return _nearest_of(self, x, (p, lo, hi))


class CircleArc(Arc):
    _ROW_COEFFICIENTS = ("center", "radius")

    def __init__(self, center, radius, t0, t1):
        if radius <= 0:
            raise ValueError("radius must be positive")
        if not t1 > t0:
            raise ValueError("need t1 > t0")
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.t0 = float(t0)
        self.t1 = float(t1)

    @property
    def constant_speed(self):
        return self.radius

    def point(self, t):
        t = _col(t)
        return self.center + self.radius * np.stack([np.cos(t), np.sin(t)], axis=-1)

    def batch_foot(self, x, seed, lo, hi):
        """The polar angle of x about the centre, in closed form.

        The angle is shifted by whole turns to its first value >= lo; when
        that is past hi, the nearer end of the bracket wins (the distance
        grows with the angle to the foot, either way round).
        """
        rel = x - self.center
        theta = np.arctan2(rel[:, 1], rel[:, 0])
        theta = theta + 2.0 * np.pi * np.ceil((lo - theta) / (2.0 * np.pi))
        far = theta > hi
        if np.any(far):
            theta[far] = _nearest_of(self.take(far), x[far],
                                     (hi[far], lo[far]))
        return theta

    def velocity(self, t):
        t = _col(t)
        return self.radius * np.stack([-np.sin(t), np.cos(t)], axis=-1)

    def acceleration(self, t):
        t = _col(t)
        return -self.radius * np.stack([np.cos(t), np.sin(t)], axis=-1)


class SegmentArc(Arc):
    """Straight segment, t in [0, 1]."""

    _ROW_COEFFICIENTS = ("p0", "p1")

    def __init__(self, p0, p1):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)
        if not np.linalg.norm(self.p1 - self.p0) > 0:
            raise ValueError("degenerate segment")
        self.t0 = 0.0
        self.t1 = 1.0

    @property
    def constant_speed(self):
        return float(np.hypot(*(self.p1 - self.p0)))

    def point(self, t):
        t = _col(t)
        return self.p0 + t[:, None] * (self.p1 - self.p0)

    def batch_foot(self, x, seed, lo, hi):
        """The clamped projection parameter <x - p0, p1 - p0> / |p1 - p0|^2.

        |Y(t) - x|^2 is a convex quadratic in t, so clamping its minimizer
        to [lo, hi] gives the minimizer over the bracket.
        """
        step = self.p1 - self.p0
        return np.clip(_dot(x - self.p0, step) / _dot(step, step), lo, hi)

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

    Subclasses provide _radius(t, order) -> (r, r', r'')[:order + 1]
    (vectorized), sharing work between the derivatives.  The curve is
    regular whenever r > 0 since |Y'|^2 = r^2 + r'^2.
    """

    t0 = 0.0
    t1 = 2.0 * np.pi

    def _radius(self, t, order):
        raise NotImplementedError

    def point(self, t):
        t = _col(t)
        (r,) = self._radius(t, 0)
        return np.stack([r * np.cos(t), r * np.sin(t)], axis=-1)

    def velocity(self, t):
        t = _col(t)
        r, dr = self._radius(t, 1)
        c, s = np.cos(t), np.sin(t)
        return np.stack([dr * c - r * s, dr * s + r * c], axis=-1)

    def acceleration(self, t):
        t = _col(t)
        r, dr, ddr = self._radius(t, 2)
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

    def _radius(self, t, order):
        # r = g^(-1/p) with g = |cos t / a|^p + |sin t / b|^p
        p = self.p
        g, dg, ddg = self._guv(t)
        r = g ** (-1.0 / p)
        dr = -(1.0 / p) * g ** (-1.0 / p - 1.0) * dg
        ddr = ((1.0 / p) * (1.0 / p + 1.0) * g ** (-1.0 / p - 2.0) * dg * dg
               - (1.0 / p) * g ** (-1.0 / p - 1.0) * ddg)
        return (r, dr, ddr)[:order + 1]


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
        (probe,) = self._radius(
            np.linspace(0.0, 2.0 * np.pi, 4096, endpoint=False), 0)
        if np.min(probe) <= 0:
            raise ValueError("radius must stay positive")

    def _radius(self, t, order):
        # sum the modes elementwise in a fixed order: a matrix product's
        # rounding can depend on the number of rows, and a row's value must
        # not depend on its batch; one mode at a time keeps temporaries (n,)
        k, k2 = self.k, self.k * self.k
        coeffs = [(self.ak, self.bk), (k * self.bk, -k * self.ak),
                  (-k2 * self.ak, -k2 * self.bk)][:order + 1]
        out = [np.zeros(t.shape) for _ in coeffs]
        for j in range(k.size):
            kt = k[j] * t
            cos, sin = np.cos(kt), np.sin(kt)
            for o, (ca, sa) in zip(out, coeffs):
                o += ca[j] * cos + sa[j] * sin
        out[0] += self.a0
        return out


class TransformedArc(Arc):
    """scale * R(rotation) * base(t) + shift; curvature scales by 1/scale."""

    _ROW_COEFFICIENTS = ("scale", "_cos", "_sin", "shift")

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

    @property
    def constant_speed(self):
        base = self.base.constant_speed
        return None if base is None else self.scale * base

    @property
    def kind(self):
        """(TransformedArc, the base's kind), or None if the base's is."""
        base = self.base.kind
        return None if base is None else (TransformedArc, base)

    @classmethod
    def stack(cls, arcs):
        """Arc.stack, with the bases stacked too (one kind, as ours)."""
        stack = super().stack(arcs)
        stack.base = type(arcs[0].base).stack([arc.base for arc in arcs])
        return stack

    def take(self, slots):
        """Arc.take, with the bases' rows too."""
        rows = super().take(slots)
        rows.base = self.base.take(slots)
        return rows

    def _apply(self, xy, translate):
        # elementwise: a matrix product's rounding can depend on the
        # number of rows, and a row's value must not depend on its batch
        c, s = self._cos, self._sin
        x, y = xy[:, :1], xy[:, 1:]
        out = self.scale * np.concatenate([c * x - s * y, s * x + c * y],
                                          axis=1)
        if translate:
            out = out + self.shift
        return out

    def point(self, t):
        return self._apply(self.base.point(t), True)

    def velocity(self, t):
        return self._apply(self.base.velocity(t), False)

    def acceleration(self, t):
        return self._apply(self.base.acceleration(t), False)
