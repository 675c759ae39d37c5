"""Shape catalog and JSON shape-file ingestion.

Every builder returns a counterclockwise BoundaryCurve.  Optional "center"
translates the shape; optional "rotation" (radians) rotates it about the
origin before translation, so a centered shape spins in place.
"""

import json
import math

import numpy as np

from .arcs import (CircleArc, EllipseArc, FourierArc, SegmentArc,
                   SuperellipseArc, TransformedArc)
from .boundary import BoundaryCurve
from .errors import ConstructionError, ShapeParseError

__all__ = [
    "circle", "ellipse", "superellipse", "rounded_polygon", "square",
    "stadium", "union_disks", "fourier", "from_spec", "load_shape",
    "SHAPE_SCHEMAS", "MAX_SIDES", "MAX_FOURIER_MODES",
]

# Largest shape a description may ask for: a rounded polygon has two arcs
# per side, and every evaluation of a Fourier radius sums its modes one at
# a time, so larger values would run for minutes or exhaust memory.
MAX_SIDES = 4096
MAX_FOURIER_MODES = 256


def _finish(arcs, center, rotation):
    center = np.asarray(center, dtype=float)
    if rotation != 0.0 or np.any(center != 0.0):
        arcs = [TransformedArc(a, rotation=rotation, shift=center) for a in arcs]
    return BoundaryCurve(arcs)


def circle(radius=1.0, center=(0.0, 0.0)):
    """Circle of given radius."""
    if radius <= 0:
        raise ConstructionError("radius must be positive")
    return _finish([CircleArc((0.0, 0.0), radius, 0.0, 2.0 * np.pi)], center, 0.0)


def ellipse(a, b, center=(0.0, 0.0), rotation=0.0):
    """Ellipse with semi-axes a (x) and b (y)."""
    return _finish([EllipseArc(a, b)], center, rotation)


def superellipse(a, b, p, center=(0.0, 0.0), rotation=0.0):
    """|x/a|^p + |y/b|^p = 1, p >= 2."""
    return _finish([SuperellipseArc(a, b, p)], center, rotation)


def square(side=2.0, center=(0.0, 0.0)):
    """Axis-aligned square with sharp corners."""
    if side <= 0:
        raise ConstructionError("side must be positive")
    h = side / 2.0
    v = [(-h, -h), (h, -h), (h, h), (-h, h)]
    arcs = [SegmentArc(v[i], v[(i + 1) % 4]) for i in range(4)]
    return _finish(arcs, center, 0.0)


def rounded_polygon(sides, side_length, corner_radius, center=(0.0, 0.0), rotation=0.0):
    """Regular polygon with circular-arc corners, C1 by construction."""
    k = int(sides)
    if k < 3:
        raise ConstructionError("need at least 3 sides")
    if side_length <= 0 or corner_radius <= 0:
        raise ConstructionError("side_length and corner_radius must be positive")
    half_int = (k - 2) * np.pi / (2.0 * k)       # half interior angle
    t_v = corner_radius / np.tan(half_int)       # tangent offset from vertex
    if not t_v < side_length / 2.0:
        raise ConstructionError("corner_radius too large for side_length")
    d_v = corner_radius / np.sin(half_int)       # vertex-to-arc-center distance
    rc = side_length / (2.0 * np.sin(np.pi / k))  # circumradius
    ang = -np.pi / 2.0 + np.pi / k + 2.0 * np.pi * np.arange(k) / k
    verts = rc * np.stack([np.cos(ang), np.sin(ang)], axis=-1)
    centers = verts * (1.0 - d_v / rc)
    arcs = []
    ext = 2.0 * np.pi / k                        # exterior (turning) angle
    for i in range(k):
        v0 = verts[i]
        v1 = verts[(i + 1) % k]
        u = (v1 - v0) / np.linalg.norm(v1 - v0)
        p_out = v0 + t_v * u                     # leave corner i
        p_in = v1 - t_v * u                      # enter corner i+1
        arcs.append(SegmentArc(p_out, p_in))
        c = centers[(i + 1) % k]
        a0 = np.arctan2(p_in[1] - c[1], p_in[0] - c[0])
        arcs.append(CircleArc(c, corner_radius, a0, a0 + ext))
    return _finish(arcs, center, rotation)


def stadium(cap_radius=1.0, straight_length=2.0, center=(0.0, 0.0), rotation=0.0):
    """Rectangle with semicircular caps; C1 with curvature jumps."""
    if cap_radius <= 0 or straight_length <= 0:
        raise ConstructionError("cap_radius and straight_length must be positive")
    r = cap_radius
    h = straight_length / 2.0
    arcs = [
        SegmentArc((-h, -r), (h, -r)),
        CircleArc((h, 0.0), r, -np.pi / 2.0, np.pi / 2.0),
        SegmentArc((h, r), (-h, r)),
        CircleArc((-h, 0.0), r, np.pi / 2.0, 3.0 * np.pi / 2.0),
    ]
    return _finish(arcs, center, rotation)


def union_disks(radius=2.0, half_distance=1.0, center=(0.0, 0.0)):
    """Union of two overlapping equal disks; two concave corners."""
    R = float(radius)
    c = float(half_distance)
    if not (0.0 < c < R):
        raise ConstructionError("need 0 < half_distance < radius for overlap")
    yc = np.sqrt(R * R - c * c)
    th = np.arctan2(yc, -c)  # angle of the upper corner seen from (c, 0)
    arcs = [
        CircleArc((c, 0.0), R, -th, th),
        CircleArc((-c, 0.0), R, np.pi - th, np.pi + th),
    ]
    return _finish(arcs, center, 0.0)


def fourier(a0, cos_coeffs=(), sin_coeffs=(), center=(0.0, 0.0), rotation=0.0):
    """Polar boundary r(t) = a0 + sum a_k cos(kt) + b_k sin(kt)."""
    try:
        arc = FourierArc(a0, cos_coeffs, sin_coeffs)
    except ValueError as e:
        raise ConstructionError(str(e)) from e
    return _finish([arc], center, rotation)


SHAPE_SCHEMAS = {
    "circle": {"radius": "number > 0", "center": "[x, y], optional"},
    "ellipse": {"a": "semi-axis (x) > 0", "b": "semi-axis (y) > 0",
                "center": "[x, y], optional", "rotation": "radians, optional"},
    "superellipse": {"a": "semi-axis > 0", "b": "semi-axis > 0",
                     "p": "exponent >= 2", "center": "[x, y], optional",
                     "rotation": "radians, optional"},
    "square": {"side": "number > 0", "center": "[x, y], optional"},
    "rounded_polygon": {"sides": f"integer, 3 to {MAX_SIDES}",
                        "side_length": "number > 0",
                        "corner_radius": "number > 0 (tangent fit must leave "
                                         "room on each side)",
                        "center": "[x, y], optional",
                        "rotation": "radians, optional"},
    "stadium": {"cap_radius": "number > 0", "straight_length": "number > 0",
                "center": "[x, y], optional", "rotation": "radians, optional"},
    "union_disks": {"radius": "number > 0", "half_distance": "0 < value < radius",
                    "center": "[x, y], optional"},
    "fourier": {"a0": "mean radius",
                "cos": f"[a_1, a_2, ...], at most {MAX_FOURIER_MODES}, optional",
                "sin": f"[b_1, b_2, ...], at most {MAX_FOURIER_MODES}, optional",
                "center": "[x, y], optional", "rotation": "radians, optional"},
}

_BUILDERS = {
    "circle": (circle, ("radius",), ()),
    "ellipse": (ellipse, ("a", "b"), ("rotation",)),
    "superellipse": (superellipse, ("a", "b", "p"), ("rotation",)),
    "square": (square, ("side",), ()),
    "rounded_polygon": (rounded_polygon, ("sides", "side_length", "corner_radius"),
                        ("rotation",)),
    "stadium": (stadium, ("cap_radius", "straight_length"), ("rotation",)),
    "union_disks": (union_disks, ("radius", "half_distance"), ()),
    "fourier": (fourier, ("a0",), ("rotation",)),
}


def _number(kind, key, value, integer=False):
    """value itself when it is a finite number (an integral one if integer);
    booleans and strings are not numbers."""
    ok = isinstance(value, (int, float)) and not isinstance(value, bool)
    try:
        ok = ok and math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        ok = False
    if not ok:
        raise ShapeParseError(
            f"shape {kind!r}: {key} must be a finite number, not {value!r}")
    if integer and value != int(value):
        raise ShapeParseError(
            f"shape {kind!r}: {key} must be an integer, not {value!r}")
    return value


def _numbers(kind, key, value, most=None):
    if not isinstance(value, (list, tuple)):
        raise ShapeParseError(f"shape {kind!r}: {key} must be a list")
    if most is not None and len(value) > most:
        raise ShapeParseError(
            f"shape {kind!r}: {key} holds {len(value)} values, at most {most}")
    return [_number(kind, key, v) for v in value]


def from_spec(spec):
    """Build a curve from a shape description dict (parsed JSON)."""
    if not isinstance(spec, dict):
        raise ShapeParseError("shape description must be a JSON object")
    kind = spec.get("type")
    if kind not in _BUILDERS:
        known = ", ".join(sorted(_BUILDERS))
        raise ShapeParseError(f"unknown shape type {kind!r}; known: {known}")
    fn, required, optional = _BUILDERS[kind]
    kwargs = {}
    for key in required:
        if key not in spec:
            raise ShapeParseError(f"shape {kind!r} is missing key {key!r}")
        kwargs[key] = _number(kind, key, spec[key], integer=key == "sides")
    if kwargs.get("sides", 0) > MAX_SIDES:
        raise ShapeParseError(
            f"shape {kind!r}: sides must be at most {MAX_SIDES}, "
            f"not {kwargs['sides']!r}")
    for key in optional:
        if key in spec:
            kwargs[key] = _number(kind, key, spec[key])
    if kind == "fourier":
        kwargs["cos_coeffs"] = _numbers(kind, "cos", spec.get("cos", ()),
                                        MAX_FOURIER_MODES)
        kwargs["sin_coeffs"] = _numbers(kind, "sin", spec.get("sin", ()),
                                        MAX_FOURIER_MODES)
    if "center" in spec:
        c = spec["center"]
        if not (isinstance(c, (list, tuple)) and len(c) == 2):
            raise ShapeParseError("center must be [x, y]")
        kwargs["center"] = _numbers(kind, "center", c)
    try:
        return fn(**kwargs)
    except (TypeError, ValueError) as e:
        raise ShapeParseError(f"bad parameters for {kind!r}: {e}") from e


def load_shape(path):
    """Parse a JSON shape file into a BoundaryCurve."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as e:
        raise ShapeParseError(f"cannot read shape file {path}: {e}") from e
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise ShapeParseError(f"invalid JSON in {path}: {e.msg}",
                              line=e.lineno, column=e.colno) from e
    return from_spec(spec)
