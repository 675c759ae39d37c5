import numpy as np

from cutloc import from_spec
from cutloc._kernels import inside_polygon


def _contains(curve, points):
    poly = curve.winding_polygon(4096)
    return inside_polygon(np.asarray(points, dtype=float), poly)


def test_circle_geometry(curves):
    curve = curves("circle")
    g = curve.geometry_at_s([0.0, 0.25 * curve.length])
    assert np.allclose(g.position[0], [1.0, 0.0], atol=1e-12)
    # quarter point goes through the tabulated arclength inversion
    assert np.allclose(g.position[1], [0.0, 1.0], atol=1e-9)
    assert np.allclose(g.normal[0], [1.0, 0.0], atol=1e-12)
    assert np.allclose(g.curvature, 1.0, atol=1e-12)
    assert np.isclose(curve.length, 2.0 * np.pi, rtol=1e-10)


def test_normal_is_outward_unit(curves):
    for name in ("ellipse", "superellipse", "fourier", "stadium"):
        curve = curves(name)
        s = np.linspace(0.0, curve.length, 97, endpoint=False)
        g = curve.geometry_at_s(s)
        assert np.allclose(np.linalg.norm(g.normal, axis=1), 1.0, atol=1e-9)
        # outward: a small step along nu leaves the domain
        inner = g.position - 1e-4 * g.normal
        assert _contains(curve, inner).all()
        outer = g.position + 1e-4 * g.normal
        assert not _contains(curve, outer).any()


def test_tangent_normal_frame(curves):
    curve = curves("ellipse")
    s = np.linspace(0.0, curve.length, 33, endpoint=False)
    g = curve.geometry_at_s(s)
    dots = np.sum(g.tangent * g.normal, axis=1)
    assert np.allclose(dots, 0.0, atol=1e-12)
    # ccw frame: nu = rot(-90) tangent
    assert np.allclose(g.normal[:, 0], g.tangent[:, 1], atol=1e-12)
    assert np.allclose(g.normal[:, 1], -g.tangent[:, 0], atol=1e-12)


def test_ellipse_curvature_at_vertices(curves):
    curve = curves("ellipse")
    g = curve.geometry_at_s([0.0])
    assert np.isclose(g.curvature[0], 2.0, rtol=1e-9)  # a/b^2
    # locate the minor vertex by max y (arclength quarter is nearby only)
    s = np.linspace(0.0, curve.length, 4097)
    gg = curve.geometry_at_s(s)
    i = np.argmax(gg.position[:, 1])
    assert np.isclose(gg.curvature[i], 0.25, rtol=1e-5)  # b/a^2


def test_arclength_roundtrip(curves):
    curve = curves("fourier")
    s = np.linspace(0.0, curve.length, 50, endpoint=False)
    g = curve.geometry_at_s(s)
    again = curve.param_to_s(g.arc_index, g.param)
    assert np.allclose(again, s, atol=1e-8 * curve.length)


def test_square_corners(curves):
    curve = curves("square")
    corners = curve.detect_corners()
    assert len(corners) == 4
    assert all(c.convex for c in corners)
    for c in corners:
        assert np.isclose(abs(c.angle), 0.5 * np.pi, atol=1e-9)
        assert np.allclose(np.abs(c.position), [1.0, 1.0], atol=1e-9)


def test_c1_junctions_are_not_corners(curves):
    assert curves("stadium").detect_corners() == []
    assert curves("rounded").detect_corners() == []


def test_union_has_concave_corners(curves):
    corners = curves("union").detect_corners()
    assert len(corners) == 2
    assert all(not c.convex for c in corners)


def test_starshaped_flags(curves):
    for name in ("circle", "ellipse", "square", "stadium", "superellipse"):
        flag, margin = curves(name).check_starshaped()
        assert flag
        assert margin > 0
    off = from_spec({"type": "circle", "radius": 1.0, "center": [2.0, 0.0]})
    flag, margin = off.check_starshaped()
    assert not flag


def test_transformed_scales_geometry(curves):
    curve = curves("ellipse")
    big = curve.transformed(scale=2.0)
    assert np.isclose(big.length, 2.0 * curve.length, rtol=1e-9)
    g = curve.geometry_at_s([0.0])
    gb = big.geometry_at_s([0.0])
    assert np.allclose(gb.position, 2.0 * g.position, atol=1e-9)
    assert np.allclose(gb.curvature, 0.5 * g.curvature, atol=1e-9)


def test_transformed_rotation_preserves_length(curves):
    curve = curves("ellipse")
    rot = curve.transformed(rotation=0.7)
    assert np.isclose(rot.length, curve.length, rtol=1e-9)
    g = rot.geometry_at_s([0.0])
    c, s = np.cos(0.7), np.sin(0.7)
    p0 = curve.geometry_at_s([0.0]).position[0]
    expect = np.array([c * p0[0] - s * p0[1], s * p0[0] + c * p0[1]])
    assert np.allclose(g.position[0], expect, atol=1e-9)


def test_winding_polygon_is_ccw(curves):
    poly = curves("ellipse").winding_polygon(512)
    x, y = poly[:, 0], poly[:, 1]
    area2 = np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area2 > 0
    assert np.isclose(0.5 * area2, 2.0 * np.pi, rtol=1e-3)
