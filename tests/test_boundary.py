import numpy as np
import pytest

from cutloc import Domain, corner_sum, criterion_report, cut_table, from_spec
from cutloc._kernels import inside_polygon
from cutloc.arcs import Arc, ArcTable, CircleArc, SegmentArc
from cutloc.boundary import (_BLOCK_NODES, _SITES, DEFAULT_ANGLE_TOL,
                             BoundaryCurve, _polyline_self_intersects,
                             cyclic_dist)
from cutloc.errors import ConstructionError
from cutloc.integrals import ROT_CCW
from cutloc.symmetry import diameter

from conftest import SPECS, traced_peak_mb, transformed

POLYGON = {"type": "rounded_polygon", "sides": 96, "side_length": 0.2,
           "corner_radius": 0.05}
SHAPES = ("circle", "circle_small", "circle_big", "ellipse", "superellipse",
          "square", "rounded", "stadium", "union", "fourier")


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


def _arc_slices(curve):
    """Each arc's parameter and arclength nodes, sliced from the curve's
    flat arclength table."""
    tab = curve._arclength
    rows = [slice(i, j) for i, j in zip(tab.first[:-1], tab.first[1:])]
    return [tab.p[r] for r in rows], [tab.s[r] for r in rows]


def _closed_form_arclength(arc, t):
    """r (t - t0) on a circular arc, |p1 - p0| t on a segment, times the
    scale of a moved copy."""
    scale = getattr(arc, "scale", 1.0)
    base = getattr(arc, "base", arc)
    if isinstance(base, CircleArc):
        return scale * base.radius * (t - base.t0)
    return scale * np.hypot(*(base.p1 - base.p0)) * t


@pytest.mark.parametrize("name", ["circle", "stadium", "moved_polygon"])
def test_constant_speed_arcs_hold_two_node_tables(curves, name):
    # arclength is linear in the parameter on these arcs, so interpolating
    # between the two ends is exact up to rounding
    curve = (from_spec(MOVED_POLYGON) if name == "moved_polygon"
             else curves(name))
    p_tabs, s_tabs = _arc_slices(curve)
    assert all(p.size == s.size == 2 for p, s in zip(p_tabs, s_tabs))
    arcs = curve.arcs
    lengths = [_closed_form_arclength(arc, arc.t1) for arc in arcs]
    start = np.concatenate([[0.0], np.cumsum(lengths)])
    L = start[-1]
    ulp = np.finfo(float).eps * L
    assert abs(curve.length - L) <= 4 * ulp
    rng = np.random.default_rng(5)
    arc_index = rng.integers(0, len(arcs), 2000)
    t0, t1 = (np.array([getattr(arc, e) for arc in arcs])[arc_index]
              for e in ("t0", "t1"))
    param = t0 + rng.uniform(0.0, 1.0, arc_index.size) * (t1 - t0)
    want = start[arc_index] + np.array(
        [_closed_form_arclength(arcs[a], t) for a, t in zip(arc_index, param)])
    assert np.max(np.abs(curve.param_to_s(arc_index, param) - want)) <= 4 * ulp
    aidx, back = curve.s_to_param(want)
    inner = (param - t0 > 1e-9) & (t1 - param > 1e-9)
    assert np.array_equal(aidx[inner], arc_index[inner])
    speed = np.array([arc.constant_speed for arc in arcs])[arc_index]
    assert np.max(np.abs(back - param)[inner] * speed[inner]) <= 4 * ulp


def test_square_corners(curves):
    curve = curves("square")
    corners = curve.corners
    assert len(corners) == 4
    assert all(c.convex for c in corners)
    for c in corners:
        assert np.isclose(abs(c.angle), 0.5 * np.pi, atol=1e-9)
        assert np.allclose(np.abs(c.position), [1.0, 1.0], atol=1e-9)


def test_c1_junctions_are_not_corners(curves):
    assert curves("stadium").corners == ()
    assert curves("rounded").corners == ()


def test_union_has_concave_corners(curves):
    corners = curves("union").corners
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
    big = transformed(curve, scale=2.0)
    assert np.isclose(big.length, 2.0 * curve.length, rtol=1e-9)
    g = curve.geometry_at_s([0.0])
    gb = big.geometry_at_s([0.0])
    assert np.allclose(gb.position, 2.0 * g.position, atol=1e-9)
    assert np.allclose(gb.curvature, 0.5 * g.curvature, atol=1e-9)


def test_transformed_rotation_preserves_length(curves):
    curve = curves("ellipse")
    rot = transformed(curve, rotation=0.7)
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


def test_sites_built_once_per_curve(curves):
    curve = curves("stadium")
    assert curve.sites is curve.sites


def _all_pairs_self_intersects(poly):
    """Reference: proper-crossing scan over all non-adjacent segment pairs."""
    n = poly.shape[0]
    a = poly
    b = np.roll(poly, -1, axis=0)
    i, j = np.triu_indices(n, k=2)
    keep = ~((i == 0) & (j == n - 1))
    i, j = i[keep], j[keep]

    def orient(p, q, r):
        return ((q[:, 0] - p[:, 0]) * (r[:, 1] - p[:, 1])
                - (q[:, 1] - p[:, 1]) * (r[:, 0] - p[:, 0]))

    p1, p2 = a[i], b[i]
    p3, p4 = a[j], b[j]
    o1 = orient(p1, p2, p3)
    o2 = orient(p1, p2, p4)
    o3 = orient(p3, p4, p1)
    o4 = orient(p3, p4, p2)
    return bool(np.any((o1 * o2 < 0) & (o3 * o4 < 0)))


def _rotated(poly, angle, shift=(0.0, 0.0)):
    c, s = np.cos(angle), np.sin(angle)
    return poly @ np.array([[c, s], [-s, c]]) + np.asarray(shift)


def test_self_intersection_sweep_matches_all_pairs_on_shapes(curves):
    polys = [curves(name).winding_polygon(512) for name in SHAPES]
    polys.append(from_spec(POLYGON).winding_polygon(512))
    for poly in polys:
        for angle, shift in ((0.0, (0.0, 0.0)), (0.0, (3.0, -2.0)),
                             (0.3, (0.0, 0.0)), (np.pi / 2, (0.5, 0.25)),
                             (2.5, (-7.0, 11.0))):
            moved = _rotated(poly, angle, shift)
            assert _polyline_self_intersects(moved) == \
                _all_pairs_self_intersects(moved)


def test_self_intersection_sweep_finds_single_crossings(curves):
    # swapping two neighbouring vertices of a convex polygon makes exactly
    # one proper crossing; try it all around, so it comes early and late
    # in the sweep order
    poly = curves("circle").winding_polygon(256)
    for k in range(0, poly.shape[0] - 1, 5):
        twisted = poly.copy()
        twisted[[k, k + 1]] = twisted[[k + 1, k]]
        assert _all_pairs_self_intersects(twisted)
        assert _polyline_self_intersects(twisted)


def test_self_intersection_sweep_matches_all_pairs_on_random_polylines():
    rng = np.random.default_rng(20240607)
    verdicts = []
    for k in range(330):
        n = int(rng.integers(4, 48))
        if k % 2:
            # star-shaped about the origin: simple before rounding
            ang = np.sort(rng.uniform(0.0, 2.0 * np.pi, n))
            r = rng.uniform(0.3, 1.0, n)
            poly = np.stack([r * np.cos(ang), r * np.sin(ang)], axis=-1)
        else:
            poly = rng.uniform(-1.0, 1.0, (n, 2))
        if k % 3 == 0:
            # collinear, touching and repeated points
            poly = np.round(poly, 1)
        got = _polyline_self_intersects(poly)
        assert got == _all_pairs_self_intersects(poly)
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


def test_self_crossing_curve_is_rejected():
    # bow-tie whose two long edges cross at (2.4, 1.2), away from every
    # vertex; its signed area is positive, so only the crossing test fails
    v = [(0.0, 0.0), (4.0, 2.0), (4.0, 0.0), (0.0, 3.0)]
    arcs = [SegmentArc(v[i], v[(i + 1) % 4]) for i in range(4)]
    with pytest.raises(ConstructionError, match="self-intersects"):
        BoundaryCurve(arcs)


GROUPED = {
    "polygon": POLYGON,
    # rotation wraps every arc in a TransformedArc: the per-arc fallback
    "rotated_7gon": {"type": "rounded_polygon", "sides": 7, "side_length": 1.0,
                     "corner_radius": 0.1, "rotation": 0.4},
    "stadium": {"type": "stadium", "cap_radius": 1.0, "straight_length": 2.0},
    "square": {"type": "square", "side": 2.0},
    # one-arc polar shapes: a row's radius must not depend on the batch
    "superellipse": {"type": "superellipse", "a": 1.0, "b": 0.7, "p": 4.0},
    "fourier": {"type": "fourier", "a0": 1.0,
                "cos": [0.0, -0.003802, 0.002743, -4.7e-05, 0.001576],
                "sin": [0.0, 0.003613, -0.002547, -0.000525, 0.003003]},
}
_GEOM_FIELDS = ("arc_index", "param", "s", "position", "tangent", "normal",
                "curvature", "speed")


@pytest.mark.parametrize("name", sorted(GROUPED))
def test_arc_grouping_matches_row_at_a_time(name):
    curve = from_spec(GROUPED[name])
    rng = np.random.default_rng(5)
    n = 400
    arc_index = rng.integers(0, len(curve.arcs), n)
    t0 = np.array([arc.t0 for arc in curve.arcs])[arc_index]
    t1 = np.array([arc.t1 for arc in curve.arcs])[arc_index]
    param = t0 + rng.uniform(0.0, 1.0, n) * (t1 - t0)
    rows = [slice(i, i + 1) for i in range(n)]

    g = curve.geometry(arc_index, param)
    ones = [curve.geometry(arc_index[r], param[r]) for r in rows]
    for field in _GEOM_FIELDS:
        assert np.array_equal(getattr(g, field),
                              np.concatenate([getattr(o, field) for o in ones]))
    assert np.array_equal(
        curve.param_to_s(arc_index, param),
        np.concatenate([curve.param_to_s(arc_index[r], param[r])
                        for r in rows]))
    s = rng.uniform(-curve.length, 2.0 * curve.length, n)
    aidx, t = curve.s_to_param(s)
    ones = [curve.s_to_param(s[r]) for r in rows]
    assert np.array_equal(aidx, np.concatenate([o[0] for o in ones]))
    assert np.array_equal(t, np.concatenate([o[1] for o in ones]))
    evaluators = ("point", "velocity", "acceleration")
    batch = curve.arc_table.evaluate(arc_index, *evaluators)(param)
    for evaluator, got in zip(evaluators, batch):
        assert np.array_equal(got, np.concatenate(
            [getattr(curve.arcs[arc_index[i]], evaluator)(param[r])
             for i, r in enumerate(rows)]))
    assert np.array_equal(curve.curvature(arc_index, param), g.curvature)

    empty = curve.geometry(np.zeros(0, dtype=int), np.zeros(0))
    assert empty.s.size == 0 and empty.position.shape == (0, 2)
    assert curve.s_to_param(np.zeros(0))[1].size == 0


def _per_junction(curve, angle_tol=DEFAULT_ANGLE_TOL):
    """Reference: (corners, corner sum), one junction at a time.

    Corners as (junction, angle, convex, position, nu_minus, nu_plus);
    the corner sum from each junction's arc velocities.
    """
    arcs = curve.arcs
    n = len(arcs)
    corners = []
    pos = np.empty((n, 2))
    dnu = np.empty((n, 2))
    for j in range(n):
        cur, nxt = arcs[j], arcs[(j + 1) % n]
        nu_m = curve.geometry([j], [cur.t1]).normal[0]
        nu_p = curve.geometry([(j + 1) % n], [nxt.t0]).normal[0]
        cross = nu_m[0] * nu_p[1] - nu_m[1] * nu_p[0]
        dot = nu_m[0] * nu_p[0] + nu_m[1] * nu_p[1]
        ang = float(np.arctan2(cross, dot))
        pos[j] = cur.point(np.array([cur.t1]))[0]
        if abs(ang) > angle_tol:
            corners.append((j, ang, bool(cross > 0), pos[j], nu_m, nu_p))
        v0 = cur.velocity(np.array([cur.t1]))[0]
        v1 = nxt.velocity(np.array([nxt.t0]))[0]
        t0 = v0 / np.linalg.norm(v0)
        t1 = v1 / np.linalg.norm(v1)
        dnu[j] = np.array([t1[1], -t1[0]]) - np.array([t0[1], -t0[0]])
    return corners, float(np.sum(pos * (dnu @ ROT_CCW.T)))


@pytest.mark.parametrize("name", SHAPES + ("polygon", "rotated_7gon"))
def test_junction_table_matches_per_junction(curves, name):
    if name in GROUPED:
        curve = from_spec(GROUPED[name])
    else:
        curve = curves(name)
    ref_corners, ref_sum = _per_junction(curve)
    got = curve.corners
    assert len(got) == len(ref_corners)
    for c, (j, ang, convex, pos, nu_m, nu_p) in zip(got, ref_corners):
        assert (c.junction, c.angle, c.convex) == (j, ang, convex)
        assert np.array_equal(c.position, pos)
        assert np.array_equal(c.nu_minus, nu_m)
        assert np.array_equal(c.nu_plus, nu_p)
    if name in ("polygon", "rotated_7gon"):
        assert corner_sum(curve) == pytest.approx(ref_sum, rel=0, abs=1e-15)
    else:
        assert corner_sum(curve) == ref_sum


def test_corner_table_evaluates_the_curve_twice():
    curve = from_spec(POLYGON)
    calls = []
    geometry = curve.geometry
    curve.geometry = lambda *args: calls.append(1) or geometry(*args)
    curve.corners
    curve.corners
    corner_sum(curve)
    assert len(calls) == 2


# an irregular pentagon of segments, its chain started mid-edge: the
# straight junction at s = 0 is no corner, so s near 0 and L sees corners
# on both sides of the cyclic seam
PENTAGON = [(0.1, -0.6), (1.0, -0.2), (1.3, 0.9), (0.1, 1.4), (-1.1, 0.6),
            (-0.8, -1.0)]


@pytest.mark.parametrize("name", SHAPES + ("polygon", "moved_square",
                                           "pentagon"))
def test_corner_distance_is_the_nearest_corner(curves, name):
    if name == "polygon":
        curve = from_spec(POLYGON)
    elif name == "moved_square":
        curve = from_spec({"type": "square", "side": 2.0,
                           "center": [0.3, -0.2]})
    elif name == "pentagon":
        curve = BoundaryCurve([SegmentArc(PENTAGON[i], PENTAGON[(i + 1) % 6])
                               for i in range(6)])
    else:
        curve = curves(name)
    assert curve.corners is curve.corners
    L = curve.length
    corners = curve.corner_arclengths()
    rng = np.random.default_rng(11)
    s = np.concatenate([rng.uniform(-0.1 * L, 1.1 * L, 20000), corners,
                        np.nextafter(corners, -np.inf),
                        np.nextafter(corners, np.inf), [0.0, L]])
    got = curve.corner_distance(s)
    if not corners.size:
        assert np.all(got == np.inf)
        return
    want = np.min(cyclic_dist(s[:, None], corners[None, :], L), axis=1)
    assert np.array_equal(got, want)


def test_a_report_reads_arc_kinds_only_at_construction(monkeypatch):
    # the arc table stacks the arcs by kind once per curve; every later
    # evaluation and foot search reads the table, not the arcs
    curve = from_spec(POLYGON)
    reads = []
    kind = Arc.kind
    monkeypatch.setattr(Arc, "kind", property(
        lambda arc: reads.append(arc) or kind.fget(arc)))
    criterion_report(Domain(cut_table(curve, n=384)))
    diameter(curve)
    assert len(reads) < len(curve.arcs) == 192


def test_validation_evaluates_no_velocity_of_constant_speed_arcs(
        monkeypatch):
    # segments and circular arcs carry their speed in the arc table, so
    # validating the 96-gon's 192 of them polls none
    curve = from_spec(POLYGON)
    names = []
    evaluate = ArcTable.evaluate
    monkeypatch.setattr(ArcTable, "evaluate", lambda table, which, *n:
                        names.extend(n) or evaluate(table, which, *n))
    curve._validate()
    assert "point" in names and "velocity" not in names


class _CubicSegment(Arc):
    """p0 + t^3 (p1 - p0): a segment whose |Y'| vanishes at t = 0."""

    def __init__(self, p0, p1):
        self.p0 = np.asarray(p0, dtype=float)
        self.p1 = np.asarray(p1, dtype=float)

    def point(self, t):
        return self.p0 + np.asarray(t)[:, None] ** 3 * (self.p1 - self.p0)

    def velocity(self, t):
        return 3.0 * np.asarray(t)[:, None] ** 2 * (self.p1 - self.p0)

    def acceleration(self, t):
        return 6.0 * np.asarray(t)[:, None] * (self.p1 - self.p0)


@pytest.mark.parametrize("polled_first", [True, False])
def test_irregular_arc_named_first_polled_or_not(polled_first):
    # a polled arc (the cubic) and a table one (the 1e-13 segment) are
    # both irregular; the message names the first, whichever it is
    tiny = 1e-13
    if polled_first:
        arcs = [_CubicSegment((0, 0), (1, 0)), SegmentArc((1, 0), (0, 1)),
                SegmentArc((0, 1), (0, tiny)), SegmentArc((0, tiny), (0, 0))]
    else:
        arcs = [SegmentArc((0, 0), (tiny, 0)),
                _CubicSegment((tiny, 0), (1, 0)), SegmentArc((1, 0), (0, 1)),
                SegmentArc((0, 1), (0, 0))]
    with pytest.raises(ConstructionError, match="^arc 0 is not regular"):
        BoundaryCurve(arcs)


def _per_arc_reference(curve, m):
    """Reference: each quantity one arc at a time, as np.linspace and
    np.cumsum lay it out per arc.

    Returns (polled points, parameter and arclength tables, cumulative
    arc lengths, the _SITES sites' points, params and arc indices, winding
    polygon of m points).
    """
    arcs = curve.arcs
    poll = np.vstack([arc.point(np.linspace(arc.t0, arc.t1, 64,
                                            endpoint=False)) for arc in arcs])
    frac = np.array([np.sum(np.linalg.norm(np.diff(
        arc.point(np.linspace(arc.t0, arc.t1, 257)), axis=0), axis=1))
        for arc in arcs])
    frac = frac / frac.sum()
    p_tabs, s_tabs = [], []
    for arc, f in zip(arcs, frac):
        if arc.constant_speed is not None:
            # arclength is linear in the parameter: the two ends suffice
            p_tabs.append(np.array([arc.t0, arc.t1]))
            s_tabs.append(np.array([0.0, arc.constant_speed
                                    * (arc.t1 - arc.t0)]))
            continue
        k = max(32, int(np.ceil(65536 * f)))
        p = np.linspace(arc.t0, arc.t1, k + 1)
        mid = 0.5 * (p[:-1] + p[1:])
        sp = np.linalg.norm(arc.velocity(p), axis=1)
        sm = np.linalg.norm(arc.velocity(mid), axis=1)
        seg = (arc.t1 - arc.t0) / k / 6.0 * (sp[:-1] + 4.0 * sm + sp[1:])
        p_tabs.append(p)
        s_tabs.append(np.concatenate([[0.0], np.cumsum(seg)]))
    cum = np.concatenate([[0.0], np.cumsum([s[-1] for s in s_tabs])])
    sites = []
    for a, arc in enumerate(arcs):
        ma = max(8, int(round(_SITES * ((cum[a + 1] - cum[a]) / cum[-1]))))
        t = arc.t0 + (np.arange(ma) + 0.5) * ((arc.t1 - arc.t0) / ma)
        sites.append((arc.point(t), t, np.full(ma, a)))
    span = sum(arc.t1 - arc.t0 for arc in arcs)
    poly = []
    for arc in arcs:
        ma = max(8, int(round(m * (arc.t1 - arc.t0) / span)))
        poly.append(arc.point(arc.t0 + np.arange(ma)
                              * ((arc.t1 - arc.t0) / ma)))
    return (poll, p_tabs, s_tabs, cum,
            [np.concatenate(c) for c in zip(*sites)], np.vstack(poly))


MOVED_POLYGON = dict(POLYGON, center=[0.3, -0.2], rotation=0.4)
GON1000 = {"type": "rounded_polygon", "sides": 1000, "side_length": 0.2,
           "corner_radius": 0.05}
POLYGONS = {"polygon": POLYGON, "moved_polygon": MOVED_POLYGON,
            "gon1000": GON1000}


@pytest.mark.parametrize("name", SHAPES + tuple(POLYGONS))
def test_per_class_evaluation_matches_per_arc_reference(curves, name):
    # several arcs of one kind evaluate at once (Arc.stack); the moved
    # polygon's arcs are TransformedArcs over segments and circular arcs.
    # The ellipse's, superellipse's and Fourier shape's 65 537 table nodes
    # are written in runs of _BLOCK_NODES into the flat table; circular
    # arcs and segments hold their two ends
    curve = (from_spec(POLYGONS[name]) if name in POLYGONS
             else curves(name))
    m = 1000
    poll, p_tabs, s_tabs, cum, sites, poly = _per_arc_reference(curve, m)
    assert curve.bbox == (poll[:, 0].min(), poll[:, 0].max(),
                          poll[:, 1].min(), poll[:, 1].max())
    got_p, got_s = _arc_slices(curve)
    assert len(got_p) == len(got_s) == len(curve.arcs)
    for got, want in zip(got_p + got_s, p_tabs + s_tabs):
        assert np.array_equal(got, want)
    assert np.array_equal(curve._arclength.cum, cum)
    got = curve.sites
    for field, want in zip(("points", "params", "arc_index"), sites):
        assert np.array_equal(getattr(got, field), want)
    assert np.array_equal(curve.winding_polygon(m), poly)

    # every evaluator on random rows, against each arc on its own rows
    rng = np.random.default_rng(11)
    arc_index = rng.integers(0, len(curve.arcs), 2000)
    t0, t1 = (np.array([getattr(arc, e) for arc in curve.arcs])[arc_index]
              for e in ("t0", "t1"))
    param = t0 + rng.uniform(0.0, 1.0, arc_index.size) * (t1 - t0)
    evaluators = ("point", "velocity", "acceleration")
    batch = curve.arc_table.evaluate(arc_index, *evaluators)(param)
    for evaluator, got in zip(evaluators, batch):
        want = np.empty_like(got)
        for a in np.unique(arc_index):
            rows = arc_index == a
            want[rows] = getattr(curve.arcs[a], evaluator)(param[rows])
        assert np.array_equal(got, want)

    jt = curve.junctions
    arcs = curve.arcs
    for j, (cur, nxt) in enumerate(zip(arcs, arcs[1:] + arcs[:1])):
        assert np.array_equal(jt.position[j], cur.point(cur.t1)[0])
        for nu, arc, t in ((jt.nu_minus, cur, cur.t1),
                           (jt.nu_plus, nxt, nxt.t0)):
            v = arc.velocity(t)[0]
            tangent = v / np.linalg.norm(v[None, :], axis=1)
            assert np.array_equal(nu[j], [tangent[1], -tangent[0]])


@pytest.mark.parametrize("name", SHAPES + ("moved_polygon", "gon1000"))
def test_arclength_lookup_is_np_interp_on_each_arc(curves, name):
    # param_to_s and s_to_param read one flat table; each row must be
    # np.interp on its own arc's slice, at the nodes and beyond the ends too
    curve = (from_spec(POLYGONS[name]) if name in POLYGONS
             else curves(name))
    p_tabs, s_tabs = _arc_slices(curve)
    cum = curve._arclength.cum
    L = curve.length
    n = len(curve.arcs)
    t0, t1 = curve.arc_table.t0, curve.arc_table.t1
    rng = np.random.default_rng(21)
    rows = rng.integers(0, n, 3000)
    ends = np.tile(np.arange(n), 4)
    arc_index = np.concatenate([rows, ends])
    param = np.concatenate([
        t0[rows] + rng.uniform(0.0, 1.0, rows.size) * (t1 - t0)[rows],
        t0, t1, np.nextafter(t0, -np.inf), np.nextafter(t1, np.inf)])
    want = np.array([np.interp(t, p_tabs[a], s_tabs[a]) + cum[a]
                     for a, t in zip(arc_index, param)])
    assert np.array_equal(curve.param_to_s(arc_index, param), want)

    s = np.concatenate([rng.uniform(0.0, L, 3000), cum, [-0.25 * L, -1e-9 * L,
                                                         1.25 * L, L * 1.5]])
    aidx, t = curve.s_to_param(s)
    s = np.mod(s, L)
    assert np.array_equal(aidx, np.clip(np.searchsorted(cum, s, side="right")
                                        - 1, 0, n - 1))
    want = np.array([np.interp(x - cum[a], s_tabs[a], p_tabs[a])
                     for a, x in zip(aidx, s)])
    assert np.array_equal(t, want)


@pytest.mark.parametrize("endpoint, offset",
                         [(True, 0.0), (False, 0.0), (False, 0.5)])
def test_arc_blocks_are_bounded_and_keep_short_arcs_whole(endpoint, offset):
    curve = from_spec(SPECS["union"])
    t0, t1 = curve.arc_table.t0, curve.arc_table.t1
    counts = np.array([3 * _BLOCK_NODES + 5, 40])
    blocks = list(curve._arc_blocks(counts, endpoint, offset))
    assert [t.size for _, t in blocks] == [_BLOCK_NODES] * 3 + [45]
    which = np.concatenate([w for w, _ in blocks])
    t = np.concatenate([t for _, t in blocks])
    for a, c in enumerate(counts):
        j = np.arange(c) + offset
        step = (t1[a] - t0[a]) / (c - 1 if endpoint else c)
        want = (np.linspace(t0[a], t1[a], c, endpoint=endpoint)
                if offset == 0.0 else t0[a] + j * step)
        assert np.array_equal(t[which == a], want)
    # short arcs: whole, as many as fit in a block
    blocks = list(curve._arc_blocks(np.array([_BLOCK_NODES // 2 + 1] * 2),
                                    endpoint, offset))
    assert [np.unique(w).tolist() for w, _ in blocks] == [[0], [1]]


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier", "union"])
def test_table_build_memory_is_bounded(name):
    # the tables hold 1 MB, and the build adds one block's temporaries;
    # a one-arc table built in one piece holds 5 MB
    curve = from_spec(SPECS[name])
    assert traced_peak_mb(lambda: curve._arclength) <= 2.5


def test_validation_memory_is_bounded_by_the_pair_budget():
    # the square's crossing test has 17 404 segment pairs
    assert traced_peak_mb(from_spec, SPECS["square"]) <= 1.5


@pytest.mark.parametrize("name", ["ellipse", "moved_polygon"])
def test_geometry_memory_is_bounded(name):
    # 100 000 rows: the nine output columns take 6.9 MB, and the
    # evaluation runs in row blocks on top of them
    curve = (from_spec(MOVED_POLYGON) if name == "moved_polygon"
             else from_spec(SPECS[name]))
    curve._arclength
    rng = np.random.default_rng(4)
    arc_index = rng.integers(0, len(curve.arcs), 100_000)
    t0, t1 = (np.array([getattr(arc, e) for arc in curve.arcs])[arc_index]
              for e in ("t0", "t1"))
    param = t0 + rng.uniform(0.0, 1.0, arc_index.size) * (t1 - t0)
    assert traced_peak_mb(curve.geometry, arc_index, param) <= 9.0
    # rows do not depend on their block
    g = curve.geometry(arc_index, param)
    for i in rng.integers(0, arc_index.size, 20):
        one = curve.geometry(arc_index[i:i + 1], param[i:i + 1])
        for field in ("s", "position", "tangent", "normal", "curvature",
                      "speed"):
            assert np.array_equal(getattr(one, field)[0],
                                  getattr(g, field)[i])
