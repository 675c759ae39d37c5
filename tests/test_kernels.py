import numpy as np

from cutloc import _kernels, from_spec
from cutloc.distfield import GridSpec
from cutloc.projector import CurveProjector

_BIG = 1e300


def _brute_gap(queries, sites, site_s, length, min_sep, corner_s):
    """Reference: the dense O(queries x sites) multiplicity-gap scan."""
    qx, qy = queries[:, 0], queries[:, 1]
    sx, sy = sites[:, 0], sites[:, 1]
    ss = np.asarray(site_s, dtype=float)
    dx = qx[:, None] - sx[None, :]
    dy = qy[:, None] - sy[None, :]
    d = np.sqrt(dx * dx + dy * dy)
    ii = np.argmin(d, axis=1)
    best = d[np.arange(qx.size), ii]
    locmin = (d <= np.roll(d, 1, axis=1)) & (d <= np.roll(d, -1, axis=1))
    ds = np.abs(ss[None, :] - ss[ii][:, None])
    ds = np.minimum(ds, length - ds)
    ok = ds >= min_sep
    if corner_s.size:
        lo = np.minimum(ss[None, :], ss[ii][:, None])
        hi = np.maximum(ss[None, :], ss[ii][:, None])
        direct = (hi - lo) <= 0.5 * length
        for c in corner_s:
            inside_int = (lo <= c) & (c <= hi)
            ok |= np.where(direct, inside_int, ~inside_int)
    second = np.min(np.where(locmin & ok, d, _BIG), axis=1)
    second = np.minimum(second, np.max(d, axis=1))
    return ii, best, second - best


def _winding(queries, polygon):
    """Reference: the dense winding number of a closed polyline."""
    px, py = polygon[:, 0], polygon[:, 1]
    x1, y1 = np.roll(px, -1), np.roll(py, -1)
    x, y = queries[:, 0][:, None], queries[:, 1][:, None]
    cross = (x1 - px)[None, :] * (y - py[None, :]) - (x - px[None, :]) * (y1 - py)[None, :]
    up = (py[None, :] <= y) & (y < y1[None, :]) & (cross > 0)
    dn = (y1[None, :] <= y) & (y < py[None, :]) & (cross < 0)
    return up.sum(axis=1) - dn.sum(axis=1)


def _assert_gap_matches(queries, sites, site_s, length, min_sep, threshold,
                        corner_s):
    idx, dist, flag = _kernels.nearest_site_gap(
        queries, sites, site_s, length, min_sep, threshold, corner_s)
    ref_idx, ref_dist, ref_gap = _brute_gap(queries, sites, site_s, length,
                                            min_sep, corner_s)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)
    assert np.array_equal(flag, ref_gap <= threshold)
    return flag


def _ring_sites(m=4097, r=1.0):
    t = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    sites = np.stack([r * np.cos(t), r * np.sin(t)], axis=1)
    s = r * t
    return sites, s, 2 * np.pi * r


def test_nearest_site_exact_values():
    sites = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    idx, d = _kernels.nearest_site(np.array([[1.2, 0.0], [-0.5, 0.0]]), sites)
    assert list(idx) == [1, 0]
    assert np.allclose(d, [0.2, 0.5], atol=1e-15)


def test_gap_flag_matches_brute_scan_on_ring():
    # 4097 sites: the last block is short and wraps to block 0's sites
    rng = np.random.default_rng(11)
    sites, s, length = _ring_sites()
    queries = rng.uniform(-0.8, 0.8, size=(300, 2))
    for threshold in (0.0, 0.05, 0.3):
        flag = _assert_gap_matches(queries, sites, s, length, 0.2, threshold,
                                   np.empty(0))
    assert 0 < np.count_nonzero(flag) < flag.size


def test_gap_flag_matches_brute_scan_across_corners(curves):
    # grid centres on the square tie between sites (argmin tie-break) and
    # the union's concave corners take the corner branch
    for name in ("square", "union"):
        curve = curves(name)
        proj = CurveProjector(curve, m=4096)
        grid = GridSpec.from_curve(curve, nx=64)
        corners = curve.corner_arclengths()
        assert corners.size
        args = (grid.centers(), proj.sites.points, proj.sites.s, proj.length,
                10.0 * grid.h, 2.0 * grid.h)
        flag = _assert_gap_matches(*args, corners)
        plain = _assert_gap_matches(*args, np.empty(0))
        assert np.count_nonzero(flag & ~plain) > 0


def test_gap_flag_flat_profile_at_circle_centre(curves):
    # at the centre every site is equally far: every block is kept and only
    # the largest-distance cap can set the flag
    curve = curves("circle")
    proj = CurveProjector(curve, m=4096)
    queries = np.array([[0.0, 0.0], [1e-3, -2e-3], [0.3, 0.1]])
    flag = _assert_gap_matches(queries, proj.sites.points, proj.sites.s,
                               proj.length, 0.5, 1e-2, np.empty(0))
    assert list(flag) == [True, True, False]


def test_inside_polygon_matches_winding_number(curves):
    gon96 = from_spec({"type": "rounded_polygon", "sides": 96,
                       "side_length": 0.1, "corner_radius": 0.01})
    for curve in (gon96, curves("union")):
        poly = curve.winding_polygon(1024)
        x0, x1, y0, y1 = curve.bbox
        xs = np.linspace(x0 - 0.1, x1 + 0.1, 17)
        gx, gy = np.meshgrid(xs, np.unique(poly[:, 1]))
        # rows exactly at vertex heights, plus the vertices themselves
        queries = np.vstack([np.column_stack([gx.ravel(), gy.ravel()]), poly])
        inside = _kernels.inside_polygon(queries, poly)
        assert np.array_equal(inside, _winding(queries, poly) != 0)
        assert 0 < np.count_nonzero(inside) < inside.size

