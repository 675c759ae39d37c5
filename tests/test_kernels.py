import functools

import numpy as np

from conftest import traced_peak_mb
from cutloc import _kernels, from_spec
from cutloc.cutlocus import _ball_cut
from cutloc.distfield import GridSpec
from cutloc.projector import CurveProjector

_REFERENCE_ROWS = 256


def _row_chunked(reference):
    """Run a dense per-query reference over chunks of _REFERENCE_ROWS queries.

    Every query row of a reference is independent of the others.
    Unchunked, a 64x64 grid against 4096 sites, or 18 000 points against a
    1024-vertex polygon, grows the test process past a gigabyte, a peak
    that every child it forks later inherits in its ru_maxrss.
    """
    @functools.wraps(reference)
    def chunked(queries, *args):
        parts = [reference(queries[a:a + _REFERENCE_ROWS], *args)
                 for a in range(0, len(queries), _REFERENCE_ROWS)]
        if isinstance(parts[0], tuple):
            return tuple(np.concatenate(p) for p in zip(*parts))
        return np.concatenate(parts)
    return chunked


@_row_chunked
def _dense_argmin(queries, sites):
    """Reference: the dense squared-distance argmin over every site, its
    distance, and the number of sites at that distance."""
    dx = queries[:, 0][:, None] - sites[:, 0][None, :]
    dy = queries[:, 1][:, None] - sites[:, 1][None, :]
    d2 = dx * dx + dy * dy
    ii = np.argmin(d2, axis=1)
    best = d2[np.arange(ii.size), ii]
    return ii, np.sqrt(best), np.count_nonzero(d2 == best[:, None], axis=1)


@_row_chunked
def _winding(queries, polygon):
    """Reference: the dense winding number of a closed polyline."""
    px, py = polygon[:, 0], polygon[:, 1]
    x1, y1 = np.roll(px, -1), np.roll(py, -1)
    x, y = queries[:, 0][:, None], queries[:, 1][:, None]
    cross = (x1 - px)[None, :] * (y - py[None, :]) - (x - px[None, :]) * (y1 - py)[None, :]
    up = (py[None, :] <= y) & (y < y1[None, :]) & (cross > 0)
    dn = (y1[None, :] <= y) & (y < py[None, :]) & (cross < 0)
    return up.sum(axis=1) - dn.sum(axis=1)


def _assert_matches_dense(queries, sites):
    """Assert the kernel's result equals the reference; (idx, ties)."""
    idx, dist = _kernels.nearest_site(queries, sites)
    ref_idx, ref_dist, ties = _dense_argmin(queries, sites)
    assert np.array_equal(idx, ref_idx)
    assert np.array_equal(dist, ref_dist)
    return idx, ties


def _ring_sites(m=4097, r=1.0):
    t = np.linspace(0.0, 2 * np.pi, m, endpoint=False)
    return np.stack([r * np.cos(t), r * np.sin(t)], axis=1)


def test_nearest_site_exact_values():
    sites = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    idx, d = _kernels.nearest_site(np.array([[1.2, 0.0], [-0.5, 0.0]]), sites)
    assert list(idx) == [1, 0]
    assert np.allclose(d, [0.2, 0.5], atol=1e-15)


def test_nearest_site_matches_dense_argmin_on_ring():
    # 4097 sites: the last block is short and padded with the last site
    rng = np.random.default_rng(11)
    sites = _ring_sites()
    queries = np.vstack([rng.uniform(-0.8, 0.8, size=(300, 2)),
                         1.2 * sites[-3:], 0.9 * sites[:3]])
    idx, _ = _assert_matches_dense(queries, sites)
    assert 4096 in idx


def test_nearest_site_matches_dense_argmin_at_grid_ties(curves):
    # grid centres on the square's diagonals sit at equal distance from
    # two sites (ties go to the lowest index); the union's sites meet at
    # concave corners
    for name in ("square", "union"):
        proj = CurveProjector(curves(name))
        queries = GridSpec.from_curve(curves(name), nx=64).centers()
        _, ties = _assert_matches_dense(queries, proj.sites.points)
        if name == "square":
            assert np.any(ties > 1)


def test_nearest_site_matches_dense_argmin_at_circle_centre(curves):
    # at the centre every site is equally far: no block can be pruned
    proj = CurveProjector(curves("circle"))
    queries = np.array([[0.0, 0.0], [1e-3, -2e-3], [0.3, 0.1]])
    _assert_matches_dense(queries, proj.sites.points)


def _grid_args(curve, nx):
    proj = CurveProjector(curve)
    grid = GridSpec.from_curve(curve, nx=nx)
    return grid.centers(), proj.sites.points


def test_nearest_site_does_not_depend_on_the_pair_budget(curves, monkeypatch):
    # budget 1: every pruning strip and every scan run holds one query
    for name in ("square", "ellipse"):
        args = _grid_args(curves(name), 48)
        default = _kernels.nearest_site(*args)
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, "_PAIR_BUDGET", 1)
            single = _kernels.nearest_site(*args)
        for got, want in zip(single, default):
            assert np.array_equal(got, want)


def test_nearest_site_memory_is_bounded_by_the_pair_budget(curves):
    # near the circle's centre every block is kept, and a run sized for
    # that worst case everywhere would hold over 1M distances per temporary
    args = _grid_args(curves("circle"), 96)
    assert traced_peak_mb(_kernels.nearest_site, *args) <= 12.0


def test_ball_pass_memory_is_bounded_by_the_pair_budget(curves):
    curve = curves("stadium")
    proj = CurveProjector(curve)
    g = curve.resample_struct(2048)
    peak = traced_peak_mb(_ball_cut, proj.sites, g.position, g.normal, g.s,
                          3.0 * proj.sites.spacing, curve.length)
    assert peak <= 4.0


def test_projection_memory_is_bounded_by_the_pair_budget(curves):
    proj = CurveProjector(curves("ellipse"))
    points = np.random.default_rng(3).uniform(-2.5, 2.5, size=(10_000, 2))
    assert traced_peak_mb(proj.project, points) <= 20.0


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

