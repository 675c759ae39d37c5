from types import SimpleNamespace

import numpy as np
import pytest

from cutloc import (ConfigurationError, cut_table, cut_value, focal_check,
                    from_spec, max_lambda_kappa, phi)
from cutloc.cutlocus import _ball_cut
from cutloc.boundary import cyclic_dist
from grid_oracle import grid_cut_values


def test_phi_closed_form():
    assert phi(1.0, 1.0) == pytest.approx(0.5, abs=1e-15)
    assert phi(0.5, 2.0) == pytest.approx(0.25, abs=1e-15)
    assert phi(1.0, 0.0) == pytest.approx(1.0, abs=1e-15)
    # concave side: 1 - t*kappa > 1 grows the integrand
    assert phi(1.0, -1.0) == pytest.approx(1.5, abs=1e-15)


def test_circle_cut_values(tables):
    table = tables("circle")
    assert np.allclose(table.lam, 1.0, atol=2e-6)
    assert np.allclose(table.phi, 0.5, atol=2e-6)
    assert np.allclose(table.lambda_kappa, 1.0, atol=2e-6)


def test_ellipse_vertices(curves):
    curve = curves("ellipse")
    lam_major = cut_value(curve, 0.0)
    assert lam_major == pytest.approx(0.5, abs=1e-5)
    # minor vertex: normal ray ends at the origin on the cut segment
    s = np.linspace(0.0, curve.length, 4097)
    g = curve.geometry_at_s(s)
    s_minor = s[np.argmax(g.position[:, 1])]
    lam_minor = cut_value(curve, float(s_minor))
    assert lam_minor == pytest.approx(1.0, abs=1e-4)


def test_whole_boundary_cut_value_oracles(tables):
    # closed forms at every sample: the ellipse's normal ray ends on the
    # major axis, the stadium's on its axis segment (or the cap's centre),
    # and the union's at its disk's centre, past which nothing competes
    ellipse = tables("ellipse")
    a, b = 2.0, 1.0
    want = (b / a) * np.sqrt(a * a * np.sin(ellipse.param) ** 2
                             + b * b * np.cos(ellipse.param) ** 2)
    assert (np.max(np.abs(ellipse.lam - want))
            <= 1e-9 * ellipse.curve.extent)
    stadium = tables("stadium")
    assert not stadium.corner_zone.any()
    assert np.max(np.abs(stadium.lam - 1.0)) <= 1e-9 * stadium.curve.extent
    union = tables("union")
    smooth = union.smooth()
    assert np.max(np.abs(union.lam[smooth] - 2.0)) <= 1e-9 * union.curve.extent


def test_cut_value_matches_table_row(curves, tables):
    for name in ("ellipse", "square", "union"):
        curve = curves(name)
        table = tables(name)
        for i in np.flatnonzero(table.smooth())[::256]:
            lam = cut_value(curve, table.point(i))
            assert lam == pytest.approx(table.lam[i], rel=0, abs=1e-12)


def _ball_cut_fresh_arrays(sites, pos, nrm, s, accept, length):
    """Reference: the shrinking-ball pass with fresh temporaries per chunk."""
    sx, sy = sites.points[:, 0], sites.points[:, 1]
    best = np.empty(s.size)
    arg = np.empty(s.size, dtype=int)
    chunk = max(1, 131_072 // sites.s.size)
    for a in range(0, s.size, chunk):
        b = min(s.size, a + chunk)
        dx = pos[a:b, 0, None] - sx
        dy = pos[a:b, 1, None] - sy
        dot = dx * nrm[a:b, 0, None] + dy * nrm[a:b, 1, None]
        compete = (dot > 0) & (cyclic_dist(s[a:b, None], sites.s, length)
                               > accept)
        depth = np.full(dot.shape, np.inf)
        np.divide(dx * dx + dy * dy, 2.0 * dot, out=depth, where=compete)
        arg[a:b] = np.argmin(depth, axis=1)
        best[a:b] = depth[np.arange(b - a), arg[a:b]]
    return best, arg


# 96 sides: at least 8 sites per arc make the site spacing uneven
POLYGON = {"type": "rounded_polygon", "sides": 96, "side_length": 0.2,
           "corner_radius": 0.05}


def _wrapping_samples(curve, sites):
    """Samples whose window band wraps past s = 0 or s = L, s = L included."""
    reach = 3.0 * sites.spacing + 4.0 * sites.spacing
    offsets = np.array([0.0, 1e-12, 0.3, 1.0, 2.0, 3.0]) * reach
    s = np.concatenate([offsets, curve.length - offsets[1:]])
    g = curve.geometry_at_s(s)
    last = len(curve.arcs) - 1
    end = curve.geometry([last], [curve.arcs[last].t1])
    assert end.s[0] == curve.length
    return (np.vstack([g.position, end.position]),
            np.vstack([g.normal, end.normal]), np.concatenate([g.s, end.s]))


@pytest.mark.parametrize("name", ["ellipse", "square", "union", "polygon"])
def test_ball_cut_reuses_work_arrays_exactly(curves, name):
    curve = from_spec(POLYGON) if name == "polygon" else curves(name)
    sites = curve.sites
    accept = 3.0 * sites.spacing
    # 1, a partial chunk and several chunks with a short last one; the
    # reference cuts other chunks, so the rows do not depend on the cut
    cases = []
    for n in (1, 5, 20, 1000):
        g = curve.resample_struct(n)
        cases.append((g.position, g.normal, g.s))
    cases.append(_wrapping_samples(curve, sites))
    for pos, nrm, s in cases:
        # a window of a quarter turn widens every band to about m/2 columns
        for window in (accept, 0.25 * curve.length):
            args = (sites, pos, nrm, s, window, curve.length)
            got, want = _ball_cut(*args), _ball_cut_fresh_arrays(*args)
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])


def test_ball_cut_negative_zero_dot_does_not_compete():
    # the sample's normal (-1, -0.0) and the site straight below it give
    # <y-z, nu> = (-0.0) + (-0.0) = -0.0, as on the square's left side; the
    # other site sits on the sample, inside the window
    pos, nrm = np.array([[0.0, 0.0]]), np.array([[-1.0, -0.0]])
    sites = SimpleNamespace(points=np.array([[0.0, 0.0], [0.0, -1.0]]),
                            s=np.array([0.0, 1.0]), spacing=0.01)
    d = pos[0] - sites.points[1]
    dot = d[0] * nrm[0, 0] + d[1] * nrm[0, 1]
    assert dot == 0.0 and np.signbit(dot)
    best, _ = _ball_cut(sites, pos, nrm, np.array([0.0]), 0.1, 4.0)
    assert best[0] == np.inf


def test_ellipse_phi_range(tables):
    table = tables("ellipse")
    assert np.min(table.phi) == pytest.approx(0.25, abs=1e-3)
    assert np.max(table.phi) == pytest.approx(0.875, abs=1e-3)


def _corner_distance(table, curve):
    s_corners = curve.corner_arclengths()
    d = np.abs(table.s[:, None] - s_corners[None, :]) % curve.length
    d = np.minimum(d, curve.length - d)
    return np.min(d, axis=1)


def test_square_cut_profile(tables, curves):
    curve = curves("square")
    table = tables("square")
    keep = _corner_distance(table, curve) > 5.0 * table.accept
    # lambda = distance to the nearest diagonal = 1 - |coordinate along side|
    along = np.where(np.abs(table.position[:, 0]) < 1.0 - 1e-9,
                     np.abs(table.position[:, 0]),
                     np.abs(table.position[:, 1]))
    expect = 1.0 - along
    assert np.max(np.abs(table.lam[keep] - expect[keep])) <= 1e-3
    assert np.allclose(table.phi[keep], table.lam[keep], atol=1e-12)


def test_square_corner_zone(curves):
    # the uniform resampler shifts nodes off corners, so place samples
    # exactly at the four corner arclengths to exercise the zone flag
    curve = curves("square")
    geom = curve.geometry_at_s(curve.corner_arclengths())
    table = cut_table(curve, samples=geom)
    assert np.all(table.corner_zone)
    assert np.all(table.lam == 0.0)
    assert np.all(table.phi == 0.0)


def test_cut_value_follows_corner_zone_rule(curves):
    # one cut_table row: 0 inside the 10 tol corner zone, the table's value
    # everywhere else
    square = curves("square")
    for s in square.corner_arclengths():
        assert cut_value(square, float(s)) == 0.0
    for name in ("square", "union"):
        curve = curves(name)
        tol = 1e-6 * curve.extent
        corner_s = curve.corner_arclengths()
        near = (corner_s[:, None] + tol * np.array([-20, -9, -2, 0, 3, 9, 20])
                ).ravel()
        s = np.concatenate([near, np.linspace(0.0, curve.length, 24,
                                              endpoint=False)])
        table = cut_table(curve, samples=curve.geometry_at_s(s))
        assert table.corner_zone.any() and not table.corner_zone.all()
        for i in range(len(table)):
            lam = cut_value(curve, table.point(i), tol=table.tol)
            assert lam == table.lam[i]


def test_tolerance_above_every_cut_value_is_rejected():
    # tol = 1e-6 * extent = 200 on a smooth curve whose cut values are at
    # most b = 1: no corner is to blame, the tolerance is
    curve = from_spec({"type": "ellipse", "a": 1e8, "b": 1.0})
    with pytest.raises(ConfigurationError, match="tolerance tol=200"):
        cut_table(curve, n=256)


def test_stadium_cut_values(tables):
    table = tables("stadium")
    smooth = table.smooth()
    assert np.allclose(table.lam[smooth], 1.0, atol=2e-4)
    caps = smooth & (table.kappa > 0.5)
    flats = smooth & (table.kappa < 0.5)
    assert np.allclose(table.phi[caps], 0.5, atol=2e-4)
    assert np.allclose(table.phi[flats], 1.0, atol=2e-4)


def test_union_smooth_part(tables, curves):
    curve = curves("union")
    table = tables("union")
    keep = table.smooth() & (_corner_distance(table, curve)
                             > 5.0 * table.accept)
    assert np.allclose(table.lam[keep], 2.0, atol=1e-3)
    assert np.allclose(table.kappa[keep], 0.5, atol=1e-9)
    assert np.allclose(table.phi[keep], 1.0, atol=1e-3)


def test_lambda_kappa_bound(tables):
    for name in ("circle", "ellipse", "square", "stadium", "union",
                 "superellipse", "rounded", "fourier"):
        assert max_lambda_kappa(tables(name)) <= 1.0 + 1e-6


def test_focal_identity_smooth(domains):
    # at the refined curvature maximum nothing beats y0 before the focal
    # cap 1/H_max, so lambda(y0) is the cap itself; on the circle every
    # site ties with y0 at the centre, up to rounding
    for name, bound in (("circle", 1e-10), ("ellipse", 1e-12),
                        ("superellipse", 1e-12), ("fourier", 1e-12)):
        assert focal_check(domains(name)) <= bound


def test_field_projector_cut_agreement(curves, fields):
    curve = curves("ellipse")
    field = fields("ellipse", 1 / 128)
    exact = cut_table(curve, n=128)
    approx = grid_cut_values(exact, field)
    err = np.abs(exact.lam - approx)
    assert np.max(err) <= 5 * field.grid.h
