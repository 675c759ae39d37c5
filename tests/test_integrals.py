import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from conftest import grid_with_h
from cutloc import (Domain, FormulaOutOfScopeError, InapplicableError,
                    ScalarField, area, constant, corner_sum, cov_integral,
                    cov_residual, cut_table, from_spec, inside_mask,
                    mean_value_residual, minkowski_residual,
                    minkowski_residual_corners)
from cutloc.quadrature import gauss_legendre, simpson_doubling_vec


def test_circle_perimeter_area(curves):
    curve = curves("circle")
    assert curve.length == pytest.approx(2 * np.pi, rel=1e-12)
    assert area(curve) == pytest.approx(np.pi, rel=1e-12)


def test_square_perimeter_area(curves):
    curve = curves("square")
    assert curve.length == pytest.approx(8.0, rel=1e-12)
    assert area(curve) == pytest.approx(4.0, rel=1e-12)


def test_ellipse_perimeter_oracle(curves):
    scipy_special = pytest.importorskip("scipy.special")
    # complete elliptic integral: P = 4 a E(e^2)
    e2 = 1.0 - 0.25
    expect = 4 * 2.0 * scipy_special.ellipe(e2)
    assert curves("ellipse").length == pytest.approx(expect, rel=1e-10)
    assert area(curves("ellipse")) == pytest.approx(2 * np.pi, rel=1e-10)


def test_minkowski_smooth(curves):
    for name in ("circle", "ellipse", "fourier"):
        r = minkowski_residual(curves(name))
        assert r.rel_residual <= 1e-6


def test_minkowski_rejects_corners(curves):
    with pytest.raises(InapplicableError):
        minkowski_residual(curves("square"))


def test_minkowski_cornered_square(curves):
    curve = curves("square")
    r = minkowski_residual_corners(curve)
    assert corner_sum(curve) == pytest.approx(-8.0, abs=1e-10)
    assert r.lhs == pytest.approx(8.0, abs=1e-10)
    assert r.rhs == pytest.approx(8.0, abs=1e-10)
    assert r.abs_residual <= 1e-10


def test_corner_terms_vanish_c1(curves):
    assert abs(corner_sum(curves("stadium"))) <= 1e-10
    assert abs(corner_sum(curves("rounded"))) <= 1e-10
    assert minkowski_residual_corners(curves("stadium")).rel_residual <= 1e-8
    assert minkowski_residual_corners(curves("rounded")).rel_residual <= 1e-8


def test_concave_corner_out_of_scope(curves):
    with pytest.raises(FormulaOutOfScopeError):
        minkowski_residual_corners(curves("union"))


def test_cov_integral_disk(domains):
    dom = domains("circle")
    assert cov_integral(dom, constant(1.0)) == pytest.approx(np.pi, abs=1e-6)
    abs2 = ScalarField(((2, 0, 1.0), (0, 2, 1.0)))
    assert cov_integral(dom, abs2) == pytest.approx(np.pi / 2, abs=1e-6)


def test_cov_integral_ellipse(domains):
    got = cov_integral(domains("ellipse"), constant(1.0))
    assert got == pytest.approx(2 * np.pi, abs=5e-4)


def test_cov_integral_square(domains):
    got = cov_integral(domains("square"), constant(1.0))
    assert got == pytest.approx(4.0, abs=5e-4)


def test_cov_residual_grid(curves, domains):
    r = cov_residual(domains("circle"), constant(1.0),
                     grid_with_h(curves("circle"), 1 / 64))
    assert r.rel_residual <= 2e-2


def test_mean_value_identity(domains):
    for name in ("circle", "ellipse", "superellipse", "fourier"):
        r = mean_value_residual(domains(name))
        assert r.rel_residual <= 1e-5


def test_mean_value_c1_jumpy_phi(domains):
    # kappa jumps at the stadium's C1 junctions, so phi jumps there; the
    # midpoint rule runs on each arc, where phi is smooth, so the average
    # keeps the smooth shapes' accuracy
    r = mean_value_residual(domains("stadium"))
    assert r.rel_residual <= 1e-5


def test_midpoint_domain_holds_the_same_midpoint_table(curves):
    # verify's one table is the one a uniform domain builds second
    curve = curves("stadium")
    tol = 1e-6 * curve.extent
    one = Domain.at_midpoints(curve, 512, tol)
    two = Domain(cut_table(curve, n=512, tol=tol))
    assert one.table is one.midpoint_table
    assert np.array_equal(one.midpoint_weight, two.midpoint_weight)
    for field in ("s", "kappa", "lam", "phi"):
        assert np.array_equal(getattr(one.table, field),
                              getattr(two.midpoint_table, field))


def test_mean_value_rejects_concave(domains):
    with pytest.raises(InapplicableError):
        mean_value_residual(domains("union"))


def test_divergence_area_consistency(curves):
    # the quadrature area against the inside-cell count's
    curve = curves("ellipse")
    grid = grid_with_h(curve, 1 / 64)
    cells = int(np.sum(inside_mask(curve, grid, grid.centers())))
    assert abs(area(curve) - cells * grid.h ** 2) <= 3 * grid.h * curve.length


def _per_arc_integral(curve, rowfun, tol):
    """The doubling-Simpson sum with each arc's rows evaluated through
    that arc alone, one arc at a time."""
    arcs = curve.arcs

    def f(tmat):
        return np.stack([rowfun(arc, t) for arc, t in zip(arcs, tmat)])

    a = np.array([arc.t0 for arc in arcs])
    b = np.array([arc.t1 for arc in arcs])
    return float(np.sum(simpson_doubling_vec(f, a, b, tol=tol)))


def _support(arc, t):
    p, v = arc.point(t), arc.velocity(t)
    return p[:, 0] * v[:, 1] - p[:, 1] * v[:, 0]


def _curvature_support(arc, t):
    v, acc = arc.velocity(t), arc.acceleration(t)
    speed2 = v[:, 0] ** 2 + v[:, 1] ** 2
    kappa_speed = (v[:, 0] * acc[:, 1] - v[:, 1] * acc[:, 0]) / speed2
    return kappa_speed * _support(arc, t) / np.sqrt(speed2)


@pytest.mark.parametrize("name", ["circle", "ellipse", "fourier", "square",
                                  "stadium", "union", "polygon"])
def test_arc_quadrature_matches_one_arc_at_a_time(curves, name):
    # every doubling level evaluates all arcs through the curve's ArcTable;
    # a row's values are its arc's own, so each sum keeps its bits.  The
    # per-arc |Y'| quadrature is a reference for the arclength table.
    curve = (from_spec({"type": "rounded_polygon", "sides": 96,
                        "side_length": 0.2, "corner_radius": 0.05})
             if name == "polygon" else curves(name))
    tol = 1e-10 * max(1.0, curve.extent)
    speed = _per_arc_integral(
        curve, lambda arc, t: np.linalg.norm(arc.velocity(t), axis=-1), tol)
    assert curve.length == pytest.approx(speed, rel=1e-13)
    assert area(curve) == 0.5 * _per_arc_integral(
        curve, _support, 1e-10 * max(1.0, curve.extent) ** 2)
    corners = curve.corners
    if any(not c.convex for c in corners):
        return  # the curvature identity is out of scope
    smooth = _per_arc_integral(curve, _curvature_support, tol)
    if corners:
        report = minkowski_residual_corners(curve)
        assert report.lhs == smooth - corner_sum(curve)
    else:
        report = minkowski_residual(curve)
        assert report.lhs == smooth
    assert report.rhs == curve.length


def _gauss_legendre_weights_decimal(m):
    """Weights of the m-point rule by Newton steps in 40-digit decimal
    arithmetic, rounded to floats."""
    weights = []
    with localcontext() as ctx:
        ctx.prec = 40
        for k in range(m):
            x = Decimal(-math.cos(math.pi * (k + 0.75) / (m + 0.5)))
            for step in range(8):
                p0, p1 = Decimal(1), x
                for j in range(2, m + 1):
                    p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
                dp = m * (x * p1 - p0) / (x * x - 1)
                if step < 7:
                    x -= p1 / dp
            weights.append(float(2 / ((1 - x * x) * dp * dp)))
    return np.array(weights)


def test_gauss_legendre_nodes_and_weights():
    # nodes within 2 ulp of numpy's leggauss; weights within 2 eps of the
    # 40-digit rule (leggauss's own weights are off by up to 3.6 eps)
    eps = np.finfo(float).eps
    for m in range(2, 17):
        x, w = gauss_legendre(m)
        u, _ = np.polynomial.legendre.leggauss(m)
        assert np.all(np.abs(x - u) <= 2 * np.spacing(np.abs(u)))
        exact = _gauss_legendre_weights_decimal(m)
        assert np.max(np.abs(w - exact)) <= 2 * eps
        assert not x.flags.writeable and not w.flags.writeable
