import dataclasses

import numpy as np
import pytest

from conftest import grid_with_h
from cutloc import (HypothesisViolationError, build_distance_field,
                    complementarity_max, constant, eikonal_max_deviation,
                    mk_verdict, residual_summary, vf_field, weak_form_check)
from cutloc.boundary import BoundaryCurve
from cutloc.mk import _median, export_mk_csv
from cutloc.projector import CurveProjector
from vf_reference import vf_at, vf_boundary


def _solve(domains, fields, name, h):
    return vf_field(domains(name), fields(name, h))


def _cell(sol, x, y):
    g = sol.grid
    ix = int((x - g.xmin) / g.h)
    iy = int((y - g.ymin) / g.h)
    return iy, ix


def test_vf_at_disk_closed_form(domains):
    dom = domains("circle")
    # v = |x| / 2 away from the center
    for x, expect in (((0.5, 0.0), 0.25), ((0.0, -0.8), 0.4),
                      ((0.3, 0.4), 0.25)):
        got = vf_at(dom, np.array(x))
        assert not got.singular
        assert got.value == pytest.approx(expect, abs=1e-9)


def test_vf_at_center_is_singular(domains):
    got = vf_at(domains("circle"), np.zeros(2))
    assert got.singular
    assert got.value == 0.0


def test_vf_boundary_is_gamma_phi(domains):
    dom = domains("circle")
    assert vf_boundary(dom, 0.0).value == pytest.approx(0.5, abs=1e-9)
    assert vf_boundary(dom, 0.0, f=constant(3.0)).value == pytest.approx(
        1.5, abs=1e-9)
    ell = domains("ellipse")
    assert vf_boundary(ell, 0.0).value == pytest.approx(0.25, abs=1e-6)


def test_vf_field_disk_oracle(domains, fields):
    sol = vf_field(domains("circle"), fields("circle", 1 / 64))
    grid = sol.grid
    xs, ys = np.meshgrid(grid.xs, grid.ys)
    rr = np.hypot(xs, ys)
    mask = sol.inside & ~sol.singular
    err = np.abs(sol.v - rr / 2)[mask]
    assert np.max(err) <= 3 * grid.h
    assert np.min(sol.v) >= 0.0


def test_vf_field_square_tau(domains, fields):
    # on the square v_f with gamma = 1 integrates 1 along straight rays: v = tau
    sol = vf_field(domains("square"), fields("square", 1 / 64))
    mask = sol.inside & ~sol.singular
    assert np.max(np.abs(sol.v - sol.tau)[mask]) <= 1e-6


def test_vf_field_evaluates_no_curve_geometry(domains, fields, monkeypatch):
    # the field holds each foot's arclength, curvature and normal; on a
    # warmed Domain (cut table, corner fans) vf_field reads them only
    from cutloc.boundary import BoundaryCurve
    rows = {"geometry": 0, "param_to_s": 0}

    def counted(method):
        evaluate = getattr(BoundaryCurve, method)

        def wrapper(self, arc_index, param):
            rows[method] += np.size(param)
            return evaluate(self, arc_index, param)
        return wrapper
    for name in ("ellipse", "square", "union", "fourier"):
        dom, field = domains(name), fields(name, 1 / 64)
        warm = vf_field(dom, field)
        with monkeypatch.context() as m:
            for method in rows:
                m.setattr(BoundaryCurve, method, counted(method))
            sol = vf_field(dom, field)
        assert rows == {"geometry": 0, "param_to_s": 0}, name
        assert np.array_equal(sol.v, warm.v), name


def test_residual_and_complementarity(domains, fields):
    sol = vf_field(domains("circle"), fields("circle", 1 / 64))
    med, mx, l1 = residual_summary(sol)
    assert med <= 0.05
    assert complementarity_max(sol) <= 5 * sol.h * float(np.max(sol.v))


def test_weak_form(domains, fields):
    sol = vf_field(domains("circle"), fields("circle", 1 / 64))
    recs = weak_form_check(sol)
    for rec in recs:
        assert rec["abs_err"] <= 0.05 * max(1.0, abs(rec["rhs"]))


def test_mk_verdicts(domains):
    rep, trace_err = mk_verdict(domains("circle"))
    assert rep.verdict == "ball"
    assert trace_err <= 1e-6
    rep, _ = mk_verdict(domains("ellipse"))
    assert rep.verdict == "hypotheses-not-met"
    rep, _ = mk_verdict(domains("union"))
    assert rep.verdict == "inapplicable"


@pytest.mark.parametrize("name", ["ellipse", "square", "union"])
def test_mk_verdict_reads_the_table_rows(monkeypatch, domains, name):
    # on a warmed Domain the trace spot-checks read the cut table's rows:
    # no curve evaluation and no corner-zone test, with vf_boundary's values
    # (whose fresh cut values are the table's)
    dom = domains(name)
    table, gamma = dom.table, 2.5
    mk_verdict(dom, gamma)
    smooth = np.flatnonzero(table.smooth())
    want = max(abs(vf_boundary(dom, table.point(int(i)),
                               constant(gamma)).value
                   - gamma * float(table.phi[i]))
               for i in smooth[:: max(1, smooth.size // 16)][:16]) / gamma
    rows, searches = [], []
    geometry = BoundaryCurve.geometry
    corner_distance = BoundaryCurve.corner_distance
    monkeypatch.setattr(BoundaryCurve, "geometry", lambda self, a, p: (
        rows.append(np.size(p)) or geometry(self, a, p)))
    monkeypatch.setattr(BoundaryCurve, "corner_distance", lambda self, s: (
        searches.append(np.size(s)) or corner_distance(self, s)))
    _, err = mk_verdict(dom, gamma)
    assert sum(rows) == 0 and searches == []
    assert err == want


def test_mk_gamma_must_be_positive(domains):
    with pytest.raises(HypothesisViolationError):
        mk_verdict(domains("circle"), gamma=0.0)


def test_export_csv(tmp_path, domains, fields):
    sol = vf_field(domains("circle"), fields("circle", 1 / 64))
    path = tmp_path / "mk.csv"
    export_mk_csv(sol, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,u,v,tau,residual,singular"
    assert len(lines) == 1 + sol.grid.nx * sol.grid.ny
    first = lines[1].split(",")
    assert len(first) == 7
    assert first[6] in ("0", "1")


def test_disk_center_is_singular(domains, fields):
    sol = _solve(domains, fields, "circle", 1 / 64)
    iy, ix = _cell(sol, 0.0, 0.0)
    assert np.isclose(sol.u[iy, ix], 1.0, atol=2 * sol.h)
    assert sol.singular[iy, ix]


def test_disk_halfway_point(domains, fields):
    sol = _solve(domains, fields, "circle", 1 / 64)
    iy, ix = _cell(sol, 0.5, 0.0)
    # cell center is within h/2 of (0.5, 0); d is exact for the center
    assert np.isclose(sol.u[iy, ix], 1.0 - np.hypot(*(
        np.array([sol.grid.xs[ix], sol.grid.ys[iy]]))), atol=1e-9)
    assert not sol.singular[iy, ix]


def test_ellipse_center_singular(domains, fields):
    sol = _solve(domains, fields, "ellipse", 1 / 64)
    iy, ix = _cell(sol, 0.0, 0.0)
    assert sol.singular[iy, ix]
    assert np.isclose(sol.u[iy, ix], 1.0, atol=3 * sol.h)


def test_square_diagonal_singular(domains, fields):
    sol = _solve(domains, fields, "square", 1 / 64)
    iy, ix = _cell(sol, 0.9, 0.9)
    assert np.isclose(sol.u[iy, ix], 0.1, atol=2 * sol.h)
    assert sol.singular[iy, ix]


def test_square_sigma_on_diagonals(domains, fields):
    sol = _solve(domains, fields, "square", 1 / 64)
    g = sol.grid
    ys, xs = np.nonzero(sol.singular)
    cx = g.xs[xs]
    cy = g.ys[ys]
    off_diag = np.minimum(np.abs(np.abs(cx) - np.abs(cy)),
                          np.hypot(cx, cy))
    assert np.max(off_diag) <= 4 * g.h


def test_union_sigma_on_the_segment_between_centres(domains, fields):
    # feet on y = 0 are the two concave corners (0, +-sqrt 3): the cut
    # value comes from each corner's fan, not from the adjacent arcs
    sol = _solve(domains, fields, "union", 1 / 64)
    g = sol.grid
    row = np.abs(g.ys) <= 0.5 * g.h
    col = np.abs(g.xs) < 0.9
    assert np.any(row) and np.any(col)
    assert np.all(sol.singular[np.ix_(row, col)])


def test_eikonal_bound(domains, fields):
    for name in ("circle", "ellipse", "square", "union", "fourier"):
        sol = _solve(domains, fields, name, 1 / 64)
        assert eikonal_max_deviation(sol) <= 5 * sol.h, name


def test_singular_measure_shrinks(curves, domains, fields):
    # the cover of a point singular set (the circle's centre) is a disc of
    # radius 3h, so its measure falls like h^2; the cover of a curve-like
    # one is a band of width O(h)
    for name, lo, hi in (("circle", 0.2, 0.3), ("ellipse", 0.4, 0.6),
                         ("square", 0.4, 0.6)):
        curve = curves(name)
        coarse_sol = _solve(domains, fields, name, 1 / 128)
        coarse = np.sum(coarse_sol.singular) * coarse_sol.h ** 2
        fine_field = build_distance_field(
            domains(name), grid_with_h(curve, 1 / 256))
        fine_sol = vf_field(domains(name), fine_field)
        fine = np.sum(fine_sol.singular) * fine_sol.h ** 2
        assert lo <= fine / coarse <= hi, name


def _every_cell_field(dom, field):
    """The field with a foot in every cell, from the projector's full scan."""
    p = CurveProjector(dom.curve).project(field.centers)
    shape = field.d.shape
    return dataclasses.replace(
        field, d=p.dist.reshape(shape), nearest_arc=p.arc_index.reshape(shape),
        nearest_param=p.param.reshape(shape), nearest_s=p.s.reshape(shape),
        nearest_kappa=p.kappa.reshape(shape),
        nearest_normal=p.normal.reshape(shape + (2,)),
        nearest_lambda=dom.table.lambda_at(p.s).reshape(shape))


def _overwrite_beyond_ring(field):
    """The field with junk in every cell beyond its ring."""
    far = field.nearest_arc < 0
    junk = {}
    for name in ("d", "nearest_param", "nearest_s", "nearest_kappa",
                 "nearest_lambda"):
        junk[name] = np.where(far, np.nan, getattr(field, name))
    junk["nearest_normal"] = np.where(far[..., None], np.nan,
                                      field.nearest_normal)
    junk["nearest_arc"] = np.where(far, -1, field.nearest_arc)
    return dataclasses.replace(field, **junk)


def test_mk_reads_no_cell_beyond_the_ring(tmp_path, domains, fields):
    for name in ("ellipse", "square", "union"):
        dom = domains(name)
        full = _every_cell_field(dom, fields(name, 1 / 64))
        outputs = []
        for i, field in enumerate((full, _overwrite_beyond_ring(full),
                                   fields(name, 1 / 64))):
            sol = vf_field(dom, field)
            path = tmp_path / f"{name}-{i}.csv"
            export_mk_csv(sol, str(path))
            outputs.append((path.read_bytes(), residual_summary(sol),
                            complementarity_max(sol),
                            eikonal_max_deviation(sol), weak_form_check(sol),
                            np.sum(sol.singular) * sol.h ** 2,
                            float(np.max(sol.v))))
        assert outputs[1] == outputs[0], name
        assert outputs[2] == outputs[0], name


def test_median_matches_numpy():
    rng = np.random.default_rng(8)
    for n in list(range(1, 12)) + [1000, 1001]:
        for _ in range(10):
            r = np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-9, 4)
            r[rng.integers(0, n, n // 3)] = r[0]
            assert _median(r) == np.median(r)
        r[rng.integers(0, n)] = np.nan
        assert np.isnan(_median(r)) and np.isnan(np.median(r))
