import numpy as np
import pytest

from conftest import SPECS, grid_with_h
from cutloc import ConstructionError, _kernels, build_distance_field
from cutloc.distfield import (GridSpec, _certified_feet, _ring, _seeds,
                              inside_mask)
from cutloc.projector import CurveProjector
from grid_oracle import FieldProjector


def _cell(field, x, y):
    g = field.grid
    ix = int((x - g.xmin) / g.h)
    iy = int((y - g.ymin) / g.h)
    return iy, ix


def test_ellipse_distance_brute_force(curves, fields):
    curve = curves("ellipse")
    field = fields("ellipse", 1 / 64)
    iy, ix = _cell(field, 0.9, 0.0)
    x = np.array([field.grid.xs[ix], field.grid.ys[iy]])
    t = np.linspace(0.0, 2 * np.pi, 1_000_000, endpoint=False)
    pts = np.stack([2 * np.cos(t), np.sin(t)], axis=1)
    brute = np.min(np.linalg.norm(pts - x, axis=1))
    assert np.isclose(field.d[iy, ix], brute, atol=1e-6)


def test_inside_area(fields):
    field = fields("ellipse", 1 / 64)
    area = np.sum(field.inside) * field.grid.h ** 2
    assert np.isclose(area, 2 * np.pi, atol=3 * field.grid.h * 9.7)


def test_grid_must_contain_curve(domains):
    grid = GridSpec(xmin=-0.2, ymin=-0.2, nx=16, ny=16, h=0.025)
    with pytest.raises(ConstructionError):
        build_distance_field(domains("circle"), grid)


def test_inside_mask_is_the_field_inside_test(curves, fields):
    for name in SPECS:
        field = fields(name, 1 / 64)
        grid = grid_with_h(curves(name), 1 / 64)
        got = inside_mask(curves(name), grid, grid.centers())
        assert got.dtype == field.inside.dtype
        assert np.array_equal(got, field.inside), name
    grid = GridSpec(xmin=-0.2, ymin=-0.2, nx=16, ny=16, h=0.025)
    with pytest.raises(ConstructionError):
        inside_mask(curves("circle"), grid, grid.centers())


def test_field_keeps_the_geometry_of_its_feet(curves, fields):
    # on the kept cells; beyond them the field holds its documented fill
    for name in SPECS:
        field = fields(name, 1 / 64)
        kept = field.nearest_arc >= 0
        g = curves(name).geometry(field.nearest_arc[kept],
                                  field.nearest_param[kept])
        assert np.array_equal(field.nearest_s[kept], g.s), name
        assert np.array_equal(field.nearest_kappa[kept], g.curvature), name
        assert np.array_equal(field.nearest_normal[kept], g.normal), name
        assert not field.nearest_normal.flags.writeable, name
        assert np.all(field.nearest_arc[~kept] == -1), name
        for arr in (field.d, field.nearest_param, field.nearest_s,
                    field.nearest_kappa, field.nearest_normal,
                    field.nearest_lambda):
            assert np.all(np.isnan(arr[~kept])), name


def test_projector_roundtrip(curves, fields):
    curve = curves("ellipse")
    field = fields("ellipse", 1 / 64)
    proj = FieldProjector(field)
    s = np.linspace(0.0, curve.length, 64, endpoint=False)
    g = curve.geometry_at_s(s)
    # interior points one-third of the way in stay closest to their foot
    step = 0.15
    pts = g.position - step * g.normal
    p = proj.project(pts)
    ds = np.abs(p.s - s)
    ds = np.minimum(ds, curve.length - ds)
    assert np.max(ds) <= 3 * field.grid.h
    assert np.allclose(p.dist, step, atol=2 * field.grid.h)


def test_projection_idempotent(curves, fields):
    curve = curves("circle")
    field = fields("circle", 1 / 64)
    proj = FieldProjector(field)
    pts = np.array([[0.3, 0.4], [-0.2, 0.6], [0.05, -0.7]])
    first = proj.project(pts)
    second = proj.project(first.point + 1e-9 * (pts - first.point))
    ds = np.abs(first.s - second.s)
    ds = np.minimum(ds, curve.length - ds)
    assert np.max(ds) <= 1e-6 * curve.length


@pytest.mark.parametrize("h", [1 / 32, 1 / 64])
def test_certified_sites_are_the_scan_sites(curves, domains, h):
    # the certified path beside the full scan on the same cells: the same
    # site for every certified cell, and most inside cells certified
    for name in SPECS:
        curve, dom = curves(name), domains(name)
        grid = grid_with_h(curve, h)
        centers = grid.centers()
        inside = inside_mask(curve, grid, centers)
        cells = np.flatnonzero(inside.ravel())
        seed = _seeds(grid, centers, cells, curve.sites.points)
        rows, idx, _, _, sure = _certified_feet(dom, CurveProjector(curve),
                                                centers[cells], seed)
        full, _ = _kernels.nearest_site(centers[cells[rows]],
                                        curve.sites.points)
        assert np.array_equal(idx[sure], full[sure]), name
        assert np.count_nonzero(sure) >= 0.5 * np.count_nonzero(inside), name


def test_kept_cells_hold_the_full_scan_feet(domains, fields):
    # every kept cell holds the foot of the full scan and the table's
    # lambda there, bit for bit
    for name in SPECS:
        dom, field = domains(name), fields(name, 1 / 64)
        kept = field.nearest_arc.ravel() >= 0
        assert np.array_equal(kept, _ring(field.inside).ravel()), name
        p = CurveProjector(dom.curve).project(field.centers[kept])
        assert np.array_equal(field.nearest_arc.ravel()[kept],
                              p.arc_index), name
        for got, want in ((field.d, p.dist), (field.nearest_param, p.param),
                          (field.nearest_s, p.s),
                          (field.nearest_kappa, p.kappa),
                          (field.nearest_lambda, dom.table.lambda_at(p.s))):
            assert np.array_equal(got.ravel()[kept], want), name
        assert np.array_equal(field.nearest_normal.reshape(-1, 2)[kept],
                              p.normal), name
