import numpy as np
import pytest

from conftest import SPECS
from cutloc import ConstructionError, build_distance_field
from cutloc.distfield import GridSpec, inside_mask
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


def test_grid_must_contain_curve(curves):
    grid = GridSpec(xmin=-0.2, ymin=-0.2, nx=16, ny=16, h=0.025)
    with pytest.raises(ConstructionError):
        build_distance_field(curves("circle"), grid=grid)


def test_inside_mask_is_the_field_inside_test(curves, fields):
    for name in SPECS:
        field = fields(name, 1 / 64)
        got = inside_mask(curves(name), GridSpec.with_h(curves(name), 1 / 64))
        assert got.dtype == field.inside.dtype
        assert np.array_equal(got, field.inside), name
    grid = GridSpec(xmin=-0.2, ymin=-0.2, nx=16, ny=16, h=0.025)
    with pytest.raises(ConstructionError):
        inside_mask(curves("circle"), grid)


def test_field_keeps_the_geometry_of_its_feet(curves, fields):
    for name in SPECS:
        field = fields(name, 1 / 64)
        g = curves(name).geometry(field.nearest_arc.ravel(),
                                  field.nearest_param.ravel())
        shape = field.d.shape
        assert np.array_equal(field.nearest_s, g.s.reshape(shape)), name
        assert np.array_equal(field.nearest_kappa,
                              g.curvature.reshape(shape)), name
        assert np.array_equal(field.nearest_normal,
                              g.normal.reshape(shape + (2,))), name
        assert not field.nearest_normal.flags.writeable, name


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
