import json

import numpy as np
import pytest

from cutloc import ConstructionError, ShapeParseError, from_spec, load_shape
from cutloc.shapes import MAX_FOURIER_MODES, MAX_SIDES, SHAPE_SCHEMAS


def test_every_schema_builds():
    defaults = {
        "circle": {"radius": 1.0},
        "ellipse": {"a": 2.0, "b": 1.0},
        "superellipse": {"a": 1.0, "b": 1.0, "p": 4.0},
        "square": {"side": 2.0},
        "rounded_polygon": {"sides": 4, "side_length": 2.0,
                            "corner_radius": 0.2},
        "stadium": {"cap_radius": 1.0, "straight_length": 2.0},
        "union_disks": {"radius": 2.0, "half_distance": 1.0},
        "fourier": {"a0": 1.0, "cos": [0.0, 0.1]},
    }
    assert set(defaults) == set(SHAPE_SCHEMAS)
    for name, params in defaults.items():
        curve = from_spec({"type": name, **params})
        assert curve.length > 0


def test_size_bounds_are_documented_and_enforced():
    assert str(MAX_SIDES) in SHAPE_SCHEMAS["rounded_polygon"]["sides"]
    for key in ("cos", "sin"):
        assert str(MAX_FOURIER_MODES) in SHAPE_SCHEMAS["fourier"][key]
    polygon = {"type": "rounded_polygon", "side_length": 1.0,
               "corner_radius": 0.1}
    with pytest.raises(ShapeParseError, match="at most"):
        from_spec(dict(polygon, sides=MAX_SIDES + 1))
    for key in ("cos", "sin"):
        with pytest.raises(ShapeParseError, match="at most"):
            from_spec({"type": "fourier", "a0": 1.0,
                       key: [0.0] * (MAX_FOURIER_MODES + 1)})
    curve = from_spec({"type": "fourier", "a0": 1.0,
                       "cos": [0.0] * (MAX_FOURIER_MODES - 1) + [1e-3]})
    assert curve.arcs[0].ak.size == MAX_FOURIER_MODES


def test_missing_type_key():
    with pytest.raises(ShapeParseError):
        from_spec({"radius": 1.0})


def test_unknown_type():
    with pytest.raises(ShapeParseError):
        from_spec({"type": "pentagon"})


def test_missing_required_key():
    with pytest.raises(ShapeParseError):
        from_spec({"type": "ellipse", "a": 2.0})


def test_bad_parameter_value():
    with pytest.raises((ShapeParseError, ConstructionError)):
        from_spec({"type": "circle", "radius": -1.0})
    with pytest.raises((ShapeParseError, ConstructionError)):
        from_spec({"type": "union_disks", "radius": 1.0,
                   "half_distance": 1.5})


def test_load_shape_reports_position(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text('{"type": "circle",\n  "radius": }\n')
    with pytest.raises(ShapeParseError) as exc:
        load_shape(str(p))
    assert exc.value.line == 2
    assert exc.value.column is not None


def test_load_shape_roundtrip(tmp_path):
    p = tmp_path / "c.json"
    p.write_text(json.dumps({"type": "circle", "radius": 2.0}))
    curve = load_shape(str(p))
    assert np.isclose(curve.length, 4.0 * np.pi, rtol=1e-10)


def test_fourier_radius():
    curve = from_spec({"type": "fourier", "a0": 1.0, "cos": [0.0, 0.0, 0.1]})
    g = curve.geometry_at_s([0.0])
    r = np.linalg.norm(g.position[0])
    # r(0) = 1 + 0.1 cos(0) on the third harmonic
    assert np.isclose(r, 1.1, atol=1e-9)


def test_center_offset():
    curve = from_spec({"type": "circle", "radius": 1.0, "center": [3.0, -2.0]})
    x0, x1, y0, y1 = curve.bbox
    assert np.isclose(0.5 * (x0 + x1), 3.0, atol=1e-9)
    assert np.isclose(0.5 * (y0 + y1), -2.0, atol=1e-9)
