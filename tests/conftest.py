import numpy as np
import pytest

from cutloc import build_distance_field, cut_table, from_spec
from cutloc.distfield import GridSpec

SPECS = {
    "circle": {"type": "circle", "radius": 1.0},
    "circle_small": {"type": "circle", "radius": 0.5},
    "circle_big": {"type": "circle", "radius": 3.0},
    "ellipse": {"type": "ellipse", "a": 2.0, "b": 1.0},
    "superellipse": {"type": "superellipse", "a": 1.0, "b": 1.0, "p": 4.0},
    "square": {"type": "square", "side": 2.0},
    "rounded": {"type": "rounded_polygon", "sides": 4, "side_length": 2.0,
                "corner_radius": 0.2},
    "stadium": {"type": "stadium", "cap_radius": 1.0, "straight_length": 2.0},
    "union": {"type": "union_disks", "radius": 2.0, "half_distance": 1.0},
    "fourier": {"type": "fourier", "a0": 1.0, "cos": [0.0, 0.0, 0.1]},
}

_curves = {}
_tables = {}
_fields = {}


def get_curve(name):
    if name not in _curves:
        _curves[name] = from_spec(SPECS[name])
    return _curves[name]


def get_table(name, n=2048):
    key = (name, n)
    if key not in _tables:
        _tables[key] = cut_table(get_curve(name), n=n)
    return _tables[key]


def get_field(name, h):
    key = (name, h)
    if key not in _fields:
        curve = get_curve(name)
        _fields[key] = build_distance_field(
            curve, grid=GridSpec.with_h(curve, h))
    return _fields[key]


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # fill the circle's lazy tables once so timed assertions never pay them
    curve = get_curve("circle")
    cut_table(curve, n=64)
    build_distance_field(curve, grid=GridSpec.from_curve(curve, nx=24), m=512)


@pytest.fixture(scope="session")
def curves():
    return get_curve


@pytest.fixture(scope="session")
def tables():
    return get_table


@pytest.fixture(scope="session")
def fields():
    return get_field
