import tracemalloc

import numpy as np
import pytest

from cutloc import (BoundaryCurve, Domain, GridSpec, build_distance_field,
                    cut_table, from_spec)
from cutloc.arcs import TransformedArc

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


def traced_peak_mb(fn, *args):
    """Peak traced allocation of fn(*args) above its entry, in MB (2^20 B).

    numpy registers its buffers with tracemalloc, so array temporaries are
    measured in process: no RSS noise, and no dependence on the memory the
    interpreter and its imports already hold.
    """
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def grid_with_h(curve, h):
    """GridSpec over the curve's bbox plus a margin, at an exact cell size h."""
    x0, x1, y0, y1 = curve.bbox
    w, ht = x1 - x0, y1 - y0
    margin = max(0.05 * max(w, ht), 3.0 * h)
    nx = max(int(np.ceil((w + 2 * margin) / h)), 16)
    ny = max(int(np.ceil((ht + 2 * margin) / h)), 16)
    cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
    return GridSpec(xmin=cx - 0.5 * nx * h, ymin=cy - 0.5 * ny * h,
                    nx=nx, ny=ny, h=h)


def transformed(curve, scale=1.0, rotation=0.0):
    """Dilated/rotated copy of a curve about the origin."""
    return BoundaryCurve(
        [TransformedArc(a, scale=scale, rotation=rotation) for a in curve.arcs])


# ------------------------------------------------ the paper's lemma function f

def _f_rows(X):
    """f over rows of X (m, k): (sum x / k) * int_0^1 prod (1 - s x_j) ds.

    The product is expanded to ascending coefficients in s, so the inner
    integral is exact: sum_i c_i / (i + 1).
    """
    X = np.asarray(X, dtype=float)
    m, k = X.shape
    c = np.ones((m, 1))
    for j in range(k):
        xj = X[:, j][:, None]
        padded = np.concatenate([c, np.zeros((m, 1))], axis=1)
        shifted = np.concatenate([np.zeros((m, 1)), c], axis=1)
        c = padded - xj * shifted
    weights = 1.0 / (np.arange(c.shape[1]) + 1.0)
    inner = c @ weights
    return (np.sum(X, axis=1) / k) * inner


def f_value(x):
    """f at a single point x in R^(n-1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return float(_f_rows(x[None, :])[0])


def f_max_bruteforce(n):
    """Grid maximum of the auxiliary function f over the admissible cone.

    The cone {sum x >= 0} cap [-3, 1]^(n-1) is sampled on a 241-point axis
    per coordinate.  Returns (max value, argmax vector); the lemma puts
    the maximum at 1/n, at the all-ones point.
    """
    axis = np.linspace(-3.0, 1.0, 241)
    k = n - 1
    if k == 1:
        X = axis[axis >= 0.0][:, None]
        vals = _f_rows(X)
        i = int(np.argmax(vals))
        return float(vals[i]), X[i]
    best = -np.inf
    arg = None
    tail = np.stack(np.meshgrid(*([axis] * (k - 1)), indexing="ij"),
                    axis=-1).reshape(-1, k - 1)
    tail_sum = np.sum(tail, axis=1)
    for x0 in axis:
        mask = tail_sum + x0 >= 0.0
        if not np.any(mask):
            continue
        X = np.concatenate([np.full((int(mask.sum()), 1), x0),
                            tail[mask]], axis=1)
        vals = _f_rows(X)
        i = int(np.argmax(vals))
        if vals[i] > best:
            best = float(vals[i])
            arg = X[i]
    return best, arg


_curves = {}
_tables = {}
_domains = {}
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


def get_domain(name, n=2048):
    key = (name, n)
    if key not in _domains:
        _domains[key] = Domain(get_table(name, n))
    return _domains[key]


def get_field(name, h):
    key = (name, h)
    if key not in _fields:
        _fields[key] = build_distance_field(
            get_domain(name), grid_with_h(get_curve(name), h))
    return _fields[key]


@pytest.fixture(scope="session", autouse=True)
def warm_kernels():
    # fill the circle's lazy tables once so timed assertions never pay them
    curve = get_curve("circle")
    build_distance_field(Domain(cut_table(curve, n=64)),
                         GridSpec.from_curve(curve, nx=24))


@pytest.fixture(scope="session")
def curves():
    return get_curve


@pytest.fixture(scope="session")
def tables():
    return get_table


@pytest.fixture(scope="session")
def domains():
    return get_domain


@pytest.fixture(scope="session")
def fields():
    return get_field
