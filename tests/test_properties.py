import json

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from conftest import f_value, transformed
from cutloc import laplace, phi, plap
from cutloc.cli import render_json

finite = st.floats(allow_nan=False, allow_infinity=False)


def _simpson(fa, fm, fb, a, b):
    return (b - a) / 6.0 * (fa + 4.0 * fm + fb)


def _adsimp(f, a, b, fa, fm, fb, whole, tol, depth):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = _simpson(fa, flm, fm, a, m)
    right = _simpson(fm, frm, fb, m, b)
    delta = left + right - whole
    # 15 = Richardson factor for Simpson's rule; the relative floor and the
    # inverted comparison (False for NaN) guarantee termination even when
    # the integrand overflows or poisons the estimates
    accept = 15.0 * max(tol, 4.0 * np.finfo(float).eps * abs(whole))
    if depth <= 0 or not (abs(delta) > accept):
        return left + right + delta / 15.0
    return (_adsimp(f, a, m, fa, flm, fm, left, tol / 2.0, depth - 1)
            + _adsimp(f, m, b, fm, frm, fb, right, tol / 2.0, depth - 1))


def adaptive_simpson(f, a, b, tol=1e-10, max_depth=48):
    """Reference integral of scalar f on [a, b] to absolute tolerance tol,
    independent of the closed forms under test."""
    a = float(a)
    b = float(b)
    if a == b:
        return 0.0
    fa, fm, fb = f(a), f(0.5 * (a + b)), f(b)
    whole = _simpson(fa, fm, fb, a, b)
    return _adsimp(f, a, b, fa, fm, fb, whole, tol, max_depth)


@given(lam=st.floats(0.0, 10.0), margin=st.floats(0.0, 1.0))
def test_phi_matches_quadrature(lam, margin):
    # any admissible pair: kappa lam <= 1 (margin shrinks kappa below 1/lam);
    # the floor keeps margin / lam from overflowing for denormal lam
    kappa = margin / lam if lam > 1e-9 else 0.0
    closed = phi(lam, kappa)
    quad = adaptive_simpson(lambda t: 1.0 - t * kappa, 0.0, lam)
    assert np.isclose(closed, quad, rtol=1e-12, atol=1e-12)


@given(lam=st.floats(1e-6, 10.0), margin=st.floats(0.0, 1.0))
def test_phi_kappa_bounded_by_half(lam, margin):
    kappa = margin / lam
    # phi * kappa = m - m^2/2 <= 1/2 with equality only at m = 1
    assert phi(lam, kappa) * kappa <= 0.5 + 1e-12


@st.composite
def cone_points(draw):
    """1 to 3 coordinates in [-3, 1] with sum >= 0 (the K half-space).

    Each coordinate leaves room for the ones after it: with S the sum so
    far and r coordinates left, this one is at least -S - (r - 1), and
    the last one at least -S, so the sum is never negative.
    """
    n = draw(st.integers(1, 3))
    xs, total = [], 0.0
    for r in range(n, 0, -1):
        x = draw(st.floats(max(-3.0, -total - (r - 1)), 1.0))
        xs.append(x)
        total += x
    return xs


@given(cone_points())
def test_f_value_bounded(xs):
    x = np.array(xs)
    assert np.sum(x) >= 0.0
    n = len(xs) + 1
    assert f_value(x) <= 1.0 / n + 1e-9


@given(p=st.floats(2.0, 6.0), r=st.floats(0.0, 8.0))
def test_m_inverse_roundtrip(p, r):
    op = plap(p) if p > 2.0 else laplace()
    y = op.m(r)
    back = op.m_inverse(y)
    assert np.isclose(back, r, rtol=1e-9, atol=1e-9)


@given(scale=st.floats(0.1, 10.0))
def test_dilation_covariance_closed_form(scale):
    # scaling the disk: kappa -> kappa/c, lambda -> c lambda, phi -> c phi
    lam, kappa = 1.0, 1.0
    assert np.isclose(phi(scale * lam, kappa / scale), scale * phi(lam, kappa),
                      rtol=1e-12)


@given(st.dictionaries(st.text(min_size=1, max_size=8),
                       st.one_of(finite, st.booleans(), st.none(),
                                 st.integers(-10**12, 10**12)),
                       max_size=6))
def test_render_json_roundtrips(doc):
    text = render_json(doc)
    parsed = json.loads(text)
    for k, v in doc.items():
        if isinstance(v, float):
            assert parsed[k] == v  # %.17g preserves doubles exactly
        else:
            assert parsed[k] == v
    assert render_json(doc) == text


@settings(max_examples=8, deadline=None)
@given(angle=st.floats(0.0, 2 * np.pi))
def test_rotation_invariance_of_cut_values(angle):
    from cutloc import cut_table, from_spec
    base = from_spec({"type": "ellipse", "a": 2.0, "b": 1.0})
    rot = transformed(base, rotation=angle)
    t0 = cut_table(base, n=64)
    t1 = cut_table(rot, n=64)
    assert np.allclose(t0.lam, t1.lam, atol=1e-6)
    assert np.allclose(t0.phi, t1.phi, atol=1e-6)
