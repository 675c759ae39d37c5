"""Quadrature and 1D search helpers used throughout the package.

Everything here is deterministic: fixed node layouts, fixed iteration
counts or explicit tolerances, no randomness.
"""

from functools import lru_cache

import numpy as np

__all__ = [
    "gauss_legendre",
    "ray_quadrature",
    "simpson_doubling_vec",
    "golden_min_vec",
]

_INVPHI = (np.sqrt(5.0) - 1.0) / 2.0  # 1/phi
_MAX_NODES = 4097        # most nodes per interval of simpson_doubling_vec
_GOLDEN_ITERS = 48       # bracket shrink (1/phi)^48 ~ 9e-11
_NEWTON_ITERS = 100      # cap on gauss_legendre's Newton steps; the Tricomi
                         # guesses converge in 3 or 4


def _legendre(x, m):
    """P_m(x) and P_m'(x) by the three-term recurrence."""
    p0, p1 = np.ones_like(x), x
    for k in range(2, m + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    return p1, m * (x * p1 - p0) / (x * x - 1.0)


@lru_cache(maxsize=None)
def gauss_legendre(m):
    """Nodes (ascending) and weights of the m-point Gauss-Legendre rule.

    Newton steps on the three-term recurrence of P_m from Tricomi's
    guesses cos(pi (k - 1/4) / (m + 1/2)), until a step is below 1e-15;
    the weights are 2 / ((1 - x^2) P_m'(x)^2), and both are symmetrized
    about 0 as numpy's leggauss does.  Nodes agree with leggauss to 2 ulp,
    with no eigensolve and no numpy.polynomial import.  The arrays are
    cached per m and read-only.
    """
    x = -np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(_NEWTON_ITERS):
        p, dp = _legendre(x, m)
        step = p / dp
        x = x - step
        if np.max(np.abs(step)) <= 1e-15:
            break
    _, dp = _legendre(x, m)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    x = 0.5 * (x - x[::-1])
    w = 0.5 * (w + w[::-1])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def ray_quadrature(f, pos, nu, dist, kappa, tau):
    """int_0^tau f(pos - t nu) (1 - (d+t) kappa) / (1 - d kappa) dt per row.

    f is a polynomial ScalarField, so the integrand is a polynomial in t
    and fixed-order Gauss-Legendre is exact.  Rows are rays from depth
    dist (0 for rays from the boundary) to dist + tau; pos, nu are (n, 2),
    the rest (n,).  A row's value depends on its batch: vals @ w goes
    through BLAS, so one ray evaluated alone and among others can differ
    in the last bits (up to 4.4e-16 on the ellipse's boundary trace).
    """
    m = max(2, (f.degree + 3) // 2 + 1)
    u, w = gauss_legendre(m)
    t = 0.5 * tau[:, None] * (u[None, :] + 1.0)
    x = pos[:, None, :] - t[..., None] * nu[:, None, :]
    vals = np.asarray(f(x)) * (1.0 - (dist[:, None] + t) * kappa[:, None])
    return (vals @ w) * (0.5 * tau) / (1.0 - dist * kappa)


def simpson_doubling_vec(f, a, b, tol):
    """Composite Simpson with node doubling, vectorized over a batch of intervals.

    f(t) takes an (n, k) array of nodes (row i holds nodes for interval i)
    and returns same-shape values.  a, b are (n,) arrays.  Doubling stops
    when the worst-row Richardson estimate is below tol, or before a row
    would exceed 4097 nodes.  Returns (n,).
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    span = b - a
    k = 5
    tau = np.linspace(0.0, 1.0, k)
    vals = f(a[:, None] + span[:, None] * tau[None, :])
    est = _composite_simpson_rows(vals, span)
    while True:
        k2 = 2 * k - 1
        if k2 > _MAX_NODES:
            return est
        tau_new = (np.arange(k - 1) + 0.5) / (k - 1)
        new_vals = f(a[:, None] + span[:, None] * tau_new[None, :])
        merged = np.empty((vals.shape[0], k2))
        merged[:, 0::2] = vals
        merged[:, 1::2] = new_vals
        vals = merged
        k = k2
        est2 = _composite_simpson_rows(vals, span)
        err = np.max(np.abs(est2 - est)) if est.size else 0.0
        est = est2
        if err <= 15.0 * tol:
            return est


def _composite_simpson_rows(vals, span):
    n = vals.shape[1]
    if n < 3 or n % 2 == 0:
        raise ValueError("need odd node count >= 3")
    h = span / (n - 1)
    w = np.ones(n)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return h / 3.0 * (vals @ w)


def golden_min_vec(f, lo, hi):
    """Golden-section minimize f over [lo, hi], vectorized.

    f maps an (n,) parameter array to (n,) values.  48 iterations shrink
    the bracket by ~9e-11, enough for parameter tolerance 1e-10 on unit-
    scale brackets.  Returns (argmin, f(argmin)).
    """
    lo = np.asarray(lo, dtype=float).copy()
    hi = np.asarray(hi, dtype=float).copy()
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1 = f(x1)
    f2 = f(x2)
    for _ in range(_GOLDEN_ITERS):
        take_left = f1 < f2
        hi = np.where(take_left, x2, hi)
        lo = np.where(take_left, lo, x1)
        x1 = hi - _INVPHI * (hi - lo)
        x2 = lo + _INVPHI * (hi - lo)
        # golden ratio makes one of the new points coincide with the
        # surviving old one, so a single fresh evaluation suffices
        xq = np.where(take_left, x1, x2)
        fq = f(xq)
        f1, f2 = np.where(take_left, fq, f2), np.where(take_left, f1, fq)
    xm = 0.5 * (lo + hi)
    return xm, f(xm)

