"""Ray ODE machinery for web-shaped solutions u = h(d_Omega).

For the p-Laplacian -div(A(|grad u|) grad u) = 1, A(r) = r^(p-2), a web
ansatz reduces the equation along each inward normal ray to a flux
balance.  With m(r) = A(r) r = r^(p-1) and

    g(t) = -(lambda - t) (a + b/2) / (a + b),   a = 1 - lambda kappa,
                                                b = kappa (lambda - t),

the profile slope is h'(t) = sign(g) m^{-1}(|g|) and the ray flux
F(t) = A(|h'|) h' (1 - t kappa) satisfies F(t) = -int_t^lambda (1 - s k) ds
with F(lambda) = 0.  |g(t)| equals the criterion value of the parallel
domain at depth t, so the boundary flux c(y) = -A(|h'(0)|) h'(0) =
m(m^{-1}(|g(0)|)) = |g(0)| = phi(y) for every p: a constant flux on the
boundary is a constant phi.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .cutlocus import cut_value, phi as phi_closed
from .errors import (ConstructionError, HypothesisViolationError,
                     InapplicableError, InvalidRayError, OperatorRangeError)

__all__ = [
    "DivergenceOperator", "WebProfile", "PartialWebReport", "laplace",
    "plap", "parse_operator", "web_profile", "profile_checks",
    "flux_identity_residual", "partial_web_report",
]

# Largest plap exponent.  Up to p = 180, m(r) = r^(p-1) keeps slopes
# r >= 1/64 apart from 0 in double precision (64^-(p-1) >= 2^-1074), and
# m(m^-1(y)) rounds to within (p - 1) eps of y.  Far larger exponents round
# every slope |g|^(1/(p-1)) to 1, and an infinite or NaN one has no m.
_P_MAX = 180.0
# collar depths eps of the partial web report
_COLLAR_EPS = (0.2, 0.1, 0.05)


@dataclass(frozen=True, eq=False)
class DivergenceOperator:
    """The p-Laplacian A(r) = r^(p-2), 2 <= p <= _P_MAX; p = 2 is Laplace.

    m(r) = A(r) r = r^(p-1) is strictly increasing, and its inverse is the
    closed form m^-1(y) = y^(1/(p-1)), exact for p = 2.
    """

    p: float

    def __post_init__(self):
        if not 2.0 <= self.p <= _P_MAX:
            raise ConstructionError(
                f"plap exponent must lie in [2, {_P_MAX:g}], got {self.p:g}")

    @property
    def name(self):
        return "laplace" if self.p == 2.0 else f"plap:{self.p:g}"

    def m(self, r):
        return np.power(np.asarray(r, dtype=float), self.p - 1.0)

    def m_inverse(self, y):
        """r >= 0 with m(r) = y, for y >= 0; numeric dust below 0 reads 0."""
        y = np.asarray(y, dtype=float)
        if np.any(y < -1e-15):
            raise OperatorRangeError("m_inverse needs nonnegative input")
        r = np.power(np.where(y > 0.0, y, 0.0), 1.0 / (self.p - 1.0))
        return float(r) if r.ndim == 0 else r


def laplace() -> DivergenceOperator:
    return DivergenceOperator(2.0)


def plap(p) -> DivergenceOperator:
    """A(r) = r^(p-2); p = 2 is the linear operator."""
    return DivergenceOperator(float(p))


def parse_operator(text: str) -> DivergenceOperator:
    t = text.strip().lower()
    if t == "laplace":
        return laplace()
    if t.startswith("plap:"):
        try:
            p = float(t.split(":", 1)[1])
        except ValueError:
            raise ConstructionError(
                f"plap exponent in {text!r} is not a number") from None
        return plap(p)
    raise ConstructionError(f"unknown operator spec {text!r}")


# -------------------------------------------------------------- ray profile

@dataclass(eq=False)
class WebProfile:
    op: DivergenceOperator
    kappa: float
    lam: float
    t: np.ndarray
    g: np.ndarray          # signed flux magnitude candidate, <= 0
    hprime: np.ndarray     # profile slope along the outward direction, <= 0
    flux: np.ndarray       # A(|h'|) h' (1 - t kappa)

    @property
    def hprime0(self):
        return float(self.hprime[0])

    @property
    def flux0(self):
        return float(self.flux[0])


def _g_of(kappa, lam, t):
    """Stable factored evaluation of -(1/(1-tk)) int_t^lambda (1-sk) ds."""
    a = 1.0 - lam * kappa
    b = kappa * (lam - t)
    denom = a + b
    safe = np.where(np.abs(denom) > 1e-14, denom, 1.0)
    ratio = np.where(np.abs(denom) > 1e-14, (a + 0.5 * b) / safe, 0.5)
    return -(lam - t) * ratio


def web_profile(op, kappa, lam):
    """Solve the ray flux balance for h' at 257 depths spanning [0, lambda]."""
    kappa = float(kappa)
    lam = float(lam)
    if lam <= 0.0:
        raise InvalidRayError("ray needs a positive cut value")
    if kappa * lam > 1.0 + 1e-9:
        raise InvalidRayError(
            f"kappa*lambda = {kappa * lam:.6g} exceeds 1: no valid chart")
    t = np.linspace(0.0, lam, 257)
    g = _g_of(kappa, lam, t)
    hprime = -op.m_inverse(np.abs(g))
    flux = -op.m(-hprime) * (1.0 - t * kappa)
    return WebProfile(op=op, kappa=kappa, lam=lam, t=t, g=g, hprime=hprime,
                      flux=flux)


def profile_checks(prof):
    """Endpoint, antiderivative, and finite-difference flux-law residuals."""
    kappa, lam, t = prof.kappa, prof.lam, prof.t
    anti = -(lam - t) * (1.0 - 0.5 * kappa * (lam + t))
    anti_err = float(np.max(np.abs(prof.flux - anti)))
    dfdt = np.gradient(prof.flux, t, edge_order=2)
    law_err = float(np.max(np.abs(dfdt - (1.0 - t * kappa))))
    return {"flux_end": float(abs(prof.flux[-1])),
            "antiderivative_max_err": anti_err,
            "flux_law_max_err": law_err}


# --------------------------------------------------------- boundary sweeps

def _in_cyclic(s, lo, hi, L, tol=0.0):
    """Whether arclength s (scalar or array) lies in the cyclic window
    [lo, hi] widened by tol; hi = lo + a multiple of L is the whole curve."""
    span = (hi - lo) % L
    whole = span == 0.0 and hi != lo
    return whole | ((s - lo) % L <= span + tol)


def _on_gamma(s, gamma_arc, L):
    """Whether arclength s lies on gamma_arc, widened by 1e-9 L; every s
    does when gamma_arc is None (the whole curve)."""
    return gamma_arc is None or bool(_in_cyclic(
        s, float(gamma_arc[0]), float(gamma_arc[1]), L, tol=1e-9 * L))


def _gamma_mask(table, gamma_arc):
    if gamma_arc is None:
        return np.ones(len(table), dtype=bool)
    return _in_cyclic(table.s, float(gamma_arc[0]), float(gamma_arc[1]),
                      table.curve.length)


def flux_identity_residual(dom, gamma_arc=None, op=None):
    """|A(|h'(0)|) h'(0) + phi(y0)| at the domain's curvature argmax y0.

    Raises when the argmax falls outside the arclength window gamma_arc.
    """
    if op is None:
        op = laplace()
    curve = dom.curve
    if curve.corners:
        raise InapplicableError("identity requires a smooth boundary")
    y0, kmax = dom.y0, dom.H_max
    if not _on_gamma(y0.s, gamma_arc, curve.length):
        raise HypothesisViolationError(
            f"curvature argmax at s = {y0.s:.6g} lies outside gamma_arc")
    return abs(web_profile(op, kmax, dom.lambda_y0).flux0 + dom.phi_y0)


@dataclass(eq=False)
class PartialWebReport:
    flag_i: bool               # curvature max attained on gamma
    flag_ii_prime: bool        # flux candidate max attained on gamma
    collar: Tuple              # ((eps, defect), ...)
    s_y0: float
    kappa_y0: float
    lambda_y0: float
    phi_y0: float              # also the flux -A(|h'(0)|) h'(0) at y0
    ratio: float
    verdict: str
    note: str
    samples_used: int


def partial_web_report(dom, gamma_arc=None):
    """Hypothesis record for the partially overdetermined web criterion.

    Reads the boundary flux c(y) = -A(|h'(0)|) h'(0) = |g_y(0)| = phi(y)
    at every smooth boundary sample as the cut table's phi, the same for
    every operator (see the module docstring), compares
    curvature and flux maxima on gamma against the whole boundary, and
    reports the collar-inequality defect per eps in _COLLAR_EPS.  The phi
    hypothesis allows the domain's phi_slack, as the criterion report
    does.  Diagnostics are produced even when hypotheses fail.
    """
    curve, table = dom.curve, dom.table
    smooth = table.smooth()
    mask_g = _gamma_mask(table, gamma_arc) & smooth
    notes = []

    # flux candidate at every smooth sample: c(y) = phi(y)
    c_all = table.phi[smooth]
    in_g = mask_g[smooth]

    y0g, k_global = dom.y0, dom.H_max
    c_max_global = float(np.max(c_all))
    if not np.any(in_g):
        raise HypothesisViolationError("gamma_arc contains no smooth samples")

    idx_g = np.flatnonzero(in_g)
    i_best = idx_g[int(np.argmax(table.kappa[smooth][idx_g]))]
    attain_tol = 1e-6 * max(1.0, abs(k_global))
    y0_on_gamma = _on_gamma(y0g.s, gamma_arc, curve.length)
    flag_i = bool(y0_on_gamma or table.kappa[smooth][i_best]
                  >= k_global - attain_tol)
    c_gamma_max = float(np.max(c_all[idx_g]))
    flag_iip = bool(c_gamma_max >= c_max_global
                    - 1e-6 * max(1.0, abs(c_max_global)))

    # anchor point: curvature argmax within gamma (global argmax if inside)
    if y0_on_gamma:
        y0, k0, lam0 = y0g, k_global, dom.lambda_y0
    else:
        sm_idx = np.flatnonzero(smooth)
        i_tab = sm_idx[i_best]
        y0 = table.point(int(i_tab))
        k0 = float(table.kappa[i_tab])
        lam0 = cut_value(curve, y0, tol=dom.tol)
        notes.append("curvature argmax lies outside gamma; anchoring at the "
                     "gamma-restricted maximum")
    phi0 = float(phi_closed(lam0, k0))

    # collar sup of -A(|h'(t)|) h'(t) = |g_y(t)| over depths t < eps
    lam_s = table.lam[smooth]
    kap_s = table.kappa[smooth]
    collar = []
    for eps in _COLLAR_EPS:
        tmax = np.minimum(float(eps), lam_s)
        tt = tmax[:, None] * np.linspace(0.0, 1.0, 17)[None, :]
        gg = np.abs(_g_of(kap_s[:, None], lam_s[:, None], tt))
        defect = float(np.max(gg) - phi0)
        collar.append((float(eps), defect))

    ratio = dom.ratio
    if dom.curve.corner_status == "concave-present":
        verdict = "inapplicable"
        notes.append("concave corners present")
    elif dom.curve.corners:
        verdict = "inapplicable"
        notes.append("corners present; the web criterion needs a C2 boundary")
    elif not dom.starshaped:
        verdict = "inapplicable"
        notes.append("not starshaped with respect to the origin")
    elif flag_i and phi0 >= ratio - dom.phi_slack:
        verdict = "ball"
    else:
        verdict = "hypotheses-not-met"
        if not flag_i:
            notes.append("curvature max not attained on gamma")
        if phi0 < ratio - dom.phi_slack:
            notes.append(f"phi(y0)={phi0:.6g} < ratio={ratio:.6g}")

    return PartialWebReport(
        flag_i=flag_i, flag_ii_prime=flag_iip, collar=tuple(collar),
        s_y0=float(y0.s), kappa_y0=float(k0), lambda_y0=float(lam0),
        phi_y0=phi0, ratio=float(ratio), verdict=verdict,
        note="; ".join(notes), samples_used=len(table))
