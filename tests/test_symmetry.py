from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest

from conftest import f_max_bruteforce, f_value
from cutloc import (ConfigurationError, Domain, criterion_report, cut_table,
                    from_spec, partial_web_report)
from cutloc.symmetry import diameter


def test_f_value_at_all_ones():
    for n in (2, 3, 4):
        x = np.ones(n - 1)
        assert f_value(x) == pytest.approx(1.0 / n, abs=1e-12)


def test_f_value_vanishes_on_face():
    # sum x_j = 0 kills the leading factor
    assert f_value(np.array([1.0, -1.0])) == pytest.approx(0.0, abs=1e-12)


def test_f_max_bruteforce():
    for n in (2, 3, 4):
        mx, arg = f_max_bruteforce(n)
        assert mx <= 1.0 / n + 1e-9
        assert mx == pytest.approx(1.0 / n, abs=1e-4)
        assert np.allclose(arg, 1.0, atol=0.05)


def test_circle_verdict(domains):
    rep = criterion_report(domains("circle"))
    assert rep.verdict == "ball"
    assert rep.H_max == pytest.approx(1.0, abs=1e-9)
    assert rep.phi_at_y0 == pytest.approx(0.5, abs=1e-6)
    assert rep.ratio == pytest.approx(0.5, abs=1e-8)
    assert rep.basic_bound_max <= 0.5 + 1e-6
    assert rep.corner_status == "none"
    assert rep.starshaped


def test_ellipse_verdict(domains):
    rep = criterion_report(domains("ellipse"))
    assert rep.verdict == "hypotheses-not-met"
    assert np.allclose(rep.y0.position, [2.0, 0.0], atol=1e-3)
    assert rep.phi_at_y0 == pytest.approx(0.25, abs=1e-3)
    assert rep.ratio == pytest.approx(0.6485, abs=1e-3)
    assert rep.hypothesis_H
    assert not rep.hypothesis_phi
    assert "phi" in rep.note


def test_slender_ellipse_is_not_a_ball(domains):
    # 1e-4 * diameter (1.0) exceeds |Omega|/|boundary| (0.785): a slack
    # scaled by the diameter would let any phi(y0) pass, in the criterion
    # report and in the partial web report alike
    curve = from_spec({"type": "ellipse", "a": 5000.0, "b": 1.0})
    dom = Domain(cut_table(curve, n=256))
    rep = criterion_report(dom)
    assert not rep.hypothesis_phi
    assert rep.verdict == "hypotheses-not-met"
    assert rep.phi_slack == pytest.approx(1e-4 * rep.ratio, rel=1e-12)
    assert partial_web_report(dom).verdict == "hypotheses-not-met"
    assert criterion_report(domains("circle")).verdict == "ball"
    assert partial_web_report(domains("circle")).verdict == "ball"


def test_square_verdict(domains):
    rep = criterion_report(domains("square"))
    assert rep.corner_status == "convex-only"
    assert rep.verdict == "hypotheses-not-met"


def test_union_verdict_counterexample(domains):
    rep = criterion_report(domains("union"))
    assert rep.verdict == "inapplicable"
    assert rep.corner_status == "concave-present"
    assert rep.phi_constancy <= 1e-3
    assert "constant" in rep.note


def test_displaced_circle_not_starshaped():
    from cutloc import from_spec
    curve = from_spec({"type": "circle", "radius": 1.0, "center": [2.0, 0.0]})
    rep = criterion_report(Domain(cut_table(curve, n=512)))
    assert not rep.starshaped
    assert rep.verdict == "inapplicable"
    assert "starshaped" in rep.note


def test_too_few_samples_rejected(curves):
    with pytest.raises(ConfigurationError):
        criterion_report(Domain(cut_table(curves("circle"), n=32)))


def _diameter_all_pairs(curve, n=1024):
    """Reference: the dense n x n x 2 all-pairs maximum."""
    pts = curve.winding_polygon(n)
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    return float(np.sqrt(np.max(d2)))


def test_diameter(curves):
    assert diameter(curves("circle")) == pytest.approx(2.0, rel=1e-4)
    assert diameter(curves("ellipse")) == pytest.approx(4.0, rel=1e-4)
    polygon = from_spec({"type": "rounded_polygon", "sides": 96,
                         "side_length": 0.2, "corner_radius": 0.05})
    shapes = [curves(name) for name in
              ("circle", "circle_small", "circle_big", "ellipse",
               "superellipse", "square", "rounded", "stadium", "union",
               "fourier")] + [polygon]
    # the hull and its antipodal pairs change with the sampling: both n
    for curve in shapes:
        assert diameter(curve) == _diameter_all_pairs(curve)
        assert diameter(curve, n=256) == _diameter_all_pairs(curve, n=256)


# ------------------------------------------- the paper's inequality chain

# relative slack of the pointwise inequality chain
_CHAIN_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class ChainCheck:
    s: np.ndarray
    term_ratio_H: np.ndarray   # ratio * H(y) per smooth sample
    ratio_H_y0: float          # ratio * H(y0)
    phi_H_y0: float            # phi(y0) * H(y0)
    bound: float               # 1/2
    link1_ok: bool             # ratio H(y) <= ratio H(y0) at every sample
    link2_ok: bool             # ratio H(y0) <= phi(y0) H(y0)
    link3_ok: bool             # phi(y0) H(y0) <= 1/2 + tol
    first_failure: Optional[str]
    tol: float


def inequality_chain_check(dom):
    """Pointwise chain ratio H(y) <= ratio H(y0) <= phi(y0) H(y0) <= 1/2,
    each link with relative slack _CHAIN_TOL."""
    report = criterion_report(dom)
    table = dom.table
    smooth = table.smooth()
    slack = _CHAIN_TOL * max(1.0, abs(report.H_max)) * max(1.0, report.ratio)
    t1 = report.ratio * table.kappa[smooth]
    t2 = report.ratio * report.H_max
    t3 = report.phi_at_y0 * report.H_max
    link1 = bool(np.all(t1 <= t2 + slack))
    link2 = bool(t2 <= t3 + slack)
    link3 = bool(t3 <= 0.5 + max(_CHAIN_TOL, report.phi_slack * report.H_max))
    first = None
    if not link1:
        first = "curvature max exceeded at a sample"
    elif not link2:
        first = "phi(y0) below ratio"
    elif not link3:
        first = "basic bound exceeded at y0"
    return ChainCheck(s=table.s[smooth], term_ratio_H=t1, ratio_H_y0=float(t2),
                      phi_H_y0=float(t3), bound=0.5, link1_ok=link1,
                      link2_ok=link2, link3_ok=link3, first_failure=first,
                      tol=_CHAIN_TOL)


def test_chain_on_circle(domains):
    chk = inequality_chain_check(domains("circle"))
    assert chk.first_failure is None
    assert chk.link1_ok and chk.link2_ok and chk.link3_ok
    assert chk.phi_H_y0 <= chk.bound + 1e-9
    # all three chain quantities coincide on the ball
    assert np.allclose(chk.term_ratio_H, chk.phi_H_y0, atol=1e-6)


def test_chain_on_ellipse(domains):
    chk = inequality_chain_check(domains("ellipse"))
    # the phi(y0) >= ratio link is what breaks for the ellipse
    assert chk.first_failure == "phi(y0) below ratio"
