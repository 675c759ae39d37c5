import numpy as np
import pytest

from cutloc import (ConstructionError, HypothesisViolationError,
                    InapplicableError, InvalidRayError, OperatorRangeError,
                    flux_identity_residual, laplace, parse_operator,
                    partial_web_report, plap, profile_checks, web_profile)
from cutloc.web import DivergenceOperator, _g_of
from conftest import SPECS


def test_laplace_m_inverse_roundtrip():
    op = laplace()
    r = np.linspace(0.0, 4.0, 17)
    assert np.allclose(op.m_inverse(op.m(r)), r, atol=1e-11)


def test_plap_m_inverse_roundtrip():
    op = plap(4.0)
    r = np.linspace(0.0, 2.0, 17)
    assert np.allclose(op.m_inverse(op.m(r)), r, atol=1e-10)


def test_operator_range_error():
    op = laplace()
    assert op.m_inverse(1e9) == 1e9  # closed form: no bracket to outgrow
    assert op.m_inverse(0.0) == 0.0
    assert op.m_inverse(-1e-16) == 0.0  # numeric dust clamps to zero
    with pytest.raises(OperatorRangeError):
        op.m_inverse(-1e-3)


def test_parse_operator():
    assert parse_operator("laplace").name == "laplace"
    assert parse_operator("plap:4").name == "plap:4"
    with pytest.raises(ConstructionError):
        parse_operator("bilaplace")
    with pytest.raises(ConstructionError):
        parse_operator("plap:1.5")


def test_non_monotone_operator_rejected():
    # p < 2 is outside the family; past p = 180, m(r) = r^(p-1) rounds
    # to 0 at r = 1/64
    for p in (1.5, np.nan, np.inf, 181.0):
        with pytest.raises(ConstructionError):
            DivergenceOperator(p)


def test_disk_profile_laplace():
    prof = web_profile(laplace(), kappa=1.0, lam=1.0)
    assert prof.hprime0 == pytest.approx(-0.5, abs=1e-12)
    # u = (1 - |x|^2)/2 on the disk: h'(t) = -(1 - t)/2 along the ray
    expect = -(1.0 - prof.t) / 2
    assert np.max(np.abs(prof.hprime - expect)) <= 1e-12
    assert prof.flux0 == pytest.approx(-0.5, abs=1e-12)
    assert prof.flux[-1] == pytest.approx(0.0, abs=1e-12)


def test_disk_profile_plap4():
    prof = web_profile(plap(4.0), kappa=1.0, lam=1.0)
    assert prof.hprime0 == pytest.approx(-0.5 ** (1.0 / 3.0), abs=1e-10)
    # A(|h'|) h'(0) reproduces -phi, independently of the operator
    assert prof.hprime0 ** 3 == pytest.approx(-0.5, abs=1e-10)


def test_flat_ray_profile():
    # kappa = 0: flux F(t) = -(lam - t) and h' = F directly
    prof = web_profile(laplace(), kappa=0.0, lam=2.0)
    assert np.allclose(prof.hprime, -(2.0 - prof.t), atol=1e-12)
    assert np.allclose(prof.flux, -(2.0 - prof.t), atol=1e-12)


def test_profile_checks_consistency():
    for op in (laplace(), plap(3.0)):
        prof = web_profile(op, kappa=0.8, lam=1.0)
        checks = profile_checks(prof)
        assert checks["flux_end"] == pytest.approx(0.0, abs=1e-12)
        assert checks["antiderivative_max_err"] <= 1e-10
        assert checks["flux_law_max_err"] <= 1e-6


def test_invalid_rays_rejected():
    with pytest.raises(InvalidRayError):
        web_profile(laplace(), kappa=2.0, lam=1.0)  # kappa lam > 1
    with pytest.raises(InvalidRayError):
        web_profile(laplace(), kappa=1.0, lam=-0.5)


def test_identity_residual_disk(domains):
    assert flux_identity_residual(domains("circle")) <= 1e-10
    assert flux_identity_residual(domains("circle"), op=plap(4.0)) <= 1e-10


def test_identity_residual_ellipse_window(domains):
    res = flux_identity_residual(domains("ellipse"), gamma_arc=(-0.5, 0.5))
    assert res <= 1e-4


def test_identity_requires_argmax_inside_window(domains):
    with pytest.raises(HypothesisViolationError):
        flux_identity_residual(domains("ellipse"), gamma_arc=(1.9, 2.9))


def test_identity_needs_smooth_boundary(domains):
    with pytest.raises(InapplicableError):
        flux_identity_residual(domains("square"))


def test_partial_report_disk(domains):
    rep = partial_web_report(domains("circle"))
    assert rep.verdict == "ball"
    assert rep.flag_i and rep.flag_ii_prime
    assert rep.c_gamma == pytest.approx(0.5, abs=1e-6)
    for _, defect in rep.collar:
        assert abs(defect) <= 1e-6


def test_partial_report_ellipse_major_window(domains):
    rep = partial_web_report(domains("ellipse"), gamma_arc=(-0.5, 0.5))
    assert rep.flag_i
    assert not rep.flag_ii_prime
    assert rep.verdict == "hypotheses-not-met"
    # the collar defect equals max phi - phi(y0), independent of eps
    defects = [d for _, d in rep.collar]
    assert np.allclose(defects, 0.625, atol=1e-3)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_boundary_flux_is_the_tables_phi(tables, name):
    # c(y) = |g_y(0)| = phi(y): the partial web report reads its flux
    # candidates as the cut table's phi column
    table = tables(name)
    smooth = table.smooth()
    lam = table.lam[smooth]
    flux = np.abs(_g_of(table.kappa[smooth], lam, 0.0))
    assert np.all(np.abs(flux - table.phi[smooth]) <= 2 * np.spacing(lam))


def test_partial_report_square_inapplicable(domains):
    rep = partial_web_report(domains("square"))
    assert rep.verdict == "inapplicable"
