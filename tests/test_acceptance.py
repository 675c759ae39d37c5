"""Acceptance suite: one test (and one pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py`; each criterion prints a
summary line with the measured numbers next to its pinned tolerance.
"""

import json
import time

import numpy as np

from conftest import f_max_bruteforce, grid_with_h, transformed
from cutloc import (Domain, ScalarField, complementarity_max, constant,
                    criterion_report, cut_table, flux_identity_residual,
                    laplace, max_lambda_kappa, mean_value_residual,
                    minkowski_residual, minkowski_residual_corners, mk_verdict,
                    plap, residual_summary, vf_field, web_profile)
from cutloc.cli import main as cli_main
from cutloc.integrals import corner_sum, cov_residual
from grid_oracle import grid_cut_values
from vf_reference import vf_boundary

SMOOTH = ("circle", "ellipse", "superellipse", "fourier")
NO_CONCAVE = ("circle", "circle_small", "circle_big", "ellipse",
              "superellipse", "square", "rounded", "stadium", "fourier")
ALL_SHAPES = NO_CONCAVE + ("union",)


def _line(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_01_ball_forward(curves):
    worst_phi = worst_ratio = worst_time = 0.0
    ok = True
    for name, radius in (("circle_small", 0.5), ("circle", 1.0),
                         ("circle_big", 3.0)):
        curve = curves(name)
        t0 = time.perf_counter()
        table = cut_table(curve, n=2048)
        rep = criterion_report(Domain(table))
        dt = time.perf_counter() - t0
        phi_err = float(np.max(np.abs(table.phi - radius / 2)))
        ratio_err = abs(rep.ratio - radius / 2)
        ok &= phi_err <= 1e-6 and ratio_err <= 1e-8
        ok &= rep.verdict == "ball" and dt <= 1.0
        worst_phi = max(worst_phi, phi_err)
        worst_ratio = max(worst_ratio, ratio_err)
        worst_time = max(worst_time, dt)
    _line(1, ok, f"circles R in {{0.5,1,3}}: max|phi - R/2| = {worst_phi:.2e}"
          f" (<=1e-6), max|ratio - R/2| = {worst_ratio:.2e} (<=1e-8), "
          f"verdict ball, worst runtime {worst_time:.2f}s (<=1s)")


def test_criterion_02_ellipse_rejection(domains, tables):
    table = tables("ellipse")
    rep = criterion_report(domains("ellipse"))
    phi_min, phi_max = float(np.min(table.phi)), float(np.max(table.phi))
    ok = (abs(rep.phi_at_y0 - 0.25) <= 1e-3
          and abs(rep.ratio - 0.6485) <= 1e-3
          and rep.verdict == "hypotheses-not-met"
          and abs(phi_min - 0.25) <= 1e-3 and abs(phi_max - 0.875) <= 1e-3)
    _line(2, ok, f"ellipse(2,1): phi(y0) = {rep.phi_at_y0:.5f} (0.25+-1e-3), "
          f"ratio = {rep.ratio:.5f} (0.6485+-1e-3), verdict {rep.verdict}, "
          f"phi range [{phi_min:.4f}, {phi_max:.4f}] ([0.25, 0.875]+-1e-3)")


def test_criterion_03_basic_bound(tables):
    worst = 0.0
    worst_eq = 0.0
    hits = 0
    ok = True
    for name in NO_CONCAVE:
        table = tables(name)
        smooth = table.smooth()
        bound = table.phi[smooth] * table.kappa[smooth]
        ok &= float(np.max(bound)) <= 0.5 + 1e-6
        worst = max(worst, float(np.max(bound)))
        at_focal = smooth & (np.abs(table.lambda_kappa - 1.0) <= 1e-6)
        if np.any(at_focal):
            hits += int(np.sum(at_focal))
            eq = float(np.max(np.abs(table.phi[at_focal]
                                     * table.kappa[at_focal] - 0.5)))
            ok &= eq <= 1e-6
            worst_eq = max(worst_eq, eq)
    ok &= hits > 0
    _line(3, ok, f"max phi*H = {worst:.9f} (<=0.5+1e-6) over "
          f"{len(NO_CONCAVE)} shapes; |phi*H - 1/2| = {worst_eq:.2e} "
          f"(<=1e-6) at {hits} samples with kappa*lambda = 1+-1e-6")


def test_criterion_04_f_max():
    ok = True
    parts = []
    for n in (2, 3, 4):
        mx, arg = f_max_bruteforce(n)
        err = abs(mx - 1.0 / n)
        near_ones = bool(np.max(np.abs(np.asarray(arg) - 1.0)) <= 0.05)
        ok &= mx <= 1.0 / n + 1e-9 and err <= 1e-4 and near_ones
        parts.append(f"n={n}: |max - 1/n| = {err:.1e}")
    _line(4, ok, "; ".join(parts)
          + " (<=1e-4, max <= 1/n + 1e-9, argmax near all-ones)")


def test_criterion_05_minkowski(curves):
    ok = True
    worst_smooth = 0.0
    for name in SMOOTH:
        r = minkowski_residual(curves(name))
        worst_smooth = max(worst_smooth, r.rel_residual)
    ok &= worst_smooth <= 1e-6
    sq = curves("square")
    r_sq = minkowski_residual_corners(sq)
    csum = corner_sum(sq)
    smooth_part = r_sq.lhs + csum
    ok &= abs(smooth_part) <= 1e-10 and abs(csum + 8.0) <= 1e-10
    ok &= r_sq.abs_residual <= 1e-10
    c1_worst = max(abs(corner_sum(curves("stadium"))),
                   abs(corner_sum(curves("rounded"))))
    ok &= c1_worst <= 1e-10
    _line(5, ok, f"smooth rel residual {worst_smooth:.1e} (<=1e-6); square: "
          f"curvature integral {smooth_part:.1e} (0), corner sum {csum:.12f} "
          f"(-8), identity residual {r_sq.abs_residual:.1e} (<=1e-10); "
          f"C1 corner terms {c1_worst:.1e} (<=1e-10)")


def test_criterion_06_change_of_variables(curves, domains):
    ok = True
    parts = []
    for name in ("circle", "ellipse"):
        for fname, f in (("1", constant(1.0)),
                         ("|x|^2", ScalarField(((2, 0, 1.0), (0, 2, 1.0))))):
            r64 = cov_residual(domains(name), f,
                               grid_with_h(curves(name), 1 / 64))
            r128 = cov_residual(domains(name), f,
                                grid_with_h(curves(name), 1 / 128))
            ratio = r128.abs_residual / max(r64.abs_residual, 1e-300)
            # superconvergence on symmetry-aligned grids beats the nominal
            # first-order model; require at least the promised improvement
            ok &= r64.rel_residual <= 2e-2 and ratio <= 0.6
            parts.append(f"{name}/{fname}: rel {r64.rel_residual:.1e} "
                         f"ratio {ratio:.2f}")
    worst_mv = 0.0
    for name in SMOOTH:
        r = mean_value_residual(domains(name))
        worst_mv = max(worst_mv, r.rel_residual)
    ok &= worst_mv <= 1e-5
    _line(6, ok, "; ".join(parts)
          + f" (rel<=2e-2 at h=1/64, refinement ratio <=0.6); "
          f"mean-value residual {worst_mv:.1e} (<=1e-5)")


def test_criterion_07_lemmas(curves, tables):
    worst_kd = 0.0
    ok = True
    for name in ALL_SHAPES:
        kd = max_lambda_kappa(tables(name))
        worst_kd = max(worst_kd, kd)
    ok &= worst_kd <= 1.0 + 1e-6
    worst_focal = 0.0
    for name in SMOOTH:
        table = tables(name)
        smooth = table.smooth()
        i = np.flatnonzero(smooth)[np.argmax(table.kappa[smooth])]
        focal = abs(table.lambda_kappa[i] - 1.0)
        worst_focal = max(worst_focal, focal)
    ok &= worst_focal <= 1e-3
    _line(7, ok, f"max kappa*lambda = {worst_kd:.9f} (<=1+1e-6) over "
          f"{len(ALL_SHAPES)} shapes; |kappa*lambda - 1| at argmax kappa = "
          f"{worst_focal:.1e} (<=1e-3) on smooth shapes")


def test_criterion_08_monge_kantorovich(curves, domains, tables, fields):
    ok = True
    l1s = []
    v_err_detail = ""
    for h in (1 / 32, 1 / 64, 1 / 128):
        sol = vf_field(domains("circle"), fields("circle", h))
        grid = sol.grid
        xs, ys = np.meshgrid(grid.xs, grid.ys)
        rr = np.hypot(xs, ys)
        mask = sol.inside & ~sol.singular
        v_err = float(np.max(np.abs(sol.v - rr / 2)[mask]))
        ok &= v_err <= 3 * h
        med, _, l1 = residual_summary(sol)
        l1s.append(l1)
        if h == 1 / 128:
            ok &= med <= 0.05
            comp = complementarity_max(sol)
            comp_cap = 5 * h * float(np.max(sol.v))
            ok &= comp <= comp_cap
            v_err_detail = (f"max|v - |x|/2| = {v_err:.1e} (<=3h = "
                            f"{3 * h:.1e}), residual median {med:.3f} "
                            f"(<=0.05), complementarity {comp:.1e} "
                            f"(<= {comp_cap:.1e})")
    ok &= l1s[0] > l1s[1] > l1s[2]
    trace = vf_boundary(domains("circle"), 0.0)
    ok &= abs(trace.value - 0.5) <= 1e-6
    rep_d, _ = mk_verdict(domains("circle"))
    rep_e, _ = mk_verdict(domains("ellipse"))
    rep_u, _ = mk_verdict(domains("union"))
    ok &= (rep_d.verdict == "ball"
           and rep_e.verdict == "hypotheses-not-met"
           and rep_u.verdict == "inapplicable" and "constant" in rep_u.note)
    ut = tables("union")
    keep = ut.smooth()
    s_corners = curves("union").corner_arclengths()
    d = np.abs(ut.s[:, None] - s_corners[None, :]) % curves("union").length
    d = np.minimum(d, curves("union").length - d)
    keep &= np.min(d, axis=1) > 5.0 * ut.accept
    ok &= bool(np.all(np.abs(ut.lam[keep] - 2.0) <= 1e-3)
               and np.all(np.abs(ut.kappa[keep] - 0.5) <= 1e-3)
               and np.all(np.abs(ut.phi[keep] - 1.0) <= 1e-3))
    _line(8, ok, v_err_detail + f", trace err {abs(trace.value - 0.5):.1e} "
          f"(<=1e-6), L1 {l1s[0]:.2e} > {l1s[1]:.2e} > {l1s[2]:.2e}, "
          f"verdicts ball/hypotheses-not-met/inapplicable, union "
          f"(lam, kappa, phi) = (2, 1/2, 1) +- 1e-3 on the smooth part")


def test_criterion_09_web_identity(domains):
    disk = domains("circle")
    res_lap = flux_identity_residual(disk)
    prof_lap = web_profile(laplace(), kappa=1.0, lam=1.0)
    res_p4 = flux_identity_residual(disk, op=plap(4.0))
    prof_p4 = web_profile(plap(4.0), kappa=1.0, lam=1.0)
    res_ell = flux_identity_residual(domains("ellipse"),
                                     gamma_arc=(-0.5, 0.5))
    ok = (res_lap <= 1e-10
          and abs(prof_lap.hprime0 + 0.5) <= 1e-10
          and res_p4 <= 1e-10
          and abs(prof_p4.hprime0 + 0.5 ** (1 / 3)) <= 1e-10
          and abs(prof_p4.hprime0 ** 3 + 0.5) <= 1e-10
          and res_ell <= 1e-4
          and abs(prof_lap.flux[-1]) <= 1e-10
          and abs(prof_p4.flux[-1]) <= 1e-10)
    _line(9, ok, f"disk laplace residual {res_lap:.1e} (<=1e-10), h'(0) = "
          f"{prof_lap.hprime0:.12f} (-1/2); plap:4 h'(0) = "
          f"{prof_p4.hprime0:.12f} (-(1/2)^(1/3)+-1e-10), h'(0)^3 = "
          f"{prof_p4.hprime0 ** 3:.12f} (-phi); ellipse window residual "
          f"{res_ell:.1e} (<=1e-4); focal F(lambda) = "
          f"{abs(prof_lap.flux[-1]):.1e} (<=1e-10)")


def test_criterion_10_projector_cross_validation(curves, fields):
    h = 1 / 128
    worst = 0.0
    worst_name = ""
    ok = True
    for name in ("circle", "ellipse", "superellipse", "square", "rounded",
                 "stadium", "union", "fourier"):
        curve = curves(name)
        exact = cut_table(curve, n=256)
        approx = grid_cut_values(exact, fields(name, h))
        err = float(np.max(np.abs(exact.lam - approx)))
        ok &= err <= 5 * h
        if err > worst:
            worst, worst_name = err, name
    _line(10, ok, f"exact vs grid-projected cut values on 8 shapes: worst "
          f"max|dlam| = {worst:.2e} ({worst_name}) <= 5h = {5 * h:.2e}")


def test_criterion_11_property_suite(curves, capsys):
    base = curves("ellipse")
    big = transformed(base, scale=2.0)
    t0 = cut_table(base, n=512)
    t1 = cut_table(big, n=512)
    rel = 0.0
    for a, b in ((2 * t0.lam, t1.lam), (t0.kappa / 2, t1.kappa),
                 (2 * t0.phi, t1.phi)):
        denom = np.maximum(np.abs(b), 1e-300)
        rel = max(rel, float(np.max(np.abs(a - b) / denom)))
    ok = rel <= 1e-8
    rep0 = criterion_report(Domain(t0))
    rep1 = criterion_report(Domain(t1))
    rep2 = criterion_report(
        Domain(cut_table(transformed(base, rotation=0.7), n=512)))
    ok &= rep0.verdict == rep1.verdict == rep2.verdict
    rep3 = criterion_report(
        Domain(cut_table(transformed(curves("circle"), rotation=1.1),
                         n=512)))
    ok &= rep3.verdict == "ball"
    argv = ["report", "--shape", '{"type": "ellipse", "a": 2.0, "b": 1.0}',
            "--samples", "256"]
    cli_main(argv)
    first = capsys.readouterr().out
    cli_main(argv)
    second = capsys.readouterr().out
    ok &= first == second and len(first) > 0
    json.loads(first)
    _line(11, ok, f"dilation covariance rel err {rel:.1e} (<=1e-8); verdict "
          f"invariant under dilation/rotation; JSON output byte-identical "
          f"across runs ({len(first)} bytes)")
