"""Command-line orchestration: shape ingestion, pipeline runs, reports.

Subcommands: shapes | report | verify | mk | web.  JSON goes to stdout and,
with --out DIR, to files (CSV for per-sample or per-cell tables).  Exit
codes: 0 all checks passed, 1 some identity or hypothesis failed, 2 bad
configuration or shape parse error.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from .cutlocus import (cut_table, export_cut_csv, focal_check,
                       max_lambda_kappa)
from .distfield import GridSpec, build_distance_field
from .domain import Domain
from .errors import (ConfigurationError, ConstructionError, CutlocError,
                     HypothesisViolationError, ShapeParseError)
from .fields import constant
from .integrals import (corner_sum, cov_residual, mean_value_residual,
                        minkowski_residual, minkowski_residual_corners)
from .mk import (complementarity_max, eikonal_max_deviation, export_mk_csv,
                 mk_verdict, residual_summary, vf_field, weak_form_check)
from .shapes import SHAPE_SCHEMAS, from_spec, load_shape
from .symmetry import criterion_report
from .web import (flux_identity_residual, parse_operator, partial_web_report,
                  profile_checks, web_profile)

__all__ = ["main", "MAX_SAMPLES", "MAX_GRID_SIDE"]

# Largest --samples and --grid-nx/--grid-ny, checked before any work.  They
# lie far above the defaults (2048 samples, a 256² grid) and every size the
# tests and the benchmark use; a 1024² grid holds about 0.3 GB of field and
# solution arrays, and 65 536 samples cost a ball pass of 2.7e8 pairs.
MAX_SAMPLES = 1 << 16
MAX_GRID_SIDE = 1 << 10


# ------------------------------------------------------- deterministic JSON

def render_json(obj, indent=0):
    """17-significant-digit, insertion-ordered JSON (byte deterministic)."""
    pad = "  " * indent
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        return "%.17g" % x if math.isfinite(x) else "null"
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = ",\n".join(pad + "  " + render_json(v, indent + 1)
                           for v in obj)
        return "[\n" + inner + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = ",\n".join(
            pad + "  " + json.dumps(str(k)) + ": " + render_json(v, indent + 1)
            for k, v in obj.items())
        return "{\n" + inner + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(doc, args, filename, csv=None):
    """Write the --out files, then the JSON to stdout.

    csv: optional (write_fn, filename) of the run's table.  A failed write
    is a ConfigurationError, raised before anything reaches stdout.
    """
    text = render_json(doc) + "\n"
    formats = args.format.split(",")
    try:
        if args.out and "json" in formats:
            with open(os.path.join(args.out, filename), "w") as fh:
                fh.write(text)
        if csv and args.out and "csv" in formats:
            csv[0](os.path.join(args.out, csv[1]))
    except OSError as e:
        raise ConfigurationError(
            f"cannot write to --out {args.out!r}: {e}") from e
    sys.stdout.write(text)


# ----------------------------------------------------------- shape loading

def _load_curve(spec_arg):
    if os.path.exists(spec_arg):
        return load_shape(spec_arg)
    text = spec_arg.strip()
    if text.startswith("{"):
        try:
            spec = json.loads(text)
        except json.JSONDecodeError as e:
            raise ShapeParseError(f"invalid inline shape JSON: {e.msg}",
                                  line=e.lineno, column=e.colno) from e
        return from_spec(spec)
    raise ShapeParseError(
        f"shape {spec_arg!r} is neither a file nor inline JSON")


def _curve_and_tol(args):
    """Load the shape; returns it with its absolute cut-value tolerance.

    --tol is relative to the curve's extent; the library's tolerances are
    absolute, and this is the one place the two meet.
    """
    curve = _load_curve(args.shape)
    return curve, args.tol * curve.extent


def _domain(args):
    """Load the shape and wrap its uniform cut table in a Domain."""
    curve, tol = _curve_and_tol(args)
    return Domain(cut_table(curve, n=args.samples, tol=tol))


def _check_common(args):
    """Validate the flags of _add_common; create --out."""
    if args.samples <= 0 or args.grid_nx <= 0 or args.grid_ny <= 0:
        raise ConfigurationError("sample and grid counts must be positive")
    if args.samples > MAX_SAMPLES:
        raise ConfigurationError(f"--samples must be at most {MAX_SAMPLES}")
    if max(args.grid_nx, args.grid_ny) > MAX_GRID_SIDE:
        raise ConfigurationError(
            f"--grid-nx and --grid-ny must be at most {MAX_GRID_SIDE}")
    if not (0.0 < args.tol < 1e-2):
        raise ConfigurationError("tol must lie in (0, 1e-2)")
    bad = set(args.format.split(",")) - {"csv", "json"}
    if bad:
        raise ConfigurationError(f"unknown output formats: {sorted(bad)}")
    if args.out:
        # before any work, so that a bad --out leaves stdout empty
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as e:
            raise ConfigurationError(
                f"--out {args.out!r} is not a usable directory: {e}") from e


# ------------------------------------------------------------- subcommands

def _point_dict(y):
    return {"s": float(y.s), "position": [float(y.position[0]),
                                          float(y.position[1])],
            "kappa": float(y.curvature)}


def _report_dict(rep, diameter):
    return {
        "verdict": rep.verdict,
        "y0": _point_dict(rep.y0),
        "H_max": rep.H_max,
        "phi_at_y0": rep.phi_at_y0,
        "lambda_at_y0": rep.lambda_at_y0,
        "ratio": rep.ratio,
        "hypothesis_H": rep.hypothesis_H,
        "hypothesis_phi": rep.hypothesis_phi,
        "phi_constancy": rep.phi_constancy,
        "basic_bound_max": rep.basic_bound_max,
        "corner_status": rep.corner_status,
        "starshaped": rep.starshaped,
        "note": rep.note,
        "diameter": diameter,
        "phi_slack": rep.phi_slack,
        "constancy_tol": rep.constancy_tol,
        "samples_used": rep.samples_used,
    }


def cmd_shapes(args):
    if args.name:
        if args.name not in SHAPE_SCHEMAS:
            raise ConfigurationError(
                f"unknown shape {args.name!r}; known: "
                + ", ".join(sorted(SHAPE_SCHEMAS)))
        doc = {args.name: SHAPE_SCHEMAS[args.name]}
    else:
        doc = {k: SHAPE_SCHEMAS[k] for k in sorted(SHAPE_SCHEMAS)}
    if args.json:
        sys.stdout.write(render_json(doc) + "\n")
    else:
        for name, schema in doc.items():
            sys.stdout.write(name + "\n")
            for key, desc in schema.items():
                sys.stdout.write(f"  {key}: {desc}\n")
    return 0


def cmd_report(args):
    _check_common(args)
    dom = _domain(args)
    table = dom.table
    rep = criterion_report(dom)
    kd = max_lambda_kappa(table)
    assertions = {
        "kappa_lambda_max": kd,
        "kappa_lambda_bound_ok": bool(kd <= 1.0 + 1e-6),
        "basic_bound_ok": bool(rep.corner_status == "concave-present"
                               or rep.basic_bound_max <= 0.5 + 1e-6),
    }
    doc = _report_dict(rep, dom.diameter)
    doc["assertions"] = assertions
    _emit(doc, args, "report.json",
          csv=(lambda p: export_cut_csv(table, p), "samples.csv"))
    ok = assertions["kappa_lambda_bound_ok"] and assertions["basic_bound_ok"]
    return 0 if ok else 1


def _record(name, status, tolerance=None, **extra):
    rec = {"name": name, "status": status}
    if tolerance is not None:
        rec["tolerance"] = tolerance
    rec.update(extra)
    return rec


def _ireport_fields(r):
    return {"lhs": r.lhs, "rhs": r.rhs, "abs_residual": r.abs_residual,
            "rel_residual": r.rel_residual, "samples_used": r.samples_used}


def cmd_verify(args):
    """The identity suite, on one cut table: the midpoint table that the
    ray integrals need, which also seeds y0 and carries kappa*lambda."""
    _check_common(args)
    curve, tol = _curve_and_tol(args)
    dom = Domain.at_midpoints(curve, args.samples, tol)
    corners = curve.corners
    concave = curve.corner_status == "concave-present"
    records = []

    if corners:
        records.append(_record("minkowski-smooth", "skipped",
                               reason="curve has corners"))
    else:
        r = minkowski_residual(curve)
        records.append(_record("minkowski-smooth",
                               "pass" if r.rel_residual <= 1e-6 else "fail",
                               tolerance=1e-6, **_ireport_fields(r)))
    if concave:
        records.append(_record("minkowski-cornered", "out-of-scope",
                               reason="concave corner present"))
    else:
        r = minkowski_residual_corners(curve)
        tol_c = 1e-6
        records.append(_record("minkowski-cornered",
                               "pass" if r.rel_residual <= tol_c else "fail",
                               tolerance=tol_c, corner_sum=corner_sum(curve),
                               **_ireport_fields(r)))

    if concave:
        records.append(_record("chv-grid", "skipped",
                               reason="concave corner present"))
        records.append(_record("mean-value", "skipped",
                               reason="concave corner present"))
    else:
        grid = GridSpec.from_curve(curve, nx=args.grid_nx, ny=args.grid_ny)
        r = cov_residual(dom, constant(1.0), grid)
        tol_chv = 3.0 * grid.h * curve.length / dom.area
        records.append(_record("chv-grid",
                               "pass" if r.rel_residual <= tol_chv else "fail",
                               tolerance=tol_chv, grid_h=grid.h,
                               **_ireport_fields(r)))
        r = mean_value_residual(dom)
        tol_mv = 1e-5 if not corners else 1e-3
        records.append(_record("mean-value",
                               "pass" if r.rel_residual <= tol_mv else "fail",
                               tolerance=tol_mv, **_ireport_fields(r)))

    kd = max_lambda_kappa(dom.table)
    records.append(_record("kappa-lambda-bound",
                           "pass" if kd <= 1.0 + 1e-6 else "fail",
                           tolerance=1e-6, lhs=kd, rhs=1.0))

    if corners:
        records.append(_record("focal", "skipped",
                               reason="curvature argmax may sit at a corner"))
    else:
        fc = focal_check(dom)
        records.append(_record("focal",
                               "pass" if fc <= 1e-3 else "fail",
                               tolerance=1e-3, residual=fc))

    _emit(records, args, "verify.json")
    failed = any(r["status"] == "fail" for r in records)
    return 1 if failed else 0


def cmd_mk(args):
    _check_common(args)
    if not (0.0 < args.gamma < math.inf):
        raise ConfigurationError("gamma must be positive and finite")
    dom = _domain(args)
    grid = GridSpec.from_curve(dom.curve, nx=args.grid_nx, ny=args.grid_ny)
    f = constant(args.gamma)
    sol = vf_field(dom, build_distance_field(dom, grid), f=f)
    med, mx, l1 = residual_summary(sol)
    rep, trace_err = mk_verdict(dom, gamma=args.gamma)
    table = dom.table
    trace = args.gamma * table.phi[table.smooth()]
    eik = eikonal_max_deviation(sol)
    comp = complementarity_max(sol)
    v_min = float(np.min(sol.v))
    doc = {
        "verdict": rep.verdict,
        "note": rep.note,
        "gamma": float(args.gamma),
        "grid": {"nx": grid.nx, "ny": grid.ny, "h": grid.h},
        "residual": {"median": med, "max": mx, "l1": l1,
                     "valid_cells": int(np.sum(sol.valid))},
        "boundary_trace": {"min": float(np.min(trace)),
                           "max": float(np.max(trace)),
                           "mean": float(np.mean(trace)),
                           "max_quadrature_deviation": trace_err},
        "v_min": v_min,
        "eikonal_max_deviation": eik,
        "complementarity_max": comp,
        "complementarity_bound": 5.0 * grid.h * float(np.max(sol.v)),
        "weak_form": weak_form_check(sol),
    }
    _emit(doc, args, "mk_summary.json",
          csv=(lambda p: export_mk_csv(sol, p), "mk_grid.csv"))
    ok = (v_min >= -1e-10 and trace_err <= 1e-8 and eik <= 5.0 * grid.h
          and comp <= doc["complementarity_bound"] + 1e-12)
    return 0 if ok else 1


def cmd_web(args):
    _check_common(args)
    op = parse_operator(args.operator)
    gamma_arc = None
    if args.gamma_arc:
        try:
            gamma_arc = tuple(float(x) for x in args.gamma_arc.split(","))
        except ValueError:
            gamma_arc = ()
        if len(gamma_arc) != 2 or not all(map(math.isfinite, gamma_arc)):
            raise ConfigurationError(
                "--gamma-arc needs two finite start,end arclengths")
    dom = _domain(args)
    rep = partial_web_report(dom, gamma_arc=gamma_arc)
    identity = None
    identity_status = "pass"
    if dom.curve.corners:
        identity_status = "skipped: identity requires a smooth boundary"
    else:
        try:
            identity = flux_identity_residual(dom, gamma_arc=gamma_arc, op=op)
            if identity > 1e-4:
                identity_status = "fail"
        except HypothesisViolationError as e:
            identity_status = "hypothesis-violation: " + str(e)
    prof = web_profile(op, rep.kappa_y0, rep.lambda_y0)
    doc = {
        "operator": op.name,
        "gamma_arc": list(gamma_arc) if gamma_arc else None,
        "verdict": rep.verdict,
        "note": rep.note,
        "flag_curvature_max_on_gamma": rep.flag_i,
        "flag_flux_max_on_gamma": rep.flag_ii_prime,
        "collar_defects": [{"eps": e, "defect": d} for e, d in rep.collar],
        "y0": {"s": rep.s_y0, "kappa": rep.kappa_y0,
               "lambda": rep.lambda_y0, "phi": rep.phi_y0},
        "flux_candidate_at_y0": rep.phi_y0,
        "hprime0": prof.hprime0,
        "identity_residual": identity,
        "identity_status": identity_status,
        "profile_checks": profile_checks(prof),
        "ratio": rep.ratio,
        "samples_used": rep.samples_used,
    }
    _emit(doc, args, "web.json")
    return 0 if identity_status == "pass" else 1


# ------------------------------------------------------------------ parser

def _add_common(p):
    p.add_argument("--shape", required=True,
                   help="shape JSON file (or inline JSON object)")
    p.add_argument("--samples", type=int, default=2048)
    p.add_argument("--grid-nx", type=int, default=256, dest="grid_nx")
    p.add_argument("--grid-ny", type=int, default=256, dest="grid_ny")
    p.add_argument("--tol", type=float, default=1e-6,
                   help="relative cut-value tolerance")
    p.add_argument("--out", default=None, help="output directory")
    p.add_argument("--format", default="csv,json",
                   help="comma-separated output kinds for --out")


def _parser():
    p = argparse.ArgumentParser(
        prog="cutloc",
        description="Cut values, criterion function, integral identities, "
                    "and ball-characterization verdicts for planar domains.")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("shapes", help="list built-in shapes and schemas")
    ps.add_argument("name", nargs="?", default=None)
    ps.add_argument("--json", action="store_true")
    ps.set_defaults(func=cmd_shapes)

    pr = sub.add_parser("report", help="symmetry criterion report")
    _add_common(pr)
    pr.set_defaults(func=cmd_report)

    pv = sub.add_parser("verify", help="integral identity suite")
    _add_common(pv)
    pv.set_defaults(func=cmd_verify)

    pm = sub.add_parser("mk", help="grid transport solution and residuals")
    _add_common(pm)
    pm.add_argument("--gamma", type=float, default=1.0,
                    help="constant source value")
    pm.set_defaults(func=cmd_mk)

    pw = sub.add_parser("web", help="ray profile identity and hypotheses")
    _add_common(pw)
    pw.add_argument("--operator", default="laplace",
                    help="laplace or plap:p")
    pw.add_argument("--gamma-arc", default=None, dest="gamma_arc",
                    help="arclength window start,end")
    pw.set_defaults(func=cmd_web)
    return p


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        code = e.code if e.code is not None else 0
        return int(code) if not isinstance(code, str) else 2
    try:
        return args.func(args)
    except ShapeParseError as e:
        loc = ""
        if getattr(e, "line", None) is not None:
            loc = f" (line {e.line}, column {e.column})"
        print(f"error: {e}{loc}", file=sys.stderr)
        return 2
    except (ConfigurationError, ConstructionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except CutlocError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
