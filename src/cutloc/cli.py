"""Command-line orchestration: shape ingestion, pipeline runs, reports.

Subcommands: shapes | report | verify | mk | web.  JSON goes to stdout and,
with --out DIR, to files (CSV for per-sample or per-cell tables).  Exit
codes: 0 all checks passed, 1 some identity or hypothesis failed, 2 bad
configuration or shape parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .cutlocus import (cut_table, export_cut_csv, focal_check,
                       max_lambda_kappa)
from .distfield import GridSpec, build_distance_field, eikonal_max_deviation
from .errors import (ConfigurationError, ConstructionError, CutlocError,
                     FormulaOutOfScopeError, HypothesisViolationError,
                     InapplicableError, ShapeParseError)
from .fields import constant
from .integrals import (corner_sum, cov_residual, mean_value_residual,
                        minkowski_residual, minkowski_residual_corners,
                        perimeter, area)
from .mk import (complementarity_max, export_mk_csv, mk_verdict,
                 residual_summary, vf_field, weak_form_check)
from .shapes import SHAPE_SCHEMAS, from_spec, load_shape
from .symmetry import criterion_report, f_max_bruteforce
from .web import (flux_identity_residual, parse_operator, partial_web_report,
                  profile_checks, web_profile)

__all__ = ["RunConfig", "main"]


@dataclass
class RunConfig:
    shape: str
    samples: int = 2048
    grid_nx: int = 256
    grid_ny: int = 256
    tol: float = 1e-6
    out: Optional[str] = None
    formats: Tuple[str, ...] = ("csv", "json")

    def validate(self):
        if self.samples <= 0 or self.grid_nx <= 0 or self.grid_ny <= 0:
            raise ConfigurationError("sample and grid counts must be positive")
        if not (0.0 < self.tol < 1e-2):
            raise ConfigurationError("tol must lie in (0, 1e-2)")
        bad = set(self.formats) - {"csv", "json"}
        if bad:
            raise ConfigurationError(f"unknown output formats: {sorted(bad)}")


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


def _emit(doc, config, filename):
    text = render_json(doc) + "\n"
    sys.stdout.write(text)
    if config.out and "json" in config.formats:
        os.makedirs(config.out, exist_ok=True)
        with open(os.path.join(config.out, filename), "w") as fh:
            fh.write(text)


def _maybe_csv(config, write_fn, filename):
    if config.out and "csv" in config.formats:
        os.makedirs(config.out, exist_ok=True)
        write_fn(os.path.join(config.out, filename))


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


def _config_from(args):
    cfg = RunConfig(shape=args.shape, samples=args.samples,
                    grid_nx=args.grid_nx, grid_ny=args.grid_ny, tol=args.tol,
                    out=args.out,
                    formats=tuple(args.format.split(",")))
    cfg.validate()
    return cfg


# ------------------------------------------------------------- subcommands

def _point_dict(y):
    return {"s": float(y.s), "position": [float(y.position[0]),
                                          float(y.position[1])],
            "kappa": float(y.curvature)}


def _report_dict(rep):
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
        "diameter": rep.diameter,
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
    cfg = _config_from(args)
    curve = _load_curve(cfg.shape)
    table = cut_table(curve, n=cfg.samples, tol=cfg.tol * curve.extent)
    rep = criterion_report(curve, samples=cfg.samples, tol=cfg.tol,
                           table=table)
    kd = max_lambda_kappa(table)
    assertions = {
        "kappa_lambda_max": kd,
        "kappa_lambda_bound_ok": bool(kd <= 1.0 + 1e-6),
        "basic_bound_ok": bool(rep.corner_status == "concave-present"
                               or rep.basic_bound_max <= 0.5 + 1e-6),
    }
    doc = _report_dict(rep)
    doc["assertions"] = assertions
    _emit(doc, cfg, "report.json")
    _maybe_csv(cfg, lambda p: export_cut_csv(table, p), "samples.csv")
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
    cfg = _config_from(args)
    curve = _load_curve(cfg.shape)
    table = cut_table(curve, n=cfg.samples, tol=cfg.tol * curve.extent)
    corners = curve.detect_corners()
    concave = any(not c.convex for c in corners)
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
        field = build_distance_field(
            curve, grid=GridSpec.from_curve(curve, nx=cfg.grid_nx,
                                            ny=cfg.grid_ny))
        r = cov_residual(curve, constant(1.0), field)
        tol_chv = 3.0 * field.grid.h * perimeter(curve) / area(curve)
        records.append(_record("chv-grid",
                               "pass" if r.rel_residual <= tol_chv else "fail",
                               tolerance=tol_chv, grid_h=field.grid.h,
                               **_ireport_fields(r)))
        r = mean_value_residual(curve, n=max(cfg.samples, 1024))
        tol_mv = 1e-5 if not corners else 1e-3
        records.append(_record("mean-value",
                               "pass" if r.rel_residual <= tol_mv else "fail",
                               tolerance=tol_mv, **_ireport_fields(r)))

    kd = max_lambda_kappa(table)
    records.append(_record("kappa-lambda-bound",
                           "pass" if kd <= 1.0 + 1e-6 else "fail",
                           tolerance=1e-6, lhs=kd, rhs=1.0))

    if corners:
        records.append(_record("focal", "skipped",
                               reason="curvature argmax may sit at a corner"))
    else:
        fc = focal_check(curve, table=table)
        records.append(_record("focal",
                               "pass" if fc <= 1e-3 else "fail",
                               tolerance=1e-3, residual=fc))

    for n in (2, 3, 4):
        mx, _ = f_max_bruteforce(n)
        err = abs(mx - 1.0 / n)
        records.append(_record(f"f-max-n{n}",
                               "pass" if err <= 1e-4 else "fail",
                               tolerance=1e-4, value=mx, target=1.0 / n))

    _emit(records, cfg, "verify.json")
    failed = any(r["status"] == "fail" for r in records)
    return 1 if failed else 0


def cmd_mk(args):
    cfg = _config_from(args)
    if args.gamma <= 0.0:
        raise ConfigurationError("gamma must be positive")
    curve = _load_curve(cfg.shape)
    table = cut_table(curve, n=cfg.samples, tol=cfg.tol * curve.extent)
    grid = GridSpec.from_curve(curve, nx=cfg.grid_nx, ny=cfg.grid_ny)
    f = constant(args.gamma)
    sol = vf_field(curve, f=f, field=build_distance_field(curve, grid=grid),
                   table=table)
    med, mx, l1 = residual_summary(sol)
    rep, trace_err = mk_verdict(curve, gamma=args.gamma, samples=cfg.samples,
                                tol=cfg.tol, table=table)
    smooth = table.smooth()
    trace = args.gamma * table.phi[smooth]
    eik = eikonal_max_deviation(sol.field)
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
        "weak_form": weak_form_check(sol, f),
    }
    _emit(doc, cfg, "mk_summary.json")
    _maybe_csv(cfg, lambda p: export_mk_csv(sol, p), "mk_grid.csv")
    ok = (v_min >= -1e-10 and trace_err <= 1e-8 and eik <= 5.0 * grid.h
          and comp <= doc["complementarity_bound"] + 1e-12)
    return 0 if ok else 1


def cmd_web(args):
    cfg = _config_from(args)
    curve = _load_curve(cfg.shape)
    op = parse_operator(args.operator)
    gamma_arc = None
    if args.gamma_arc:
        parts = args.gamma_arc.split(",")
        if len(parts) != 2:
            raise ConfigurationError("--gamma-arc needs start,end arclengths")
        gamma_arc = (float(parts[0]), float(parts[1]))
    table = cut_table(curve, n=cfg.samples, tol=cfg.tol * curve.extent)
    rep = partial_web_report(curve, gamma_arc=gamma_arc, op=op, table=table)
    identity = None
    identity_status = "pass"
    try:
        identity = flux_identity_residual(curve, gamma_arc=gamma_arc, op=op,
                                          table=table)
        if identity > 1e-4:
            identity_status = "fail"
    except HypothesisViolationError as e:
        identity_status = "hypothesis-violation: " + str(e)
    except InapplicableError as e:
        identity_status = "skipped: " + str(e)
    prof = web_profile(op, rep.kappa_y0, rep.lambda_y0, origin_s=rep.s_y0)
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
        "flux_candidate_at_y0": rep.c_gamma,
        "hprime0": prof.hprime0,
        "identity_residual": identity,
        "identity_status": identity_status,
        "profile_checks": profile_checks(prof),
        "ratio": rep.ratio,
        "samples_used": rep.samples_used,
    }
    _emit(doc, cfg, "web.json")
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
