"""The benchmark's workloads: fixed lists of ``cutloc`` invocations.

Each invocation carries the outcome the program must produce on it, which
``oracles.py`` checks.  Only the ``boundary`` workload depends on the seed,
through its Fourier shape; the other shapes are fixed, because their cut
values have closed forms.

Grids are smaller than the CLI default (256x256) and boundary samplings
no larger than its 2048 samples, so that a measured run of the benchmark
holds several passes; the code paths are the ones the defaults take.
"""

import json
import random

CIRCLE = {"type": "circle", "radius": 1.0}
ELLIPSE = {"type": "ellipse", "a": 2.0, "b": 1.0}
SQUARE = {"type": "square", "side": 2.0}
STADIUM = {"type": "stadium", "cap_radius": 1.0, "straight_length": 2.0}
UNION = {"type": "union_disks", "radius": 2.0, "half_distance": 1.0}
POLYGON = {"type": "rounded_polygon", "sides": 96, "side_length": 0.2,
           "corner_radius": 0.05}

# Fourier modes drawn for the seeded shape, and the bound on
# sum_k (1 + k^2) (|a_k| + |b_k|).  With a0 = 1 that sum bounds
# |r - 1| + |r''|, and keeping it below 1 keeps r > 0 (starshaped about the
# origin) and r^2 + 2 r'^2 - r r'' > 0 (convex).
FOURIER_MODES = (2, 3, 4, 5)
FOURIER_BOUND = 0.4

BOUNDARY_SAMPLES = ["--samples", "384"]
GRID_SIZE = ["--samples", "512", "--grid-nx", "96", "--grid-ny", "96"]
# verify's mean-value table has max(samples, 1024) samples and its
# change-of-variables table 2048 whatever --samples says; at 2048 the two
# are the identical tables a shared analysis context would build once.
VERIFY_SIZE = ["--samples", "2048", "--grid-nx", "96", "--grid-ny", "96"]

# Subcommand exit codes the program documents: 0 all checks pass, 1 a check
# failed.  ``web`` exits 1 on cornered shapes only because its flux identity
# is skipped there, which is the expected outcome, not a failure.
_BALL = "ball"
_NOT_MET = "hypotheses-not-met"
_INAPPLICABLE = "inapplicable"


def fourier_shape(seed):
    """Convex, starshaped Fourier shape whose coefficients come from seed."""
    rng = random.Random(seed)
    raw = {k: (rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
           for k in FOURIER_MODES}
    weight = sum((1 + k * k) * (abs(a) + abs(b)) for k, (a, b) in raw.items())
    scale = FOURIER_BOUND * rng.uniform(0.5, 1.0) / weight
    top = max(FOURIER_MODES)
    cos = [0.0] * top
    sin = [0.0] * top
    for k, (a, b) in raw.items():
        # rounding moves a coefficient by <= 5e-7, far inside the margin to 1
        cos[k - 1] = round(a * scale, 6)
        sin[k - 1] = round(b * scale, 6)
    return {"type": "fourier", "a0": 1.0, "cos": cos, "sin": sin}


def _lam_const(value):
    return lambda doc_y0: value


def _lam_square(y0):
    # y0's arclength s runs from the corner (-1, -1) along sides of length 2;
    # the cut value at distance u from a side's midpoint is 1 - |u|
    return 1.0 - abs(y0["s"] % 2.0 - 1.0)


def _lam_focal(y0):
    # at the curvature maximum of a smooth convex curve the inscribed disk of
    # radius 1 / kappa_max touches y0 (Blaschke's rolling theorem)
    return 1.0 / y0["kappa"]


def _invocation(name, command, shape, extra, *, exit_code, verdict,
                lam=None, fail_records=()):
    """One CLI call with its expected outcome.

    lam maps the output's y0 record to the closed-form cut value there.
    fail_records names ``verify`` records whose ``fail`` status is a known
    program defect: the invocation still counts as failed.
    """
    return {"name": name, "command": command, "shape": shape,
            "argv": [command, "--shape", json.dumps(shape)] + list(extra),
            "exit_code": exit_code, "verdict": verdict, "lam": lam,
            "fail_records": tuple(fail_records)}


def boundary(seed):
    """report and web on seven shapes: cut-table bisection, no grid."""
    shapes = [("circle", CIRCLE, _lam_const(1.0), _BALL),
              ("ellipse", ELLIPSE, _lam_const(0.5), _NOT_MET),
              ("square", SQUARE, _lam_square, _NOT_MET),
              ("stadium", STADIUM, _lam_const(1.0), _NOT_MET),
              ("union", UNION, _lam_const(2.0), _INAPPLICABLE),
              ("polygon", POLYGON, _lam_const(0.05), _NOT_MET),
              ("fourier", fourier_shape(seed), _lam_focal, _NOT_MET)]
    out = []
    for name, shape, lam, verdict in shapes:
        out.append(_invocation(f"report-{name}", "report", shape,
                               BOUNDARY_SAMPLES, exit_code=0,
                               verdict=verdict, lam=lam))
        cornered = name in ("square", "union")
        web_extra = list(BOUNDARY_SAMPLES)
        if name == "ellipse":
            web_extra += ["--operator", "plap:4", "--gamma-arc=-0.5,0.5"]
        out.append(_invocation(
            f"web-{name}", "web", shape, web_extra,
            exit_code=1 if cornered else 0,
            verdict=_INAPPLICABLE if cornered else verdict, lam=lam))
    return out


def grid(seed):
    """mk on a smooth and a cornered shape: the distance field dominates."""
    del seed
    return [_invocation("mk-ellipse", "mk", ELLIPSE, GRID_SIZE, exit_code=0,
                        verdict=_NOT_MET),
            _invocation("mk-square", "mk", SQUARE, GRID_SIZE, exit_code=0,
                        verdict=_NOT_MET)]


def verify(seed):
    """verify on a stadium and a union of disks: cut tables, quadrature.

    The stadium's mean-value identity misses its tolerance (a known
    defect); it stays in the workload and counts as a failed invocation.
    """
    del seed
    return [_invocation("verify-stadium", "verify", STADIUM, VERIFY_SIZE,
                        exit_code=0, verdict=None,
                        fail_records=("mean-value",)),
            _invocation("verify-union", "verify", UNION, VERIFY_SIZE,
                        exit_code=0, verdict=None)]


WORKLOADS = {"boundary": boundary, "grid": grid, "verify": verify}


def shapes_of(invocations):
    """Distinct shapes of a workload, in first-use order."""
    seen = {}
    for inv in invocations:
        seen.setdefault(json.dumps(inv["shape"], sort_keys=True), inv["shape"])
    return list(seen.values())
