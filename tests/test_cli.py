import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from cutloc import _kernels, cutlocus, integrals, projector
from cutloc.cli import MAX_GRID_SIDE, MAX_SAMPLES, main, render_json
from cutloc.shapes import MAX_FOURIER_MODES, MAX_SIDES

CIRCLE = '{"type": "circle", "radius": 1.0}'
SQUARE = '{"type": "square", "side": 2.0}'
UNION = '{"type": "union_disks", "radius": 2.0, "half_distance": 1.0}'
STADIUM = '{"type": "stadium", "cap_radius": 1.0, "straight_length": 2.0}'


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_shapes_listing(capsys):
    code, out, _ = _run(capsys, ["shapes"])
    assert code == 0
    assert "circle" in out and "union_disks" in out


def test_shapes_json(capsys):
    code, out, _ = _run(capsys, ["shapes", "--json"])
    assert code == 0
    doc = json.loads(out)
    assert "ellipse" in doc


def test_shapes_unknown_name(capsys):
    code, _, err = _run(capsys, ["shapes", "blob"])
    assert code == 2
    assert "unknown shape" in err


def test_report_circle(capsys):
    code, out, _ = _run(capsys, ["report", "--shape", CIRCLE,
                                 "--samples", "256"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "ball"
    assert doc["assertions"]["kappa_lambda_bound_ok"]


def test_report_writes_files(capsys, tmp_path):
    out_dir = str(tmp_path / "run")
    code, out, _ = _run(capsys, ["report", "--shape", CIRCLE,
                                 "--samples", "256", "--out", out_dir])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "report.json"))
    csv_path = os.path.join(out_dir, "samples.csv")
    assert os.path.exists(csv_path)
    with open(csv_path) as fh:
        header = fh.readline().strip()
    assert header.startswith("s,x,y,")
    with open(os.path.join(out_dir, "report.json")) as fh:
        assert fh.read() == out


def test_report_json_format_only(capsys, tmp_path):
    out_dir = str(tmp_path / "jsononly")
    code, _, _ = _run(capsys, ["report", "--shape", CIRCLE, "--samples",
                               "256", "--out", out_dir, "--format", "json"])
    assert code == 0
    assert os.path.exists(os.path.join(out_dir, "report.json"))
    assert not os.path.exists(os.path.join(out_dir, "samples.csv"))


def test_verify_square(capsys):
    code, out, _ = _run(capsys, ["verify", "--shape", SQUARE, "--samples",
                                 "512", "--grid-nx", "64", "--grid-ny", "64"])
    assert code == 0
    recs = {r["name"]: r for r in json.loads(out)}
    assert recs["minkowski-smooth"]["status"] == "skipped"
    assert recs["minkowski-cornered"]["status"] == "pass"
    assert recs["minkowski-cornered"]["corner_sum"] == pytest.approx(-8.0)
    assert recs["kappa-lambda-bound"]["status"] == "pass"


def test_verify_builds_no_distance_field(capsys, monkeypatch):
    # chv-grid counts inside cells: no nearest-site scan is needed
    def refuse(*args, **kwargs):
        raise AssertionError("nearest_site called by verify")
    monkeypatch.setattr("cutloc._kernels.nearest_site", refuse)
    code, out, _ = _run(capsys, ["verify", "--shape", STADIUM, "--samples",
                                 "512", "--grid-nx", "64", "--grid-ny", "64"])
    assert code == 0
    recs = {r["name"]: r for r in json.loads(out)}
    assert recs["chv-grid"]["status"] == "pass"


ELLIPSE = '{"type": "ellipse", "a": 2.0, "b": 1.0}'


@pytest.mark.parametrize("command, shape, runs", [
    ("report", ELLIPSE, 1), ("web", ELLIPSE, 1), ("mk", ELLIPSE, 1),
    ("verify", STADIUM, 3), ("verify", UNION, 0)],
    ids=["report", "web", "mk", "verify-stadium", "verify-union"])
def test_boundary_quadratures_per_run(capsys, monkeypatch, command, shape,
                                      runs):
    # the boundary length is the arclength table's; the doubling-Simpson
    # quadrature runs only for the area and the curvature integrals
    # (verify on the stadium: both Minkowski records and the area)
    simpson = integrals.simpson_doubling_vec
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return simpson(*args, **kwargs)
    monkeypatch.setattr(integrals, "simpson_doubling_vec", counted)
    _run(capsys, [command, "--shape", shape, "--samples", "256",
                  "--grid-nx", "32", "--grid-ny", "32"])
    assert len(calls) == runs


@pytest.mark.parametrize("shape", [STADIUM, UNION, ELLIPSE],
                         ids=["stadium", "union", "ellipse"])
def test_verify_builds_one_cut_table(capsys, monkeypatch, shape):
    # the midpoint table is verify's one ball pass over many samples; the
    # cut value at y0 is a one-sample pass
    ball_cut = cutlocus._ball_cut
    sizes = []

    def counted(sites, pos, *args):
        sizes.append(len(pos))
        return ball_cut(sites, pos, *args)
    monkeypatch.setattr(cutlocus, "_ball_cut", counted)
    code, _, _ = _run(capsys, ["verify", "--shape", shape, "--samples",
                               "512", "--grid-nx", "32", "--grid-ny", "32"])
    assert code == 0
    assert [n for n in sizes if n > 1] == [2048]


# the benchmark's seed-1 and seed-7 Fourier shapes
FOURIER_SEED_1 = ('{"type": "fourier", "a0": 1.0, '
                  '"cos": [0.0, -0.003802, 0.002743, -4.7e-05, 0.001576], '
                  '"sin": [0.0, 0.003613, -0.002547, -0.000525, 0.003003]}')
FOURIER_SEED_7 = ('{"type": "fourier", "a0": 1.0, '
                  '"cos": [0.0, -0.00159, 0.001362, 0.000324, -0.003989], '
                  '"sin": [0.0, -0.003151, -0.003859, -0.001212, 6.7e-05]}')


@pytest.mark.parametrize("shape", [
    ELLIPSE, '{"type": "superellipse", "a": 1.0, "b": 1.0, "p": 4.0}',
    FOURIER_SEED_1, FOURIER_SEED_7],
    ids=["ellipse", "superellipse", "fourier-seed-1", "fourier-seed-7"])
def test_verify_focal_identity_at_refined_y0(capsys, shape):
    # at the refined curvature maximum the cut value is the focal cap
    # 1/H_max itself; the best sample of a table can sit next to it
    code, out, _ = _run(capsys, ["verify", "--shape", shape, "--samples",
                                 "2048", "--grid-nx", "32", "--grid-ny",
                                 "32"])
    assert code == 0
    recs = {r["name"]: r for r in json.loads(out)}
    assert recs["focal"]["status"] == "pass"
    assert recs["focal"]["residual"] <= 1e-12


def test_verify_union_out_of_scope(capsys):
    code, out, _ = _run(capsys, ["verify", "--shape", UNION,
                                 "--samples", "512"])
    assert code == 0
    recs = {r["name"]: r for r in json.loads(out)}
    assert recs["minkowski-cornered"]["status"] == "out-of-scope"
    assert recs["chv-grid"]["status"] == "skipped"


def test_mk_summary(capsys):
    code, out, _ = _run(capsys, ["mk", "--shape", CIRCLE, "--samples", "512",
                                 "--grid-nx", "96", "--grid-ny", "96",
                                 "--gamma", "2.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "ball"
    assert doc["boundary_trace"]["mean"] == pytest.approx(1.0, abs=1e-4)
    assert doc["residual"]["median"] <= 0.05 * 2.0


@pytest.mark.parametrize("shape", [
    '{"type": "ellipse", "a": 2.0, "b": 1.0}', SQUARE])
def test_mk_benchmark_grid_exits_0(capsys, shape):
    # the grid size of the benchmark's mk invocations, which expect exit 0
    code, out, _ = _run(capsys, ["mk", "--shape", shape, "--samples", "512",
                                 "--grid-nx", "96", "--grid-ny", "96"])
    assert code == 0
    doc = json.loads(out)
    assert doc["eikonal_max_deviation"] <= 5 * doc["grid"]["h"]


def test_mk_computes_the_signed_gradient_once(capsys, monkeypatch):
    # the solution keeps the gradient that its eikonal, complementarity
    # and weak-form checks read
    from cutloc import mk
    signed_gradient = mk._signed_gradient
    calls = []

    def counted(field):
        calls.append(field)
        return signed_gradient(field)
    monkeypatch.setattr(mk, "_signed_gradient", counted)
    code, _, _ = _run(capsys, ["mk", "--shape", SQUARE, "--samples", "512",
                               "--grid-nx", "64", "--grid-ny", "64"])
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["mk", "verify"])
def test_grid_centers_are_built_once(capsys, monkeypatch, command):
    # mk's field keeps the centers its inside test and vf_field read, and
    # verify's cov_residual shares one array between the inside test and
    # the source values
    from cutloc.distfield import GridSpec
    centers = GridSpec.centers
    calls = []

    def counted(grid):
        calls.append(grid)
        return centers(grid)
    monkeypatch.setattr(GridSpec, "centers", counted)
    code, _, _ = _run(capsys, [command, "--shape", CIRCLE, "--samples", "512",
                               "--grid-nx", "64", "--grid-ny", "64"])
    assert code == 0
    assert len(calls) == 1


def test_web_report(capsys):
    code, out, _ = _run(capsys, ["web", "--shape", CIRCLE, "--samples",
                                 "512", "--operator", "plap:4"])
    assert code == 0
    doc = json.loads(out)
    assert doc["identity_status"] == "pass"
    assert doc["hprime0"] == pytest.approx(-0.5 ** (1 / 3), abs=1e-9)


LARGE_CIRCLES = [(operator, radius, -(radius / 2) ** (1 / (p - 1)))
                 for radius in (1e-5, 40.0, 1e4)
                 for operator, p in (("laplace", 2), ("plap:4", 4))]


@pytest.mark.parametrize("operator, radius, expect", LARGE_CIRCLES,
                         ids=[f"{op}-{expect!r}"
                              for op, _, expect in LARGE_CIRCLES])
def test_web_large_circle(capsys, operator, radius, expect):
    # h'(0) = -m^-1(R/2) on a circle of radius R: the slope keeps its
    # relative accuracy at every scale
    shape = json.dumps({"type": "circle", "radius": radius})
    code, out, _ = _run(capsys, ["web", "--shape", shape, "--samples", "256",
                                 "--operator", operator])
    assert code == 0
    assert json.loads(out)["hprime0"] == pytest.approx(expect, rel=1e-12)


def test_web_gamma_arc_violation(capsys):
    code, out, _ = _run(capsys, ["web", "--shape",
                                 '{"type": "ellipse", "a": 2.0, "b": 1.0}',
                                 "--samples", "512", "--gamma-arc=1.9,2.9"])
    assert code == 1
    doc = json.loads(out)
    assert doc["identity_status"].startswith("hypothesis-violation")


def test_web_skips_identity_on_corners(capsys, monkeypatch):
    # the identity needs a smooth boundary: skipped without being tried
    def refuse(*args, **kwargs):
        raise AssertionError("flux_identity_residual called on corners")
    monkeypatch.setattr("cutloc.cli.flux_identity_residual", refuse)
    code, out, _ = _run(capsys, ["web", "--shape", SQUARE, "--samples",
                                 "512"])
    assert code == 1
    doc = json.loads(out)
    assert doc["identity_status"] == ("skipped: identity requires a smooth "
                                      "boundary")
    assert doc["identity_residual"] is None


def test_exit_2_on_bad_config(capsys):
    assert _run(capsys, ["report", "--shape", CIRCLE, "--tol", "0.5"])[0] == 2
    assert _run(capsys, ["report", "--shape", "nope.json"])[0] == 2
    assert _run(capsys, ["report", "--shape", CIRCLE,
                         "--format", "xml"])[0] == 2
    assert _run(capsys, ["report", "--shape", '{"radius": 1.0}'])[0] == 2
    assert _run(capsys, ["mk", "--shape", CIRCLE, "--gamma", "-1"])[0] == 2


def test_exit_2_on_bad_json_file(capsys, tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{"type": "circle"')
    code, _, err = _run(capsys, ["report", "--shape", str(p)])
    assert code == 2
    assert "line" in err


def test_stdout_bytes_deterministic(capsys):
    argv = ["report", "--shape", CIRCLE, "--samples", "256"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_report_many_arcs_bounded_memory(tmp_path):
    # 2000 arcs: validation and diameter once held all-pairs temporaries
    # of the polygon sampling (several GB); the child must finish in bounded
    # memory with a clean exit
    shape = ('{"type": "rounded_polygon", "sides": 1000, "side_length": 0.2,'
             ' "corner_radius": 0.05}')
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out_path, err_path = tmp_path / "out", tmp_path / "err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        child = subprocess.Popen(
            [sys.executable, "-m", "cutloc", "report", "--shape", shape,
             "--samples", "384"], stdout=out, stderr=err, env=env)
    # os.wait4 reaps the child itself, so its peak RSS is not mixed with
    # any other child's
    deadline = time.monotonic() + 300.0
    while True:
        pid, status, usage = os.wait4(child.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            child.kill()
            child.wait()
            pytest.fail("report on 2000 arcs did not finish in 300 s")
        time.sleep(0.05)
    child.returncode = os.waitstatus_to_exitcode(status)
    stderr = err_path.read_text()
    assert child.returncode == 0, stderr
    assert "Traceback" not in stderr
    doc = json.loads(out_path.read_text())
    assert doc["verdict"] == "hypotheses-not-met"
    # every corner arc has curvature 1 / 0.05; the arcs are shorter than
    # the sample spacing, so only the site table can seed y0 on one
    assert doc["H_max"] == pytest.approx(20.0, rel=0, abs=1e-9)
    assert usage.ru_maxrss < 400 * 1024  # KiB on Linux


# Runs argv[1:] and prints its ru_maxrss.  Linux carries a process's peak
# resident size across exec, so a child forked from the test process would
# report at least this process's size; the launcher is small.
_MAXRSS_LAUNCHER = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdin=subprocess.DEVNULL,
                         stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
err = child.stderr.read()
_, status, usage = os.wait4(child.pid, 0)
if os.waitstatus_to_exitcode(status):
    sys.exit(err.decode())
print(usage.ru_maxrss)
"""


def _child_maxrss_mb(args):
    """Peak RSS of a fresh Python child running args, in MB."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run(
        [sys.executable, "-c", _MAXRSS_LAUNCHER, sys.executable] + args,
        stdin=subprocess.DEVNULL, capture_output=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr.decode()
    return int(done.stdout) / 1024  # KiB on Linux


def test_report_memory_above_import_is_bounded():
    # the ellipse's report holds its arclength tables, site table and cut
    # table (a few MB); a transient that grows with the ellipse's 65 537
    # arclength nodes or the grid shows here first.  Both children compile
    # the package alike, so the difference is the run's own
    bare = _child_maxrss_mb(["-c", "import cutloc.cli"])
    run = _child_maxrss_mb(["-m", "cutloc", "report", "--shape",
                            '{"type": "ellipse", "a": 2.0, "b": 1.0}',
                            "--samples", "384"])
    assert run - bare <= 5.0


def test_verify_memory_above_import_is_bounded():
    # the benchmark's stadium: one 2048-sample cut table, two-node
    # arclength tables on its arcs, and Gauss nodes without an eigensolve
    bare = _child_maxrss_mb(["-c", "import cutloc.cli"])
    run = _child_maxrss_mb(["-m", "cutloc", "verify", "--shape", STADIUM,
                            "--samples", "2048", "--grid-nx", "96",
                            "--grid-ny", "96"])
    assert run - bare <= 3.5


def test_web_lambda_at_y0_uses_tol(capsys):
    argv = ["--shape", UNION, "--samples", "384", "--tol", "5e-3"]
    _, report, _ = _run(capsys, ["report"] + argv)
    _, web, _ = _run(capsys, ["web"] + argv)
    assert (json.loads(web)["y0"]["lambda"]
            == json.loads(report)["lambda_at_y0"])


_POLYGON = '"side_length": 1.0, "corner_radius": 0.1'
BAD_SHAPES = {
    "nan": '{"type": "circle", "radius": NaN}',
    "inf": '{"type": "circle", "radius": Infinity}',
    "minus-inf": '{"type": "circle", "radius": -Infinity}',
    "overflowing-float": '{"type": "circle", "radius": 1e400}',
    "overflowing-int": '{"type": "circle", "radius": 1' + "0" * 400 + '}',
    "string-number": '{"type": "circle", "radius": "1.0"}',
    "string-axis": '{"type": "ellipse", "a": "2", "b": 1.0}',
    "bool-radius": '{"type": "circle", "radius": true}',
    "bool-side": '{"type": "square", "side": true}',
    "null": '{"type": "circle", "radius": null}',
    "list-number": '{"type": "circle", "radius": [1.0]}',
    "inf-center": '{"type": "circle", "radius": 1.0, "center": [Infinity, 0]}',
    "string-center": '{"type": "circle", "radius": 1.0, "center": ["0", 0]}',
    "nan-mode": '{"type": "fourier", "a0": 1.0, "cos": [NaN]}',
    "string-modes": '{"type": "fourier", "a0": 1.0, "sin": "0.1"}',
    "huge-axes": '{"type": "ellipse", "a": 1e300, "b": 1e300}',
    "tiny-axes": '{"type": "ellipse", "a": 1e-300, "b": 1e-300}',
    # the absolute tol (1e-6 * extent = 200) exceeds every cut value
    "slender-axes": '{"type": "ellipse", "a": 1e8, "b": 1.0}',
    "fractional-sides": '{"type": "rounded_polygon", "sides": 3.5, '
                        + _POLYGON + '}',
    "string-sides": '{"type": "rounded_polygon", "sides": "4", '
                    + _POLYGON + '}',
    # one past the documented bounds; the huge values would hang or OOM
    "too-many-sides": '{"type": "rounded_polygon", "sides": %d, %s}'
                      % (MAX_SIDES + 1, _POLYGON),
    "too-many-modes": '{"type": "fourier", "a0": 1.0, "sin": %s}'
                      % json.dumps([0.0] * (MAX_FOURIER_MODES + 1)),
    "array-shape": '[{"type": "circle", "radius": 1.0}]',
    "string-shape": '"circle"',
}


@pytest.mark.parametrize("shape", list(BAD_SHAPES.values()),
                         ids=list(BAD_SHAPES))
def test_malformed_or_extreme_shape_exits_2(capsys, shape):
    code, _, err = _run(capsys, ["report", "--shape", shape,
                                 "--samples", "256"])
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


BAD_FLAGS = {
    "gamma-arc-words": ["web", "--gamma-arc", "a,b"],
    "gamma-arc-nan": ["web", "--gamma-arc=nan,1"],
    "operator-exponent": ["web", "--operator", "plap:abc"],
    "operator-exponent-inf": ["web", "--operator", "plap:inf"],
    "operator-exponent-nan": ["web", "--operator", "plap:nan"],
    "operator-exponent-181": ["web", "--operator", "plap:181"],
    "gamma-nan": ["mk", "--gamma", "nan", "--grid-nx", "32",
                  "--grid-ny", "32"],
}


@pytest.mark.parametrize("argv", list(BAD_FLAGS.values()), ids=list(BAD_FLAGS))
def test_malformed_flag_exits_2(capsys, argv):
    code, _, err = _run(capsys, argv[:1] + ["--shape", CIRCLE, "--samples",
                                            "256"] + argv[1:])
    assert code == 2
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


SIZES_ABOVE_LIMIT = {
    "samples": ["--samples", str(MAX_SAMPLES + 1)],
    "grid-nx": ["--grid-nx", str(MAX_GRID_SIDE + 1)],
    "grid-ny": ["--grid-ny", str(MAX_GRID_SIDE + 1)],
}


@pytest.mark.parametrize("command", ["report", "verify", "mk", "web"])
@pytest.mark.parametrize("size", list(SIZES_ABOVE_LIMIT.values()),
                         ids=list(SIZES_ABOVE_LIMIT))
def test_size_above_limit_exits_2_before_any_work(capsys, monkeypatch,
                                                   command, size):
    # one past each documented bound; the shape is never even loaded
    def no_work(spec):
        raise AssertionError("work began before the size check")
    monkeypatch.setattr("cutloc.cli._load_curve", no_work)
    code, out, err = _run(capsys, [command, "--shape", CIRCLE] + size)
    assert code == 2
    assert out == ""
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


# (shape, grid side) -> (nearest-site query rows, foot rows) of one mk
# run at --samples 512, measured, plus 20 % and 5 %.  A scan of every cell
# takes nx * ny rows of each.
MK_WORK_BOUND = {
    ("ellipse", 96): (700, 3356), ("ellipse", 256): (2666, 22886),
    ("square", 96): (1531, 8963), ("square", 256): (6542, 58708),
}


@pytest.mark.parametrize("shape, side", list(MK_WORK_BOUND))
def test_mk_scans_few_cells(capsys, monkeypatch, shape, side):
    rows = {"nearest_site": 0, "refine_on_arcs": 0}
    scan, refine = _kernels.nearest_site, projector.refine_on_arcs

    def counted_scan(queries, sites):
        rows["nearest_site"] += len(queries)
        return scan(queries, sites)

    def counted_refine(curve, points, *args):
        rows["refine_on_arcs"] += len(points)
        return refine(curve, points, *args)
    monkeypatch.setattr(_kernels, "nearest_site", counted_scan)
    monkeypatch.setattr(projector, "refine_on_arcs", counted_refine)
    spec = {"ellipse": ELLIPSE, "square": SQUARE}[shape]
    code, _, _ = _run(capsys, ["mk", "--shape", spec, "--samples", "512",
                               "--grid-nx", str(side), "--grid-ny", str(side)])
    assert code == 0
    scan_bound, foot_bound = MK_WORK_BOUND[shape, side]
    assert 0 < rows["nearest_site"] <= scan_bound < side * side
    assert 0 < rows["refine_on_arcs"] <= foot_bound < side * side


@pytest.mark.parametrize("case", ["shape-directory", "shape-not-utf8",
                                  "out-is-file", "out-under-file"])
def test_io_error_exits_2(capsys, tmp_path, case):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"type": "circle", "radius": 1.0, "name": "\xe9"}')
    shape_and_out = {
        "shape-directory": ["--shape", str(tmp_path)],
        "shape-not-utf8": ["--shape", str(latin1)],
        "out-is-file": ["--shape", CIRCLE, "--out", str(latin1)],
        "out-under-file": ["--shape", CIRCLE, "--out", str(latin1 / "sub")],
    }[case]
    code, out, err = _run(capsys, ["report", "--samples", "256"]
                          + shape_and_out)
    assert code == 2
    assert out == ""
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["report.json", "samples.csv"])
def test_out_write_error_exits_2(capsys, tmp_path, name):
    # --out exists, but one of the files it should receive is a directory
    (tmp_path / name).mkdir()
    code, out, err = _run(capsys, ["report", "--shape", CIRCLE, "--samples",
                                   "256", "--out", str(tmp_path)])
    assert code == 2
    assert out == ""
    assert any(line.startswith("error:") for line in err.splitlines())
    assert "Traceback" not in err


def test_render_json_float_format():
    text = render_json({"x": 1.0 / 3.0, "flags": [True, False, None],
                        "n": 7, "bad": float("nan")})
    doc = json.loads(text)
    assert doc["x"] == 1.0 / 3.0  # 17 significant digits round-trips
    assert doc["flags"] == [True, False, None]
    assert doc["bad"] is None
    assert "0.33333333333333331" in text


def test_render_json_numpy_values():
    text = render_json({"a": np.float64(0.5), "b": np.int64(3),
                        "c": np.array([1.0, 2.0])})
    assert json.loads(text) == {"a": 0.5, "b": 3, "c": [1.0, 2.0]}
