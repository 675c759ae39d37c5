"""The package namespace: submodules load on first use.

Each check runs in a fresh interpreter, since this test session has
imported every submodule already; the benchmark tracer's check runs in
process, as the benchmark's trace mode does.
"""

import ast
import glob
import importlib.util
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
TRACER = os.path.join(ROOT, "perfbench", "tracer.py")


def _child(code):
    """The JSON that code prints as its last line, run with src on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, timeout=120)
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.splitlines()[-1])


def test_from_spec_loads_only_the_curve_modules():
    loaded = _child(
        "import json, sys\n"
        "import cutloc\n"
        "cutloc.from_spec({'type': 'circle', 'radius': 1.0})\n"
        "print(json.dumps(sorted(m for m in sys.modules\n"
        "                        if m.split('.')[0] == 'cutloc')))\n")
    assert loaded == ["cutloc", "cutloc.arcs", "cutloc.boundary",
                      "cutloc.errors", "cutloc.shapes"]


# every public name of the package; a name leaves or joins it here
PUBLIC_NAMES = {
    "__version__",
    # boundary, domain, shapes
    "BoundaryCurve", "BoundaryPoint", "CornerInfo", "Domain", "from_spec",
    "load_shape",
    # cutlocus
    "CutTable", "cut_table", "cut_value", "focal_check", "max_lambda_kappa",
    "phi",
    # distfield, projector
    "DistanceField", "GridSpec", "build_distance_field", "inside_mask",
    "CurveProjector", "Projection",
    # errors
    "ConfigurationError", "ConstructionError", "CutlocError",
    "DegenerateRayError", "FormulaOutOfScopeError",
    "HypothesisViolationError", "InapplicableError", "InvalidRayError",
    "OperatorRangeError", "ShapeParseError",
    # fields, integrals
    "ScalarField", "constant", "IntegralReport", "area", "corner_sum",
    "cov_integral", "cov_residual", "mean_value_residual",
    "minkowski_residual", "minkowski_residual_corners",
    # mk
    "MKSolution", "complementarity_max", "eikonal_max_deviation",
    "mk_verdict", "residual_summary", "vf_field", "weak_form_check",
    # symmetry
    "SymmetryReport", "criterion_report",
    # web
    "DivergenceOperator", "PartialWebReport", "WebProfile",
    "flux_identity_residual", "laplace", "parse_operator",
    "partial_web_report", "plap", "profile_checks", "web_profile",
}


def test_every_public_name_resolves_to_its_defining_module():
    doc = _child(
        "import importlib, json, sys\n"
        "import cutloc\n"
        "wrong = []\n"
        "for name in cutloc.__all__:\n"
        "    obj = getattr(cutloc, name)\n"
        "    home = getattr(obj, '__module__', None)\n"
        "    if name != '__version__' and not (\n"
        "            home and home.startswith('cutloc.')\n"
        "            and getattr(importlib.import_module(home), name) is obj):\n"
        "        wrong.append(name)\n"
        "star = {}\n"
        "exec('from cutloc import *', star)\n"
        "print(json.dumps({'wrong': wrong, 'all': cutloc.__all__,\n"
        "                  'star': sorted(set(star) - {'__builtins__'}),\n"
        "                  'dir': dir(cutloc),\n"
        "                  'kernels': cutloc._kernels.__name__}))\n")
    assert doc["wrong"] == []
    assert len(doc["all"]) == len(set(doc["all"]))
    assert set(doc["all"]) == PUBLIC_NAMES
    assert doc["star"] == sorted(doc["all"])
    assert set(doc["all"]) <= set(doc["dir"])
    assert doc["kernels"] == "cutloc._kernels"


@pytest.mark.parametrize("name", ["no_such_name", "__wrapped__"])
def test_unknown_name_raises_attribute_error(name):
    doc = _child(
        "import json\n"
        "import cutloc\n"
        "try:\n"
        f"    getattr(cutloc, {name!r})\n"
        "except AttributeError as e:\n"
        "    print(json.dumps(str(e)))\n")
    assert name in doc


# (module, name) of every underscore name that one cutloc module may import
# from another; everything else private stays in its module
PRIVATE_IMPORTS = {
    # the pair budget and block size live in boundary, so that
    # `import cutloc` does not load _kernels
    ("boundary", "_PAIR_BUDGET"),
    ("boundary", "_BLOCK_NODES"),
    # the kernel module: nearest-site scans and the inside-polygon test
    (None, "_kernels"),
}


def test_private_names_cross_modules_only_on_the_allowlist():
    found = set()
    for path in glob.glob(os.path.join(SRC, "cutloc", "*.py")):
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level:
                found |= {(node.module, alias.name) for alias in node.names
                          if alias.name.startswith("_")}
    assert found == PRIVATE_IMPORTS


def _unused_imports(path):
    """Names the module at path imports and never reads; a name in its
    __all__ counts as read, and `from __future__` imports are exempt."""
    with open(path) as fh:
        tree = ast.parse(fh.read())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0]
                         for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)
            and not isinstance(node.ctx, ast.Store)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            read |= {e.value for e in node.value.elts
                     if isinstance(e, ast.Constant)}
    return imported - read


def test_every_imported_name_is_read():
    paths = (glob.glob(os.path.join(SRC, "cutloc", "*.py"))
             + glob.glob(os.path.join(ROOT, "tests", "*.py")))
    unused = {os.path.relpath(path, ROOT): sorted(_unused_imports(path))
              for path in sorted(paths)}
    assert {path: names for path, names in unused.items() if names} == {}


def test_cli_loads_every_layer_the_benchmark_tracer_wraps():
    missing = _child(
        "import importlib.util, json, sys\n"
        f"spec = importlib.util.spec_from_file_location('tracer', {TRACER!r})\n"
        "tracer = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(tracer)\n"
        "import cutloc.cli\n"
        "print(json.dumps([m for m in tracer.MODULES\n"
        "                  if 'cutloc.' + m not in sys.modules]))\n")
    assert missing == []


def _traced_run(capsys, argv):
    """cli.main(argv) under the benchmark's trace mode, which rebinds
    cutloc's functions from outside (perfbench/tracer.py), in process.

    Returns the exit code and the spans, once no span has an error and
    every rebound attribute is back to its original.
    """
    spec = importlib.util.spec_from_file_location("tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    from cutloc import cli
    tr = tracer.Tracer()
    with tr:
        patches = tr.patches
        code = cli.main(argv)
    capsys.readouterr()
    assert [s["name"] for s in tr.spans if s["error"] is not None] == []
    assert patches and tr.patches == []
    assert all(getattr(owner, attr) is original
               for owner, attr, original in patches)
    return code, tr.spans


def test_benchmark_tracer_spans_a_many_arc_report_and_unwinds(capsys):
    # a 96-gon report, its foot searches counted
    shape = json.dumps({"type": "rounded_polygon", "sides": 96,
                        "side_length": 0.2, "corner_radius": 0.05})
    code, spans = _traced_run(capsys, ["report", "--shape", shape,
                                       "--samples", "384"])
    assert code == 0
    assert any(s["counts"].get("rows", 0) > 0 for s in spans
               if s["name"] == "projector.refine_on_arcs")


def test_benchmark_tracer_spans_a_web_report_and_unwinds(capsys):
    # the benchmark's web invocation on the ellipse
    shape = json.dumps({"type": "ellipse", "a": 2.0, "b": 1.0})
    code, spans = _traced_run(capsys, [
        "web", "--shape", shape, "--samples", "384", "--operator", "plap:4",
        "--gamma-arc=-0.5,0.5"])
    assert code == 0
    names = {s["name"] for s in spans}
    assert {"web.partial_web_report", "web.flux_identity_residual"} <= names


@pytest.mark.parametrize("command", ["report", "web", "verify", "mk"])
def test_cli_run_imports_neither_numpy_polynomial_nor_numpy_ma(command):
    # leggauss imports numpy.polynomial and runs an eigensolve, and
    # np.median and a plain np.unique import numpy.ma: 1.3-1.9 MB
    # resident each, which a run's peak RSS would carry
    argv = [command, "--shape", '{"type": "ellipse", "a": 2.0, "b": 1.0}',
            "--samples", "256", "--grid-nx", "32", "--grid-ny", "32"]
    doc = _child(
        "import contextlib, io, json, sys\n"
        "import cutloc.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cutloc.cli.main({argv!r})\n"
        "heavy = ('numpy.polynomial', 'numpy.ma')\n"
        "loaded = [m for m in heavy if m in sys.modules]\n"
        "print(json.dumps({'code': code, 'loaded': loaded}))\n")
    assert doc == {"code": 0, "loaded": []}


def test_only_the_distance_field_builds_a_projector():
    # cut values read the curve's site table; the distance field is the
    # one reader that projects points, so mk alone builds a CurveProjector
    shape = '{"type": "ellipse", "a": 2.0, "b": 1.0}'
    runs = {command: [command, "--shape", shape, "--samples", "256",
                      "--grid-nx", "32", "--grid-ny", "32"]
            for command in ("report", "web", "verify", "mk")}
    doc = _child(
        "import contextlib, io, json\n"
        "import cutloc.cli\n"
        "from cutloc.projector import CurveProjector\n"
        "init = CurveProjector.__init__\n"
        "built = []\n"
        "def counted(self, *args, **kwargs):\n"
        "    built.append(1)\n"
        "    init(self, *args, **kwargs)\n"
        "CurveProjector.__init__ = counted\n"
        "out = {}\n"
        f"for command, argv in {runs!r}.items():\n"
        "    before = len(built)\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        code = cutloc.cli.main(argv)\n"
        "    out[command] = [code, len(built) - before]\n"
        "print(json.dumps(out))\n")
    assert doc == {"report": [0, 0], "web": [0, 0], "verify": [0, 0],
                   "mk": [0, 1]}
