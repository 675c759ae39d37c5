"""Every function and method in src/cutloc is entered by some CLI run.

The runs go through cli.main under sys.setprofile in a fresh interpreter,
so no cache filled by another test (gauss_legendre's, say) hides a body.
Each function is keyed by its file and the line that Python 3.11's
co_firstlineno reports: the first decorator's, else the def's.
"""

import ast
import glob
import json
import os
import subprocess
import sys

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "cutloc")

# (module, qualified name) of every function that no CLI run enters
UNREACHED = {
    # perfbench/probe.py records the kernel backend with each run
    ("_kernels", "backend"),
    # perfbench/tracer.py wraps it to count projected queries
    ("projector", "CurveProjector.project"),
    # every CLI Domain that reads its midpoint table is built by
    # Domain.at_midpoints, which sets the table; Domain(table) builds it
    ("domain", "Domain._midpoint"),
    # abstract evaluators: every concrete arc class overrides them
    ("arcs", "Arc.point"),
    ("arcs", "Arc.velocity"),
    ("arcs", "Arc.acceleration"),
    ("arcs", "PolarArc._radius"),
    # the package namespace (PEP 562): the CLI imports its submodules
    # directly and never reads an attribute of the package
    ("__init__", "__getattr__"),
    ("__init__", "__dir__"),
}

_SHAPES = {
    "circle": {"type": "circle", "radius": 1.0},
    "union": {"type": "union_disks", "radius": 2.0, "half_distance": 1.0},
    "moved-square": {"type": "square", "side": 2.0, "center": [0.3, -0.2]},
    "rotated-fourier": {"type": "fourier", "a0": 1.0, "cos": [0.0, 0.0, 0.1],
                        "sin": [0.0, 0.05], "rotation": 0.4},
    "superellipse": {"type": "superellipse", "a": 1.0, "b": 0.7, "p": 4.0},
    "stadium": {"type": "stadium", "cap_radius": 1.0, "straight_length": 2.0},
    "96-gon": {"type": "rounded_polygon", "sides": 96, "side_length": 0.2,
               "corner_radius": 0.05},
}
_SMALL = ["--samples", "256", "--grid-nx", "32", "--grid-ny", "32"]


def _runs(tmp):
    """(argv lists that complete, argv lists that exit 2).

    Every subcommand on shapes that reach every arc class and shape
    builder, --out, a shape file, the web options, and the error exits.
    """
    ellipse = os.path.join(tmp, "ellipse.json")
    with open(ellipse, "w") as fh:
        json.dump({"type": "ellipse", "a": 2.0, "b": 1.0}, fh)
    bad = os.path.join(tmp, "bad.json")
    with open(bad, "w") as fh:
        fh.write('{"type": "circle",\n "radius": }\n')
    circle = '{"type": "circle", "radius": 1}'
    runs = [[command, "--shape", json.dumps(spec), *_SMALL]
            for spec in _SHAPES.values()
            for command in ("report", "verify", "mk", "web")]
    runs += [
        ["mk", "--shape", ellipse, *_SMALL, "--out", tmp],
        ["report", "--shape", ellipse, *_SMALL, "--out", tmp],
        ["web", "--shape", ellipse, *_SMALL, "--operator", "plap:4",
         "--gamma-arc=-0.5,0.5"],
        ["web", "--shape", ellipse, *_SMALL, "--gamma-arc=2,3"],
        ["shapes"],
        ["shapes", "fourier", "--json"],
    ]
    exits = [
        ["shapes", "no_such_shape"],
        ["report", "--shape", bad],
        ["report", "--shape", '{"type": "no_such_shape"}'],
        ["report", "--shape", circle, "--samples", "0"],
        ["web", "--shape", circle, "--operator", "plap:x"],
        ["report"],
    ]
    return runs, exits


_CHILD = """
import contextlib, io, json, sys
import cutloc.cli

entered = set()

def profile(frame, event, arg):
    if event == "call":
        entered.add(frame.f_code)

runs = json.loads(sys.argv[1])
codes = []
sink = io.StringIO()
with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
    sys.setprofile(profile)
    try:
        for argv in runs:
            codes.append(cutloc.cli.main(argv))
    finally:
        sys.setprofile(None)
print(json.dumps({"codes": codes,
                  "entered": sorted({(c.co_filename, c.co_firstlineno)
                                     for c in entered})}))
"""


def _defined():
    """{(path, first line): (module, qualified name)} over src/cutloc."""
    out = {}
    for path in glob.glob(os.path.join(PACKAGE, "*.py")):
        module = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            tree = ast.parse(fh.read())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    line = min([d.lineno for d in child.decorator_list]
                               + [child.lineno])
                    name = prefix + child.name
                    out[(os.path.realpath(path), line)] = (module, name)
                    visit(child, name + ".")
                elif isinstance(child, ast.ClassDef):
                    visit(child, prefix + child.name + ".")
                else:
                    visit(child, prefix)

        visit(tree, "")
    return out


def test_every_function_in_src_is_reached_by_a_cli_run(tmp_path):
    runs, exits = _runs(str(tmp_path))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", _CHILD, json.dumps(runs + exits)],
        capture_output=True, text=True, env=env, timeout=300)
    assert out.returncode == 0, out.stderr
    doc = json.loads(out.stdout.splitlines()[-1])
    codes = doc["codes"]
    assert all(code in (0, 1) for code in codes[:len(runs)])
    assert codes[len(runs):] == [2] * len(exits)
    entered = {(os.path.realpath(path), line)
               for path, line in doc["entered"]}
    defined = _defined()
    missed = {name for key, name in defined.items() if key not in entered}
    assert missed == UNREACHED
