"""End-to-end benchmark of the ``cutloc`` command line.

Usage, from the repository root:

  python3 perfbench/run.py --workload boundary --seed 1 --seconds 35 --trace 0

``--trace 0`` runs the workload's invocations as ``python -m cutloc``
child processes, closed loop (one at a time), for as many whole passes as
fit in ``--seconds`` (at least one), and reports the end-to-end metrics.
``--trace 1`` runs one pass in this process through ``cutloc.cli.main``
untraced, then one pass with spans around every public ``cutloc``
function, and reports the per-layer metrics.  Every invocation's output is
checked (``oracles.py``).  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; a fuller record,
with the machine description, goes to ``perfbench/results/``.
"""

import argparse
import contextlib
import io
import json
import os
import selectors
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")
sys.path.insert(0, HERE)

import oracles  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, shapes_of  # noqa: E402

# Fresh set-up processes per untraced run; their median is setup_s.
SETUP_REPEATS = 7
# A run ends within this many seconds whatever the program does.
RUN_DEADLINE_S = 170.0
COMMANDS = ("report", "web", "mk", "verify")

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

PER_LAYER = [
    "kernels.nearest_site.self_s", "kernels.nearest_site.calls",
    "kernels.nearest_site.pairs",
    "cutlocus.cut_table.total_s", "cutlocus.cut_table.calls",
    "cutlocus.cut_table.pairs_per_sample",
    "cutlocus.cut_value.total_s", "cutlocus.cut_value.calls",
    "kernels.nearest_site_gap.self_s", "kernels.nearest_site_gap.pairs",
    "kernels.winding_number.self_s", "kernels.winding_number.pairs",
    "distfield.build_distance_field.total_s",
    "distfield.build_distance_field.self_s",
    "distfield.build_distance_field.cells",
    "projector.CurveProjector.built",
    "projector.CurveProjector.project.queries",
    "projector.refine_on_arcs.rows", "projector.refine_on_arcs.self_s",
    "integrals.mean_value_residual.total_s", "integrals.cov_residual.total_s",
    "integrals.minkowski_residual.total_s",
    "integrals.minkowski_residual_corners.total_s",
    "integrals.area.calls", "integrals.perimeter.calls",
    "quadrature.simpson_doubling_vec.calls",
    "quadrature.simpson_doubling_vec.nodes",
    "quadrature.golden_min_vec.rows", "quadrature.adaptive_simpson.calls",
    "mk.vf_field.self_s", "mk.mk_verdict.total_s",
    "mk.weak_form_check.total_s", "mk.complementarity_max.total_s",
    "symmetry.criterion_report.self_s", "symmetry.diameter.total_s",
    "symmetry.refine_max_curvature.calls",
    "symmetry.f_max_bruteforce.total_s",
    "web.partial_web_report.self_s", "web.flux_identity_residual.total_s",
    "web.flux_identity_residual.errors",
    "shapes.from_spec.total_s", "shapes.from_spec.calls",
    "boundary.BoundaryCurve.__init__.total_s",
    "cli.cmd_report.total_s", "cli.cmd_web.total_s", "cli.cmd_mk.total_s",
    "cli.cmd_verify.total_s", "cli.render_json.total_s", "cli.self_s",
    "trace.errors", "trace.overhead_s",
]

_COUNT_STATS = ("calls", "pairs", "cells", "built", "queries", "rows",
                "nodes", "errors")


def per_layer_unit(name):
    stat = name.rsplit(".", 1)[1]
    if stat == "pairs_per_sample":
        return "pairs/sample"
    return "count" if stat in _COUNT_STATS else "s"


# ------------------------------------------------------------ child runs

def _child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def spawn(cmd, timeout):
    """Run cmd to completion; (returncode, stdout, stderr, wall_s, rusage).

    The child is reaped with os.wait4 so that its own peak resident size is
    read.  returncode is None if it ran past timeout and was killed; if
    this process is interrupted, the child is killed and reaped first.
    """
    t0 = time.perf_counter()
    p = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                         stderr=subprocess.PIPE, env=_child_env(), cwd=ROOT)
    chunks = {p.stdout.fileno(): [], p.stderr.fileno(): []}
    timed_out = False
    try:
        with selectors.DefaultSelector() as sel:
            for f in (p.stdout, p.stderr):
                sel.register(f, selectors.EVENT_READ)
            while sel.get_map():
                left = t0 + timeout - time.perf_counter()
                if left <= 0:
                    p.kill()
                    timed_out = True
                    break
                for key, _ in sel.select(left):
                    data = os.read(key.fd, 1 << 16)
                    if data:
                        chunks[key.fd].append(data)
                    else:
                        sel.unregister(key.fileobj)
    except BaseException:
        p.kill()
        os.wait4(p.pid, 0)
        p.returncode = -signal.SIGKILL
        raise
    _, status, usage = os.wait4(p.pid, 0)
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    out = b"".join(chunks[p.stdout.fileno()])
    err = b"".join(chunks[p.stderr.fileno()])
    p.stdout.close()
    p.stderr.close()
    return (None if timed_out else p.returncode), out, err, wall, usage


def probe(shapes, repeats, deadline):
    """Set-up times of fresh processes, the shapes' extents, the software."""
    cmd = [sys.executable, os.path.join(HERE, "probe.py"), json.dumps(shapes)]
    runs = []
    for _ in range(repeats):
        rc, out, err, _, _ = spawn(cmd, deadline - time.perf_counter())
        if rc != 0:
            raise RuntimeError("set-up probe failed: "
                               + err.decode(errors="replace").strip())
        runs.append(json.loads(out))
    return runs


def machine(software):
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return dict({"nproc": os.cpu_count(), "cpu_model": model}, **software)


# ------------------------------------------------------------------ passes

def subprocess_pass(invocations, deadline):
    records = []
    for inv in invocations:
        rc, out, _, wall, usage = spawn(
            [sys.executable, "-m", "cutloc"] + inv["argv"],
            max(1.0, deadline - time.perf_counter()))
        records.append({"name": inv["name"], "returncode": rc, "stdout": out,
                        "wall_s": wall, "maxrss_kb": usage.ru_maxrss})
    return records


def _timed_out(*_):
    raise TimeoutError("run deadline passed")


def inprocess_pass(invocations, deadline):
    from cutloc import cli
    records = []
    for inv in invocations:
        buf = io.StringIO()
        t0 = time.perf_counter()
        old = signal.signal(signal.SIGALRM, _timed_out)
        signal.setitimer(signal.ITIMER_REAL, max(1.0, deadline - t0))
        try:
            with contextlib.redirect_stdout(buf), \
                    contextlib.redirect_stderr(io.StringIO()):
                rc = cli.main(inv["argv"])
        except Exception:  # a crash or a hang is an oracle failure
            rc = None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        records.append({"name": inv["name"], "returncode": rc,
                        "stdout": buf.getvalue().encode(),
                        "wall_s": time.perf_counter() - t0})
    return records


def check_pass(invocations, records, extents, store):
    """Attach each record's problems; returns (failed, unexpected) counts."""
    failed = unexpected = 0
    for inv, rec in zip(invocations, records):
        key = json.dumps(inv["shape"], sort_keys=True)
        problems = oracles.check(inv, rec["returncode"], rec["stdout"],
                                 extents[key], store.get(inv))
        if rec["returncode"] is not None:
            store.add(inv, rec["stdout"])
        rec["problems"] = [{"known": k, "message": m} for k, m in problems]
        failed += bool(problems)
        unexpected += any(not k for k, _ in problems)
    return failed, unexpected


def timing_metrics(invocations, passes):
    """Pass time from each invocation's median over the passes run.

    The median of every invocation, not of whole passes, keeps one slow
    invocation from moving a pass that was otherwise typical.
    """
    def median_of(key):
        return [statistics.median(p[i][key] for p in passes)
                for i in range(len(invocations))]

    wall = median_of("wall_s")
    out = {"wall_s": sum(wall),
           "peak_rss_mb": max(r["maxrss_kb"] for p in passes for r in p)
           / 1024.0}
    for cmd in COMMANDS:
        times = [t for inv, t in zip(invocations, wall)
                 if inv["command"] == cmd]
        if times:
            out[f"{cmd}_s"] = sum(times)
    return out


def layer_metrics(spans, overhead_s):
    summary = tracer.summarize(spans)
    special = {
        "cli.self_s": lambda: tracer.layer_self_s(spans, "cli"),
        "cutlocus.cut_table.pairs_per_sample":
            lambda: tracer.pairs_per_sample(spans),
        "projector.CurveProjector.built":
            lambda: summary.get("projector.CurveProjector.__init__",
                                {}).get("calls", 0),
        "trace.errors": lambda: sum(s["error"] is not None for s in spans),
        "trace.overhead_s": lambda: overhead_s,
    }
    out = {}
    for name in PER_LAYER:
        if name in special:
            out[name] = special[name]()
        else:
            span, stat = name.rsplit(".", 1)
            out[name] = summary.get(span, {}).get(stat, 0)
    return out


# -------------------------------------------------------------------- main

def run(workload, seed, seconds, trace):
    deadline = time.perf_counter() + RUN_DEADLINE_S
    invocations = WORKLOADS[workload](seed)
    shapes = shapes_of(invocations)
    probes = probe(shapes, 1 if trace else SETUP_REPEATS, deadline)
    extents = {json.dumps(s, sort_keys=True): e
               for s, e in zip(shapes, probes[0]["extents"])}
    store = oracles.DigestStore(os.path.join(RESULTS, "digests.json"),
                                os.path.join(SRC, "cutloc"))
    passes = []
    spans = []
    if trace:
        sys.path.insert(0, SRC)
        passes.append(inprocess_pass(invocations, deadline))
        tr = tracer.Tracer()
        with tr:
            passes.append(inprocess_pass(invocations, deadline))
        spans = tr.spans
    else:
        t_measure = time.perf_counter()
        while True:
            records = subprocess_pass(invocations, deadline)
            passes.append(records)
            spent = time.perf_counter() - t_measure
            if spent + records_wall(records) > seconds:
                break
    failed = unexpected = 0
    for records in passes:
        f, u = check_pass(invocations, records, extents, store)
        failed += f
        unexpected += u
    store.save()

    if trace:
        metrics = layer_metrics(spans, records_wall(passes[1])
                                - records_wall(passes[0]))
        units = {k: per_layer_unit(k) for k in PER_LAYER}
    else:
        metrics = timing_metrics(invocations, passes)
        metrics["setup_s"] = statistics.median(p["setup_s"] for p in probes)
        units = dict(END_TO_END, **{f"{c}_s": "s" for c in COMMANDS})
    attempted = sum(len(r) for r in passes)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "machine": machine(probes[0]["software"]),
        "passes": len(passes), "attempted": attempted, "failed": failed,
        "unexpected": unexpected,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
        "invocations": [[{k: v for k, v in r.items() if k != "stdout"}
                         for r in records] for records in passes],
        "spans": spans,
    }


def records_wall(records):
    return sum(r["wall_s"] for r in records)


def report(result):
    """Human-readable lines, then the one-line JSON result."""
    m = result["metrics"]
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}: {result['passes']} pass(es), "
          f"{result['attempted']} invocations")
    print("machine " + json.dumps(result["machine"], sort_keys=True))
    for name, rec in m.items():
        print(f"  {name:44s} {rec['value']:>14.6g} {rec['unit']}")
    print(f"  {'error_rate':44s} {result['failed']}/{result['attempted']}")
    for records in result["invocations"]:
        for rec in records:
            for p in rec["problems"]:
                tag = "known defect" if p["known"] else "UNEXPECTED"
                print(f"  FAIL {rec['name']}: {p['message']} ({tag})")
    keys = PER_LAYER if result["trace"] else list(END_TO_END)
    print(json.dumps({
        "correct": result["unexpected"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: m[k] for k in keys},
    }))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "cutloc", "__init__.py")):
        print(f"error: no cutloc package under {SRC}", file=sys.stderr)
        return 2
    result = run(args.workload, args.seed, args.seconds, args.trace)
    os.makedirs(RESULTS, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(RESULTS, name), "w") as fh:
        json.dump(result, fh, indent=1)
    report(result)
    return 0


if __name__ == "__main__":
    # turn a termination request into an exception, so children are reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
