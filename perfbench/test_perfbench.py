"""Tests of the benchmark itself: tracer, oracles, workloads, metric list.

Run from the repository root: python3 -m pytest perfbench
"""

import contextlib
import io
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Small versions of every subcommand, so that a traced pass takes seconds.
SMALL = [
    ["report", "--shape", json.dumps(workloads.CIRCLE), "--samples", "128"],
    ["web", "--shape", json.dumps(workloads.SQUARE), "--samples", "128"],
    ["mk", "--shape", json.dumps(workloads.ELLIPSE), "--samples", "128",
     "--grid-nx", "32", "--grid-ny", "32"],
    ["verify", "--shape", json.dumps(workloads.UNION), "--samples", "128"],
]


def _traced_pass():
    from cutloc import cli
    tr = tracer.Tracer()
    with tr, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in SMALL:
            cli.main(argv)
    return tr


def _cutloc_bindings():
    import cutloc.cli  # noqa: F401
    out = {}
    for name, mod in sys.modules.items():
        if name == "cutloc" or name.startswith("cutloc."):
            for attr, value in vars(mod).items():
                out[(name, attr)] = value
                if isinstance(value, type) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = cvalue
    return out


def test_uninstall_restores_every_rebound_attribute():
    before = _cutloc_bindings()
    tr = tracer.Tracer()
    with tr:
        patched = tr.patches
        from cutloc import cli
        assert cli.cut_table is not before[("cutloc.cutlocus", "cut_table")]
    assert len(patched) > 50
    assert tr.patches == []
    after = _cutloc_bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []
    assert not any(hasattr(v, "_perfbench_span") for v in after.values())


def test_traced_pass_restores_bindings_and_records_layers():
    before = _cutloc_bindings()
    tr = _traced_pass()
    after = _cutloc_bindings()
    assert all(after[k] is before[k] for k in before)
    names = {s["name"] for s in tr.spans}
    for expected in ("cli.main", "cli.cmd_report", "cutlocus.cut_table",
                     "kernels.nearest_site", "kernels.nearest_site_gap",
                     "distfield.build_distance_field",
                     "projector.refine_on_arcs", "mk.vf_field",
                     "web.flux_identity_residual", "shapes.from_spec"):
        assert expected in names
    # the square has corners, so web's flux identity raises through its span
    summary = tracer.summarize(tr.spans)
    assert summary["web.flux_identity_residual"]["errors"] == 1


def test_spans_nest_and_self_time_is_nonnegative():
    spans = _traced_pass().spans
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["start"] <= s["end"]
        if s["parent"] is not None:
            p = by_id[s["parent"]]
            assert p["start"] <= s["start"] and s["end"] <= p["end"]
    for name, agg in tracer.summarize(spans).items():
        assert agg["self_s"] >= -1e-9, name
        assert agg["self_s"] <= agg["total_s"] + 1e-9, name


def test_two_traced_runs_give_identical_counts():
    def counts(spans):
        return {name: {k: v for k, v in agg.items()
                       if k not in ("total_s", "self_s")}
                for name, agg in tracer.summarize(spans).items()}

    first = _traced_pass().spans
    second = _traced_pass().spans
    assert counts(first) == counts(second)
    assert tracer.pairs_per_sample(first) == tracer.pairs_per_sample(second)
    assert [s["name"] for s in first] == [s["name"] for s in second]


def _report_circle():
    return next(i for i in workloads.boundary(1)
                if i["name"] == "report-circle")


def test_oracle_accepts_the_expected_output():
    doc = {"verdict": "ball", "y0": {"s": 0.1, "kappa": 1.0},
           "lambda_at_y0": 1.0 - 1e-7}
    out = json.dumps(doc).encode()
    assert oracles.check(_report_circle(), 0, out, 2.0) == []


def test_oracle_flags_a_wrong_verdict():
    doc = {"verdict": "hypotheses-not-met", "y0": {"s": 0.1, "kappa": 1.0},
           "lambda_at_y0": 1.0}
    out = json.dumps(doc).encode()
    problems = oracles.check(_report_circle(), 0, out, 2.0)
    assert problems and not any(known for known, _ in problems)


@pytest.mark.parametrize("rc,stdout,ref", [
    (None, b"", None),                       # crash or timeout
    (2, b"{}", None),                        # bad usage
    (0, b"not json", None),                  # stdout is not JSON
    (0, b'{"verdict": "ball", "y0": {"s": 0.1, "kappa": 1.0}, '
        b'"lambda_at_y0": 0.99}', None),     # misses the closed-form lambda
    (0, b'{"verdict": "ball", "y0": {"s": 0.1, "kappa": 1.0}, '
        b'"lambda_at_y0": 1.0}', "0" * 64),  # bytes differ from another run
])
def test_oracle_flags_failures(rc, stdout, ref):
    problems = oracles.check(_report_circle(), rc, stdout, 2.0, ref)
    assert problems and not any(known for known, _ in problems)


def test_oracle_separates_the_known_verify_defect():
    stadium = next(i for i in workloads.verify(1)
                   if i["name"] == "verify-stadium")
    known = [{"name": "mean-value", "status": "fail", "rel_residual": 2e-4},
             {"name": "focal", "status": "pass"}]
    problems = oracles.check(stadium, 1, json.dumps(known).encode(), 6.0)
    assert len(problems) == 2 and all(k for k, _ in problems)
    other = [{"name": "focal", "status": "fail"}]
    problems = oracles.check(stadium, 1, json.dumps(other).encode(), 6.0)
    assert problems and not any(k for k, _ in problems)


def test_fourier_shape_is_seeded_and_within_the_convexity_bound():
    assert workloads.fourier_shape(7) == workloads.fourier_shape(7)
    assert workloads.fourier_shape(7) != workloads.fourier_shape(8)
    for seed in range(50):
        spec = workloads.fourier_shape(seed)
        weight = sum((1 + k * k) * (abs(a) + abs(b)) for k, (a, b) in
                     enumerate(zip(spec["cos"], spec["sin"]), start=1))
        assert weight <= workloads.FOURIER_BOUND + 1e-4 < 1.0


def test_benchmark_json_matches_the_metrics_printed():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for m in spec["end_to_end"]:
        assert m["unit"] == run.END_TO_END[m["name"]]
    for m in spec["per_layer"]:
        assert m["unit"] == run.per_layer_unit(m["name"])


def test_run_refuses_a_tree_without_the_program(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "SRC", str(tmp_path))
    assert run.main(["--workload", "grid", "--seconds", "1"]) == 2
