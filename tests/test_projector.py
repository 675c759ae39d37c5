import numpy as np
import pytest

from conftest import traced_peak_mb
from cutloc import _kernels, from_spec
from cutloc.arcs import ArcTable, CircleArc, SegmentArc, TransformedArc
from cutloc.distfield import GridSpec
from cutloc.projector import refine_on_arcs
from cutloc.quadrature import golden_min_vec
from grid_oracle import refine_in_brackets

CASES = {
    "stadium": {"type": "stadium", "cap_radius": 1.0, "straight_length": 2.0},
    "square": {"type": "square", "side": 2.0},
    "polygon": {"type": "rounded_polygon", "sides": 96, "side_length": 0.2,
                "corner_radius": 0.05},
    # rotation wraps every arc in a TransformedArc: the per-arc base path
    "rotated_7gon": {"type": "rounded_polygon", "sides": 7, "side_length": 1.0,
                     "corner_radius": 0.1, "rotation": 0.4},
    "ellipse": {"type": "ellipse", "a": 2.0, "b": 1.0},
    "superellipse": {"type": "superellipse", "a": 1.0, "b": 0.7, "p": 4.0},
    "fourier": {"type": "fourier", "a0": 1.0,
                "cos": [0.0, -0.003802, 0.002743, -4.7e-05, 0.001576],
                "sin": [0.0, 0.003613, -0.002547, -0.000525, 0.003003]},
}


def test_per_arc_stacked_rows_match_each_arcs_rows():
    # several arcs of one kind evaluate through their kind's stack
    # (Arc.stack), on per-row coefficients; a TransformedArc stacks its
    # bases as well
    rng = np.random.default_rng(3)
    segments = [SegmentArc(rng.normal(size=2), rng.normal(size=2))
                for _ in range(5)]
    circles = [CircleArc(rng.normal(size=2), rng.uniform(0.1, 3.0),
                         t0, t0 + rng.uniform(0.1, 3.0))
               for t0 in rng.uniform(-3.0, 3.0, 5)]
    mixed = [TransformedArc(arc, scale=rng.uniform(0.5, 2.0),
                            rotation=rng.uniform(-3.0, 3.0),
                            shift=rng.normal(size=2))
             for arc in segments + circles]
    evaluators = ("point", "velocity", "acceleration")
    for arcs in (segments, circles, mixed, [TransformedArc(a) for a in mixed]):
        which = rng.integers(0, len(arcs), 400)
        t = rng.uniform(0.0, 1.0, 400)
        got = ArcTable(arcs).evaluate(which, *evaluators)(t)
        for name, rows in zip(evaluators, got):
            want = np.concatenate([getattr(arcs[k], name)(t[i:i + 1])
                                   for i, k in enumerate(which)])
            assert np.array_equal(rows, want)


def _refine_per_arc(curve, points, arc_index, seed_param, dparam,
                    half_width=None):
    """Reference: one golden-section search per arc."""
    param = np.empty(seed_param.size)
    for a in np.unique(arc_index):
        m = arc_index == a
        arc = curve.arcs[a]
        half = dparam[int(a)] if half_width is None else half_width[m]
        lo = np.maximum(seed_param[m] - half, arc.t0)
        hi = np.minimum(seed_param[m] + half, arc.t1)
        pts = points[m]

        def dist2(p, arc=arc, pts=pts):
            delta = arc.point(p) - pts
            return np.einsum("ij,ij->i", delta, delta)

        param[m], _ = golden_min_vec(dist2, lo, hi)
    return param


def _ellipse_focal_points(a, b, rng):
    """Points on and next to the ellipse's evolute, its focal set.

    There the foot is ill-conditioned: |Y - x|^2 is flat to fourth order
    at the cusps, and beyond the evolute the seed's neighbourhood holds a
    local maximum between two minima.
    """
    t = np.linspace(0.0, 2.0 * np.pi, 64, endpoint=False)
    c = a * a - b * b
    evolute = np.stack([c / a * np.cos(t) ** 3, -c / b * np.sin(t) ** 3],
                       axis=-1)
    cusps = np.array([[c / a, 0.0], [-c / a, 0.0], [0.0, c / b],
                      [0.0, -c / b]])
    near = np.vstack([evolute, cusps])
    jitter = [np.zeros_like(near)] + [
        scale * rng.normal(size=near.shape) for scale in (1e-9, 1e-6, 1e-3)]
    return np.vstack([near + j for j in jitter])


def _bracket(curve, arc_index, seed, dparam, half_width):
    half = dparam[arc_index] if half_width is None else half_width
    t0 = np.array([arc.t0 for arc in curve.arcs])[arc_index]
    t1 = np.array([arc.t1 for arc in curve.arcs])[arc_index]
    return np.maximum(seed - half, t0), np.minimum(seed + half, t1)


def _foot_dist(curve, points, arc_index, param):
    return np.linalg.norm(points - curve.geometry(arc_index, param).position,
                          axis=1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_refine_by_arc_class_matches_per_arc_search(name):
    # closed-form and Newton feet against one golden-section search per
    # arc: inside the same bracket, and no farther from the query than the
    # reference's foot beyond 4 ulp of the curve's extent; for the
    # site-step brackets of refine_on_arcs and the wider per-row brackets
    # of the grid oracle's search
    curve = from_spec(CASES[name])
    sites = curve.sites
    rng = np.random.default_rng(7)
    xmin, xmax, ymin, ymax = curve.bbox
    points = np.stack([rng.uniform(xmin, xmax, 3000),
                       rng.uniform(ymin, ymax, 3000)], axis=-1)
    # points on the curve, where the bracket meets the arc ends
    points = np.vstack([points, sites.points[::5]])
    if name == "ellipse":
        points = np.vstack([points, _ellipse_focal_points(2.0, 1.0, rng)])
    idx, _ = _kernels.nearest_site(points, sites.points)
    arc_index = sites.arc_index[idx]
    seed = sites.params[idx]
    dparam = sites.dparam
    slack = 4.0 * np.spacing(curve.extent)
    half = rng.uniform(0.5, 6.0, seed.size) * dparam[arc_index]

    def search(rows, half_width):
        if half_width is None:
            return refine_on_arcs(curve, points[rows], arc_index[rows],
                                  seed[rows], dparam)
        return refine_in_brackets(curve, points[rows], arc_index[rows],
                                  seed[rows], half_width[rows])

    every = np.arange(seed.size)
    for half_width in (None, half):
        got = search(every, half_width)
        want = _refine_per_arc(curve, points, arc_index, seed, dparam,
                               half_width=half_width)
        lo, hi = _bracket(curve, arc_index, seed, dparam, half_width)
        assert np.all((lo <= got) & (got <= hi))
        excess = (_foot_dist(curve, points, arc_index, got)
                  - _foot_dist(curve, points, arc_index, want))
        assert np.max(excess) <= slack
        # a row's foot does not depend on the rows searched with it
        some = every[::3]
        assert np.array_equal(search(some, half_width), got[some])


def test_foot_memory_is_bounded():
    # 65 536 grid cells: the searches run on bounded row blocks, so their
    # temporaries do not grow with the number of queries
    curve = from_spec(CASES["ellipse"])
    sites = curve.sites
    points = GridSpec.from_curve(curve, nx=256).centers()
    idx, _ = _kernels.nearest_site(points, sites.points)
    peak = traced_peak_mb(refine_on_arcs, curve, points, sites.arc_index[idx],
                          sites.params[idx], sites.dparam)
    assert peak <= 6.0
