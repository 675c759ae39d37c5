import numpy as np
import pytest

from cutloc import _kernels, from_spec
from cutloc.arcs import Arc, CircleArc, SegmentArc
from cutloc.projector import CurveProjector, refine_on_arcs
from cutloc.quadrature import golden_min_vec

CASES = {
    "stadium": {"type": "stadium", "cap_radius": 1.0, "straight_length": 2.0},
    "square": {"type": "square", "side": 2.0},
    "polygon": {"type": "rounded_polygon", "sides": 96, "side_length": 0.2,
                "corner_radius": 0.05},
    # rotation wraps every arc in a TransformedArc: the per-arc base path
    "rotated_7gon": {"type": "rounded_polygon", "sides": 7, "side_length": 1.0,
                     "corner_radius": 0.1, "rotation": 0.4},
}


def test_batch_point_matches_per_arc_point():
    rng = np.random.default_rng(3)
    segments = [SegmentArc(rng.normal(size=2), rng.normal(size=2))
                for _ in range(5)]
    circles = [CircleArc(rng.normal(size=2), rng.uniform(0.1, 3.0),
                         t0, t0 + rng.uniform(0.1, 3.0))
               for t0 in rng.uniform(-3.0, 3.0, 5)]
    for arcs in (segments, circles):
        which = rng.integers(0, len(arcs), 400)
        t = rng.uniform(0.0, 1.0, 400)
        batch = type(arcs[0]).batch_point(arcs, which)
        assert np.array_equal(batch(t), Arc.batch_point(arcs, which)(t))


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


@pytest.mark.parametrize("name", sorted(CASES))
def test_refine_by_arc_class_matches_per_arc_search(name):
    curve = from_spec(CASES[name])
    projector = CurveProjector(curve, m=2048)
    sites = projector.sites
    rng = np.random.default_rng(7)
    xmin, xmax, ymin, ymax = curve.bbox
    points = np.stack([rng.uniform(xmin, xmax, 3000),
                       rng.uniform(ymin, ymax, 3000)], axis=-1)
    # points on the curve, where the bracket meets the arc ends
    points = np.vstack([points, sites.points[::5]])
    idx, _ = _kernels.nearest_site(points, sites.points)
    arc_index = sites.arc_index[idx]
    seed = sites.params[idx]
    dparam = projector.sites.dparam
    got = refine_on_arcs(curve, points, arc_index, seed, dparam)
    assert np.array_equal(got, _refine_per_arc(curve, points, arc_index,
                                               seed, dparam))
    half = rng.uniform(0.5, 6.0, seed.size) * dparam[arc_index]
    got = refine_on_arcs(curve, points, arc_index, seed, dparam,
                         half_width=half)
    assert np.array_equal(got, _refine_per_arc(curve, points, arc_index,
                                               seed, dparam, half_width=half))
