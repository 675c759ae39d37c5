"""Hot kernels: the nearest-site scan and the inside test.

All kernels are numpy only.  Distance ties break toward the lowest site
index, so results are bit-identical run to run.

``nearest_site`` is exact but not brute force: the site table is cut into
contiguous blocks of ``_BLOCK`` sites, each with a bounding disc, and a
block is scanned only when its disc can hold a site as near as the
nearest disc's far side (bounding-volume branch and bound for nearest
neighbours, Fukunaga & Narendra 1975).  A pruned block holds no site at
the nearest distance, so pruning changes no output bit.

Every nearest-site scan works in bounded memory, sized by the pairs it
evaluates: one budget, ``boundary._PAIR_BUDGET`` distances per temporary,
sets the query strips of the pruning test, the runs of kept (query,
block) pairs and the work buffers of the shrinking-ball pass
(``cutlocus._ball_cut``); it also sizes the crossing test of curve
validation.  A chunk holds at least one query, so a single query may
exceed it.  Each pair is still evaluated with the same arithmetic, and
results do not depend on how the queries are cut.
"""

import numpy as np

from .boundary import _PAIR_BUDGET

__all__ = [
    "backend",
    "nearest_site",
    "inside_polygon",
]

_BLOCK = 32


def backend():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def _as_xy(arr):
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError("expected an (n, 2) array")
    return np.ascontiguousarray(a[:, 0]), np.ascontiguousarray(a[:, 1])


def nearest_site(queries, sites):
    """Index of and distance to the nearest site for each query point.

    Squared distances are compared and ties go to the lowest site index,
    so the result is that of a dense argmin over every site.  Each chunk
    of queries first keeps the blocks whose disc can hold a site as near
    as the nearest disc's far side, then scans the kept (query, block)
    pairs in order: grouped by query, blocks ascending, so the first
    minimum met is at the lowest index.
    """
    qx, qy = _as_xy(queries)
    sx, sy = _as_xy(sites)
    n, m = qx.size, sx.size
    nb = -(-m // _BLOCK)
    # the last block is padded with copies of the last site: the same
    # distance at a later column, so never the first minimum
    cols = np.minimum(np.arange(nb * _BLOCK), m - 1).reshape(nb, _BLOCK)
    bx, by = sx[cols], sy[cols]
    cx = 0.5 * (np.min(bx, axis=1) + np.max(bx, axis=1))
    cy = 0.5 * (np.min(by, axis=1) + np.max(by, axis=1))
    radius = np.max(np.hypot(bx - cx[:, None], by - cy[:, None]), axis=1)
    # Covers the rounding of every distance and bound below.
    scale = max(np.max(np.abs(sx)), np.max(np.abs(sy)),
                np.max(np.abs(qx), initial=0.0), np.max(np.abs(qy), initial=0.0))
    slack = 1e-9 * (1.0 + scale)
    radius = radius + slack

    idx = np.empty(n, np.int64)
    dist = np.empty(n, np.float64)
    # The pruning test runs on strips of queries x blocks; each strip is
    # then scanned in runs of consecutive queries whose kept (query, block)
    # pairs, _BLOCK distances each, fit the budget.
    strip = max(1, _PAIR_BUDGET // nb)
    run_pairs = _PAIR_BUDGET // _BLOCK
    # one set of work buffers for the strips and runs, as in
    # cutlocus._ball_cut: a strip's distances to the discs, then a run's
    # coordinate differences, and the run's site indices.  A run holds at
    # most max(run_pairs, nb) pairs (a single query may exceed the budget),
    # and a strip no more floats.
    size = min(n * nb, max(run_pairs, nb)) * _BLOCK
    work = np.empty((2, size))
    cbuf = np.empty(size, np.int64)
    for a in range(0, n, strip):
        b = min(n, a + strip)
        ex = work[0, :(b - a) * nb].reshape(b - a, nb)
        ey = work[1, :(b - a) * nb].reshape(b - a, nb)
        np.subtract(qx[a:b, None], cx, out=ex)
        np.subtract(qy[a:b, None], cy, out=ey)
        np.multiply(ex, ex, out=ex)
        np.multiply(ey, ey, out=ey)
        dc = np.sqrt(np.add(ex, ey, out=ex), out=ex)
        near = np.min(np.add(dc, radius, out=ey), axis=1) + slack
        keep = np.subtract(dc, radius, out=ey) <= near[:, None]
        end = np.cumsum(np.count_nonzero(keep, axis=1))
        lo = 0
        while lo < b - a:
            done = end[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(end, done + run_pairs,
                                                 side="right")))
            q = slice(a + lo, a + hi)
            row, blk = np.nonzero(keep[lo:hi])
            starts = np.searchsorted(row, np.arange(hi - lo))
            r = row.size * _BLOCK
            c = np.take(cols, blk, axis=0, out=cbuf[:r].reshape(-1, _BLOCK))
            dx = np.take(sx, c, out=work[0, :r].reshape(-1, _BLOCK))
            dy = np.take(sy, c, out=work[1, :r].reshape(-1, _BLOCK))
            np.subtract(qx[q][row, None], dx, out=dx)
            np.subtract(qy[q][row, None], dy, out=dy)
            np.multiply(dx, dx, out=dx)
            np.multiply(dy, dy, out=dy)
            d2 = np.add(dx, dy, out=dx)
            j = np.argmin(d2, axis=1)
            pair_best = d2[np.arange(row.size), j]
            best = np.minimum.reduceat(pair_best, starts)
            first = np.where(pair_best == best[row], np.arange(row.size),
                             row.size)
            win = np.minimum.reduceat(first, starts)
            idx[q] = c[win, j[win]]
            dist[q] = np.sqrt(best)
            lo = hi
    return idx, dist


def inside_polygon(queries, polygon):
    """Even-odd inside test of each query against a closed simple polyline.

    Queries are grouped by height; per height, only the edges whose
    half-open span [y0, y1) holds it are tested, and a query is inside when
    an odd number of them cross to its right.
    """
    qx, qy = _as_xy(queries)
    px, py = _as_xy(polygon)
    x1 = np.roll(px, -1)
    y1 = np.roll(py, -1)
    inside = np.zeros(qx.size, bool)
    if not qx.size:
        return inside
    # one stable sort groups the queries by height, in input order within
    # a height
    order = np.argsort(qy, kind="stable")
    heights = qy[order]
    edges = np.flatnonzero(heights[1:] != heights[:-1]) + 1
    for k in np.split(order, edges):
        y = qy[k[0]]
        up = np.flatnonzero((py <= y) & (y < y1))
        dn = np.flatnonzero((y1 <= y) & (y < py))
        x = qx[k][:, None]
        crossings = (np.count_nonzero(_cross(x, y, px, py, x1, y1, up) > 0, axis=1)
                     + np.count_nonzero(_cross(x, y, px, py, x1, y1, dn) < 0, axis=1))
        inside[k] = crossings % 2 == 1
    return inside


def _cross(x, y, px, py, x1, y1, e):
    return (x1[e] - px[e]) * (y - py[e]) - (x - px[e]) * (y1[e] - py[e])
