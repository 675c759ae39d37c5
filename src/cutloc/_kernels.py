"""Hot kernels: nearest-site scans, the singular-set flag, the inside test.

All kernels are numpy only.  Distance ties break toward the lowest site
index, so results are bit-identical run to run.

``nearest_site_gap`` is exact but not brute force: the cyclic site table is
cut into contiguous blocks of ``_BLOCK`` sites, each with a bounding disc,
and a block is scanned only when its disc can hold a site within
``best + threshold`` of the query (bounding-volume branch and bound for
nearest neighbours, Fukunaga & Narendra 1975).  Sites in a pruned block
are neither the nearest site nor a competitor that could set the flag, so
pruning changes no output bit.

Every nearest-site scan works in bounded memory, sized by the pairs it
evaluates: one budget, ``_PAIR_BUDGET`` distances per temporary, sets the
rows of the brute scan, the query strips of the pruning test, the runs of
kept (query, block) pairs in the gap scan and the work buffers of the
shrinking-ball pass (``cutlocus._ball_cut``).  Each pair is still
evaluated with the same arithmetic, and results do not depend on how the
queries are cut.
"""

import numpy as np

__all__ = [
    "backend",
    "nearest_site",
    "nearest_site_gap",
    "inside_polygon",
]

_BLOCK = 32

# (query, site) distances per temporary of a nearest-site scan, 8 bytes
# each: 256 kB, small enough to stay in cache.  A chunk holds at least one
# query, so a single query may exceed it.  Timed from 2^14 to 2^17 against
# 4096 sites: 2^15 and 2^16 tie on the gap scan, and 2^15 gives the faster
# ball pass and brute scan.
_PAIR_BUDGET = 1 << 15


def backend():
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


def _as_xy(arr):
    a = np.ascontiguousarray(arr, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] != 2:
        raise ValueError("expected an (n, 2) array")
    return np.ascontiguousarray(a[:, 0]), np.ascontiguousarray(a[:, 1])


def nearest_site(queries, sites):
    """Index of and distance to the nearest site for each query point."""
    qx, qy = _as_xy(queries)
    sx, sy = _as_xy(sites)
    n, m = qx.size, sx.size
    idx = np.empty(n, np.int64)
    dist = np.empty(n, np.float64)
    chunk = max(1, _PAIR_BUDGET // max(m, 1))
    for a in range(0, n, chunk):
        b = min(n, a + chunk)
        dx = qx[a:b, None] - sx[None, :]
        dy = qy[a:b, None] - sy[None, :]
        d2 = dx * dx + dy * dy
        ii = np.argmin(d2, axis=1)
        idx[a:b] = ii
        dist[a:b] = np.sqrt(d2[np.arange(b - a), ii])
    return idx, dist


def nearest_site_gap(queries, sites, site_s, length, min_sep, threshold,
                     corner_s=None):
    """Nearest site plus the thresholded multiplicity gap.

    Returns (idx, dist, flag).  ``flag`` is ``gap <= threshold``, where the
    gap is (second-best - best) and second-best runs over sites that are
    local minima of the per-query distance sequence (cyclic in the site
    ordering) and either ``min_sep`` away from the argmin in cyclic
    arclength ``site_s`` or across one of the ``corner_s`` arclengths,
    capped by the largest site distance so that flat profiles (centres of
    disk-like regions) register as ambiguous.
    """
    qx, qy = _as_xy(queries)
    sx, sy = _as_xy(sites)
    ss = np.ascontiguousarray(site_s, dtype=np.float64)
    if corner_s is None:
        cs = np.empty(0, dtype=np.float64)
    else:
        cs = np.ascontiguousarray(corner_s, dtype=np.float64)
    length = float(length)
    min_sep = float(min_sep)
    threshold = float(threshold)

    n, m = qx.size, sx.size
    nb = -(-m // _BLOCK)
    # Block b scans columns b*_BLOCK - 1 .. b*_BLOCK + _BLOCK (cyclic): the
    # sites it owns plus one neighbour either side for the local-minimum
    # test.  Columns past site m - 1 wrap to sites owned by block 0 and
    # serve only as neighbours.
    cols = (np.arange(nb)[:, None] * _BLOCK - 1 + np.arange(_BLOCK + 2)) % m
    own = (np.arange(nb)[:, None] * _BLOCK + np.arange(_BLOCK)) < m
    bx, by = sx[cols[:, 1:-1]], sy[cols[:, 1:-1]]
    cx = 0.5 * (np.min(bx, axis=1, where=own, initial=np.inf)
                + np.max(bx, axis=1, where=own, initial=-np.inf))
    cy = 0.5 * (np.min(by, axis=1, where=own, initial=np.inf)
                + np.max(by, axis=1, where=own, initial=-np.inf))
    radius = np.max(np.hypot(bx - cx[:, None], by - cy[:, None]), axis=1,
                    where=own, initial=0.0)
    # Covers the rounding of every distance and bound below.
    scale = max(np.max(np.abs(sx)), np.max(np.abs(sy)),
                np.max(np.abs(qx), initial=0.0), np.max(np.abs(qy), initial=0.0))
    slack = 1e-9 * (1.0 + scale)
    radius = radius + slack

    idx = np.empty(n, np.int64)
    dist = np.empty(n, np.float64)
    flag = np.empty(n, bool)
    # The pruning test runs on strips of queries x blocks; each strip is
    # then scanned in runs of consecutive queries whose kept (query, block)
    # pairs, _BLOCK + 2 distances each, fit the budget.
    strip = max(1, _PAIR_BUDGET // nb)
    run_pairs = _PAIR_BUDGET // (_BLOCK + 2)
    for a in range(0, n, strip):
        b = min(n, a + strip)
        keep = _prune(qx[a:b], qy[a:b], cx, cy, radius, threshold, slack)
        end = np.cumsum(np.count_nonzero(keep, axis=1))
        lo = 0
        while lo < b - a:
            done = end[lo - 1] if lo else 0
            hi = max(lo + 1, int(np.searchsorted(end, done + run_pairs,
                                                 side="right")))
            q = slice(a + lo, a + hi)
            idx[q], dist[q], flag[q] = _gap_chunk(
                qx[q], qy[q], keep[lo:hi], sx, sy, ss, cols, own, length,
                min_sep, threshold, cs)
            lo = hi
    return idx, dist, flag


def _prune(qx, qy, cx, cy, radius, threshold, slack):
    """(query, block) mask of the blocks whose disc can hold a site within
    ``threshold`` (plus the rounding ``slack``) of the nearest site."""
    ex = qx[:, None] - cx[None, :]
    ey = qy[:, None] - cy[None, :]
    dc = np.sqrt(ex * ex + ey * ey)
    upper = np.min(dc + radius, axis=1)
    return dc - radius <= (upper + threshold + slack)[:, None]


def _gap_chunk(qx, qy, keep, sx, sy, ss, cols, own, length, min_sep,
               threshold, cs):
    nb = keep.shape[1]
    # (query, block) pairs in row-major order: grouped by query, blocks
    # ascending, so scanning them in order visits sites by ascending index.
    row, blk = np.nonzero(keep)
    counts = np.count_nonzero(keep, axis=1)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))

    c = cols[blk]
    dx = qx[row][:, None] - sx[c]
    dy = qy[row][:, None] - sy[c]
    d = np.sqrt(dx * dx + dy * dy)
    core = d[:, 1:-1]
    locmin = (core <= d[:, :-2]) & (core <= d[:, 2:])
    mine = own[blk]
    core_own = np.where(mine, core, np.inf)

    # argmin per query, ties to the lowest site index
    j_pair = np.argmin(core_own, axis=1)
    pair_best = core_own[np.arange(row.size), j_pair]
    best = np.minimum.reduceat(pair_best, starts)
    first = np.where(pair_best == best[row], np.arange(row.size), row.size)
    win = np.minimum.reduceat(first, starts)
    ii = c[win, 1 + j_pair[win]]

    # Competitors: local minima within threshold of the best.  Only these
    # few need the arclength test.
    near = (core_own - best[row][:, None]) <= threshold
    r, j = np.nonzero(locmin & near)
    s0 = ss[ii][row[r]]
    sj = ss[c[r, 1 + j]]
    ds = np.abs(sj - s0)
    ds = np.minimum(ds, length - ds)
    ok = ds >= min_sep
    if cs.size:
        # competitors whose shorter boundary path to the argmin crosses a
        # corner are genuinely distinct projections even at small
        # separation (feet straddling a convex corner)
        lo = np.minimum(sj, s0)
        hi = np.maximum(sj, s0)
        direct = (hi - lo) <= 0.5 * length
        for corner in cs:
            inside_int = (lo <= corner) & (corner <= hi)
            ok |= np.where(direct, inside_int, ~inside_int)
    flag = np.zeros(qx.size, bool)
    flag[row[r[ok]]] = True

    # A nearly flat distance profile (disk-like centre) never produces a
    # second local minimum; the largest site distance catches that
    # degeneracy.  A pruned block holds a site farther than best +
    # threshold, so the cap can only fire where every block was kept.
    flat = counts == nb
    if np.any(flat):
        pair_max = np.max(core, axis=1, where=mine, initial=-np.inf)
        dmax = np.maximum.reduceat(pair_max, starts)
        flag |= flat & (dmax - best <= threshold)
    return ii, best, flag


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
    heights, row = np.unique(qy, return_inverse=True)
    order = np.argsort(row, kind="stable")
    bounds = np.searchsorted(row[order], np.arange(heights.size + 1))
    inside = np.zeros(qx.size, bool)
    for r, y in enumerate(heights):
        up = np.flatnonzero((py <= y) & (y < y1))
        dn = np.flatnonzero((y1 <= y) & (y < py))
        k = order[bounds[r]:bounds[r + 1]]
        x = qx[k][:, None]
        crossings = (np.count_nonzero(_cross(x, y, px, py, x1, y1, up) > 0, axis=1)
                     + np.count_nonzero(_cross(x, y, px, py, x1, y1, dn) < 0, axis=1))
        inside[k] = crossings % 2 == 1
    return inside


def _cross(x, y, px, py, x1, y1, e):
    return (x1[e] - px[e]) * (y - py[e]) - (x - px[e]) * (y1[e] - py[e])
