"""One analysis context per domain.

The criterion and its two PDE applications read the same few quantities
of one domain: the cut values over the boundary, the curvature maximum y0
with its cut value and phi, the cut values along the fan of each concave
corner, and |Omega| / |boundary|.  The corners themselves are the curve's
(BoundaryCurve.corners, corner_status).  A Domain wraps the one cut
table a run reads first, uniform or at composite-midpoint nodes, and
computes each of the other quantities at most once, when it is first
read.  Every cut value it computes uses the curve's site table and the
table's absolute tolerance.
"""

from functools import cached_property

import numpy as np

from .cutlocus import corner_fans, cut_table, cut_value, phi
from .integrals import area
from .symmetry import diameter, refine_max_curvature

__all__ = ["Domain"]

# fewest samples of the midpoint table behind the ray integrals
_MIDPOINT_MIN = 2048


class Domain:
    """Lazily cached analysis quantities of the curve of a CutTable.

    The table seeds y0 and corner_fans; the ray integrals read the
    midpoint table, which is the table itself for a Domain.at_midpoints.
    """

    def __init__(self, table):
        self.table = table

    @classmethod
    def at_midpoints(cls, curve, n, tol):
        """A Domain whose one table is the midpoint table of max(n, 2048)
        nodes, with absolute tolerance tol."""
        table, weight = _midpoint_table(curve, max(n, _MIDPOINT_MIN), tol)
        dom = cls(table)
        dom._midpoint = table, weight
        return dom

    @property
    def curve(self):
        return self.table.curve

    @property
    def tol(self):
        """Absolute cut-value tolerance."""
        return self.table.tol

    @property
    def midpoint_table(self):
        """Cut table at composite-midpoint nodes on each arc.

        max(len(table), 2048) nodes in total, split across the arcs in
        proportion to arc length, at least one per arc.  A rule across a
        junction would straddle the jump of phi where the curvature jumps.
        """
        return self._midpoint[0]

    @property
    def midpoint_weight(self):
        """Arclength weight of each midpoint-table node: its arc's length
        over its arc's node count."""
        return self._midpoint[1]

    @cached_property
    def _midpoint(self):
        return _midpoint_table(self.curve, max(len(self.table), _MIDPOINT_MIN),
                               self.tol)

    @cached_property
    def corner_fans(self):
        """Fan cut tables of the concave corners (cutlocus.corner_fans)."""
        return corner_fans(self.table)

    @cached_property
    def starshaped(self):
        return self.curve.check_starshaped()[0]

    @cached_property
    def _max_curvature(self):
        return refine_max_curvature(self.table)

    @property
    def y0(self):
        """Boundary point of maximal curvature (a BoundaryPoint)."""
        return self._max_curvature[0]

    @property
    def H_max(self):
        return self._max_curvature[1]

    @cached_property
    def lambda_y0(self):
        return cut_value(self.curve, self.y0, tol=self.tol)

    @cached_property
    def phi_y0(self):
        """phi(lambda(y0), H_max), the criterion's value at y0."""
        return float(phi(self.lambda_y0, self.H_max))

    @cached_property
    def area(self):
        return area(self.curve)

    @property
    def ratio(self):
        """|Omega| / |boundary|, the boundary length being curve.length."""
        return self.area / self.curve.length

    @property
    def phi_slack(self):
        """Slack of the phi hypothesis phi(y0) >= ratio - phi_slack.

        1e-4 of the ratio itself: a slack scaled by the diameter exceeds
        the ratio on slender domains and makes the hypothesis vacuous.
        """
        return 1e-4 * self.ratio

    @cached_property
    def diameter(self):
        return diameter(self.curve)


def _midpoint_table(curve, n, tol):
    """(cut table, weights) at n composite-midpoint nodes on the arcs."""
    lengths = curve.arc_lengths
    share = n * lengths / np.sum(lengths)
    k = np.maximum(1, np.floor(share).astype(int))
    short = n - int(np.sum(k))
    if short > 0:
        k[np.argsort(k - share, kind="stable")[:short]] += 1
    arc = np.repeat(np.arange(k.size), k)
    j = np.arange(arc.size) - np.repeat(np.cumsum(k) - k, k)
    start = np.cumsum(lengths) - lengths
    weight = (lengths / k)[arc]
    s = start[arc] + (j + 0.5) * weight
    table = cut_table(curve, tol=tol, samples=curve.geometry_at_s(s))
    return table, weight
