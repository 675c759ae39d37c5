"""Scalar fields on the plane: polynomials in x and y.

Bulk integrands and source terms are restricted to bivariate polynomials,
which keeps ray quadrature exact (fixed-order Gauss-Legendre suffices) and
avoids arbitrary-callable plumbing in the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["ScalarField", "constant"]


@dataclass(frozen=True)
class ScalarField:
    """Polynomial field sum_k c_k x^i_k y^j_k."""

    terms: Tuple[Tuple[int, int, float], ...]

    def __call__(self, points):
        p = np.asarray(points, dtype=float)
        x = p[..., 0]
        y = p[..., 1]
        out = np.zeros_like(x)
        for i, j, c in self.terms:
            out = out + c * x ** i * y ** j
        return out

    @property
    def degree(self) -> int:
        return max((i + j for i, j, c in self.terms if c != 0.0), default=0)


def constant(gamma) -> ScalarField:
    return ScalarField(terms=((0, 0, float(gamma)),))
