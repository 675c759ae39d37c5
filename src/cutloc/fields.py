"""Scalar fields on the plane: constants, coordinates, |x|^2, polynomials.

Bulk integrands and source terms are restricted to bivariate polynomials,
which keeps ray quadrature exact (fixed-order Gauss-Legendre suffices) and
avoids arbitrary-callable plumbing in the CLI.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .errors import ConstructionError

__all__ = ["ScalarField", "constant", "coordinate", "abs2", "polynomial",
           "parse_field"]


@dataclass(frozen=True)
class ScalarField:
    """Polynomial field sum_k c_k x^i_k y^j_k with a human-readable tag."""

    kind: str
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
    return ScalarField(kind="constant", terms=((0, 0, float(gamma)),))


def coordinate(axis: int) -> ScalarField:
    if axis not in (0, 1):
        raise ConstructionError("axis must be 0 (x) or 1 (y)")
    term = (1, 0, 1.0) if axis == 0 else (0, 1, 1.0)
    return ScalarField(kind="coordinate", terms=(term,))


def abs2() -> ScalarField:
    """|x|^2 = x^2 + y^2."""
    return ScalarField(kind="abs2", terms=((2, 0, 1.0), (0, 2, 1.0)))


def polynomial(terms) -> ScalarField:
    """Field from an iterable of (i, j, coefficient) monomial triples."""
    norm = []
    for t in terms:
        i, j, c = t
        if int(i) < 0 or int(j) < 0:
            raise ConstructionError("monomial exponents must be nonnegative")
        norm.append((int(i), int(j), float(c)))
    if not norm:
        raise ConstructionError("polynomial needs at least one term")
    return ScalarField(kind="polynomial", terms=tuple(norm))


def parse_field(text: str) -> ScalarField:
    """Field from a short spec string: a number, 'x', 'y', or 'abs2'."""
    t = text.strip().lower()
    if t == "x":
        return coordinate(0)
    if t == "y":
        return coordinate(1)
    if t in ("abs2", "r2", "|x|^2"):
        return abs2()
    try:
        return constant(float(t))
    except ValueError:
        raise ConstructionError(f"unknown field spec {text!r}")
