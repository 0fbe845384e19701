"""Conic fitting through sampled points, kept only as a test oracle.

`fit_conic_through_semiinvariants` recovers the conic of the triples model
from the semiinvariants of sample framing vectors by exact linear algebra,
independently of the closed-form coefficient pattern that `models.k3_conic`
returns. Tests compare the two; no CLI path or library function calls it.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from quivermod.linalg import nullspace
from quivermod.models import ConicFiber, k3_semiinvariants


def fit_conic(points: Sequence[tuple[Fraction, Fraction, Fraction]]) -> Optional[ConicFiber]:
    """Unique conic through the given points, or None if not unique up to scale.

    Rows are the monomials (x^2, y^2, z^2, xy, xz, yz); the conic exists and is
    unique exactly when the kernel of the sample matrix is one-dimensional. The
    result is scaled to integer coefficients with positive leading entry.
    """
    rows = []
    for x, y, z in points:
        x, y, z = Fraction(x), Fraction(y), Fraction(z)
        rows.append([x * x, y * y, z * z, x * y, x * z, y * z])
    kernel = nullspace(rows)
    if len(kernel) != 1:
        return None
    coeffs = [Fraction(c) for c in kernel[0]]
    return ConicFiber(xx=coeffs[0], yy=coeffs[1], zz=coeffs[2], xy=coeffs[3], xz=coeffs[4], yz=coeffs[5])


def fit_conic_through_semiinvariants(
    a_mat: Sequence[Sequence],
    b_mat: Sequence[Sequence],
    c_mat: Sequence[Sequence],
    samples: Optional[Sequence[Sequence]] = None,
) -> Optional[ConicFiber]:
    """Fit the conic through semiinvariant images of sample framing vectors."""
    if samples is None:
        samples = [(1, 0), (0, 1), (1, 1), (1, -1), (1, 2), (2, 1), (1, 3), (3, 1), (2, 3)]
    pts = [k3_semiinvariants(a_mat, b_mat, c_mat, v) for v in samples]
    return fit_conic(pts)
