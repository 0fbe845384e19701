"""Slow reference code for the conic solver, kept only as a test oracle.

`holzer_search` is the exhaustive grid walk that `hilbert.conic_has_rational_point`
used before its lattice reduction; it is exact but its cost grows with
sqrt(|bc|) * sqrt(|ac|), so tests call it only on coefficients up to about 100.
`conic_has_rational_point_oracle` is the solver's former body, which
diagonalised on Fractions (`field_oracle.diagonalize_oracle`), mapped the zero
back through the Fraction matrix P and checked it with `conic.evaluate`; tests
compare the integer path against it.
"""
from __future__ import annotations

import math
from typing import Optional

from field_oracle import diagonalize_oracle

from quivermod.clifford import form_from_conic
from quivermod.hilbert import ConicPointResult, _lattice_zero, _locally_isotropic
from quivermod.linalg import factor, mat_vec, primitive_int_vector
from quivermod.models import ConicFiber


def squarefree_decompose(n: int) -> tuple[int, int]:
    """(s, n0) with n = s^2 n0 and n0 squarefree."""
    s = math.prod(p ** (e // 2) for p, e in factor(n).items())
    return s, n // (s * s)


def holzer_search(a: int, b: int, c: int) -> Optional[tuple[int, int, int]]:
    """Nontrivial solution of a x^2 + b y^2 + c z^2 = 0 inside the Holzer bound.

    Requires a, b, c squarefree and pairwise coprime. Signs of solutions are
    free (only squares appear), so the grid is restricted to x, y >= 0.
    """
    x_max = math.isqrt(abs(b * c)) + 1
    y_max = math.isqrt(abs(a * c)) + 1
    for x in range(x_max + 1):
        axx = a * x * x
        for y in range(y_max + 1):
            if x == 0 and y == 0:
                continue
            t = -(axx + b * y * y)
            q, r = divmod(t, c)
            if r != 0 or q < 0:
                continue
            z = math.isqrt(q)
            if z * z == q:
                return (x, y, z)
    return None


def conic_has_rational_point_oracle(conic: ConicFiber) -> ConicPointResult:
    """hilbert.conic_has_rational_point as it was on Fractions (test oracle only)."""
    coeffs, p_mat = diagonalize_oracle(form_from_conic(conic))
    if 0 in coeffs:  # the Gram matrix is congruent to diag(2 coeffs)
        raise ValueError("conic is degenerate")
    solvable, (a, b, c, m, primes) = _locally_isotropic(*coeffs)
    if not solvable:
        return ConicPointResult(False, None)
    found = _lattice_zero(a, b, c, primes)
    witness = primitive_int_vector(mat_vec(p_mat, [mi * t for mi, t in zip(m, found)]))
    if all(t == 0 for t in witness) or conic.evaluate(*witness) != 0:
        raise AssertionError("witness verification failed")
    return ConicPointResult(True, witness)
