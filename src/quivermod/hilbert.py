"""Rational Hilbert symbols, quaternion splitting, and rational points on conics.

Places are odd primes, 2, and the real place (the string "real"). The symbol
(u, v) at a place is +1 when z^2 = u x^2 + v y^2 has a nontrivial local
solution, -1 otherwise; the quaternion algebra (u, v) splits exactly when all
local symbols are +1, and in that case the norm-form conic has a rational
point. Witness points are produced by Legendre descent to a reduced diagonal
form followed by exhaustive search inside the Holzer height bound, so a failed
search on a locally solvable form is an internal contradiction, not an
inconclusive answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .clifford import QuaternionAlgebra, form_from_conic, quaternion_from_ternary
from .linalg import clear_denominators, factor, mat_vec, primitive_int_vector
from .models import ConicFiber, K3Point, L2Point, k3_conic, l2_conic

REAL_PLACE = "real"

Place = Union[int, str]

Rational = Union[int, Fraction]


@dataclass(frozen=True)
class HilbertSymbolEvaluation:
    place: Place
    value: int


def _square_class_int(u: Rational) -> int:
    """Integer in the same rational square class (numerator times denominator)."""
    f = Fraction(u)
    if f == 0:
        raise ValueError("hilbert symbol arguments must be nonzero")
    return f.numerator * f.denominator


def _split_valuation(n: int, p: int) -> tuple[int, int]:
    alpha = 0
    while n % p == 0:
        n //= p
        alpha += 1
    return alpha, n


def _legendre(a: int, p: int) -> int:
    """Legendre symbol of a mod an odd prime p not dividing a."""
    r = pow(a % p, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def hilbert_symbol(u: Rational, v: Rational, place: Place) -> int:
    """Local Hilbert symbol (u, v) at a prime or the real place."""
    if place != REAL_PLACE and (
        not isinstance(place, int) or place < 2 or factor(place) != {place: 1}
    ):
        raise ValueError(f"place must be a prime or {REAL_PLACE!r}, got {place!r}")
    return _local_symbol(_square_class_int(u), _square_class_int(v), place)


def _local_symbol(a: int, b: int, place: Place) -> int:
    """(a, b) at a place already known to be a prime or the real place."""
    if place == REAL_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    p = place
    alpha, a0 = _split_valuation(a, p)
    beta, b0 = _split_valuation(b, p)
    if p == 2:
        eps_a = ((a0 - 1) // 2) % 2
        eps_b = ((b0 - 1) // 2) % 2
        omega_a = ((a0 * a0 - 1) // 8) % 2
        omega_b = ((b0 * b0 - 1) // 8) % 2
        exponent = eps_a * eps_b + alpha * omega_b + beta * omega_a
        return -1 if exponent % 2 else 1
    sign = 1
    if (alpha * beta * ((p - 1) // 2)) % 2:
        sign = -sign
    if beta % 2:
        sign *= _legendre(a0, p)
    if alpha % 2:
        sign *= _legendre(b0, p)
    return sign


def relevant_places(u: Rational, v: Rational) -> tuple[Place, ...]:
    """Real place, 2, and the odd primes dividing either argument's square class.

    The symbol is +1 at every other place.
    """
    a = _square_class_int(u)
    b = _square_class_int(v)
    odd = sorted((factor(a).keys() | factor(b).keys()) - {2})
    return (REAL_PLACE, 2, *odd)


def symbol_profile(u: Rational, v: Rational) -> tuple[HilbertSymbolEvaluation, ...]:
    a, b = _square_class_int(u), _square_class_int(v)
    return tuple(
        HilbertSymbolEvaluation(place, _local_symbol(a, b, place))
        for place in relevant_places(u, v)
    )


def quaternion_is_split(alg: QuaternionAlgebra) -> bool:
    return all(ev.value == 1 for ev in symbol_profile(alg.u, alg.v))


# ---------------------------------------------------------------------------
# rational points on conics


@dataclass(frozen=True)
class ConicPointResult:
    solvable: bool
    witness: Optional[tuple[int, int, int]]


def _squarefree_decompose(n: int) -> tuple[int, int]:
    """(s, n0) with n = s^2 n0 and n0 squarefree."""
    s = math.prod(p ** (e // 2) for p, e in factor(n).items())
    return s, n // (s * s)


def _legendre_reduce(a: int, b: int, c: int):
    """Reduce diag(a,b,c) to squarefree pairwise coprime coefficients.

    Returns (a', b', c', m) where the diagonal map x_i -> m[i] x_i takes
    solutions of the reduced form to solutions of diag(a,b,c) x^2 = 0.
    """
    m = [Fraction(1)] * 3
    while True:
        g = math.gcd(a, math.gcd(b, c))
        if g > 1:
            a, b, c = a // g, b // g, c // g
            continue
        sa, a0 = _squarefree_decompose(a)
        if sa > 1:
            a = a0
            m[0] /= sa
            continue
        sb, b0 = _squarefree_decompose(b)
        if sb > 1:
            b = b0
            m[1] /= sb
            continue
        sc, c0 = _squarefree_decompose(c)
        if sc > 1:
            c = c0
            m[2] /= sc
            continue
        g = math.gcd(a, b)
        if g > 1:
            a, b, c = a // g, b // g, c * g
            m[2] *= g
            continue
        g = math.gcd(a, c)
        if g > 1:
            a, b, c = a // g, b * g, c // g
            m[1] *= g
            continue
        g = math.gcd(b, c)
        if g > 1:
            a, b, c = a * g, b // g, c // g
            m[0] *= g
            continue
        return a, b, c, m


def _holzer_search(a: int, b: int, c: int) -> Optional[tuple[int, int, int]]:
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


def conic_has_rational_point(conic: ConicFiber) -> ConicPointResult:
    """Decide solvability of the plane conic and produce a primitive witness.

    The decision is local: diagonalize to <alpha, beta, gamma> and check the
    symbol (-alpha gamma, -beta gamma) at the relevant places. When solvable,
    the witness comes from Legendre descent plus a Holzer-bounded search and is
    verified exactly against the input conic; failure of that search raises
    RuntimeError since it would contradict the local decision.
    """
    if not conic.is_nondegenerate:
        raise ValueError("conic is degenerate")
    form = form_from_conic(conic)
    coeffs, p_mat = form.diagonalize()
    alpha, beta, gamma = coeffs
    solvable = quaternion_is_split(QuaternionAlgebra(-alpha * gamma, -beta * gamma))
    if not solvable:
        return ConicPointResult(False, None)
    a, b, c, m = _legendre_reduce(*clear_denominators(coeffs))
    found = _holzer_search(a, b, c)
    if found is None:
        raise RuntimeError(
            "locally solvable conic with no witness inside the Holzer bound"
        )
    witness = primitive_int_vector(mat_vec(p_mat, [mi * t for mi, t in zip(m, found)]))
    if all(t == 0 for t in witness) or conic.evaluate(*witness) != 0:
        raise AssertionError("witness verification failed")
    return ConicPointResult(True, witness)


def clifford_invariant_of_model_point(
    point: Union[L2Point, K3Point]
) -> tuple[QuaternionAlgebra, bool]:
    """Quaternion class of the conic fiber over a stable model point, with verdict.

    Stability is h != 0; the quaternion is extracted from the fiber conic and
    the verdict is its splitting over the rationals.
    """
    if isinstance(point, L2Point):
        conic = l2_conic(point)
    elif isinstance(point, K3Point):
        conic = k3_conic(point)
    else:
        raise TypeError(f"expected a model point, got {type(point).__name__}")
    if point.h == 0:
        raise ValueError("point is not stable (h = 0)")
    quat = quaternion_from_ternary(form_from_conic(conic))
    return quat, quaternion_is_split(quat)
