"""Small exact linear algebra over an arbitrary field, and the integer helpers
the other modules share: bounded factoring and clearing denominators.

Elimination works over Fraction (characteristic 0; int entries are coerced to
Fraction) and over GFElement (prime fields). No floating point anywhere.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence


class GFElement:
    """An element of the prime field Z/p. Arithmetic stays exact mod p."""

    __slots__ = ("p", "v")

    def __init__(self, p: int, v: int):
        self.p = p
        self.v = v % p

    def _coerce(self, other):
        if isinstance(other, GFElement):
            if other.p != self.p:
                raise ValueError("mixed characteristics")
            return other
        if isinstance(other, int):
            return GFElement(self.p, other)
        if isinstance(other, Fraction):
            if other.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator divisible by {self.p}")
            return GFElement(self.p, other.numerator * pow(other.denominator, -1, self.p))
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else GFElement(self.p, self.v + o.v)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else GFElement(self.p, self.v - o.v)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else GFElement(self.p, o.v - self.v)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is NotImplemented else GFElement(self.p, self.v * o.v)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return GFElement(self.p, self.v * pow(o.v, self.p - 2, self.p))

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GFElement(self.p, -self.v)

    def __eq__(self, other):
        if isinstance(other, GFElement):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.p, self.v))

    def __bool__(self):
        return self.v != 0

    def __repr__(self):
        return f"{self.v} (mod {self.p})"


def rref(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form. Returns (matrix, pivot column indices).

    Entries that are not GFElement are coerced to Fraction, so integer input
    is eliminated exactly rather than by float division.
    """
    field = (Fraction, GFElement)
    mat = [[x if isinstance(x, field) else Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = mat[r][col]
        mat[r] = [x / inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def rank(rows: Sequence[Sequence]) -> int:
    return len(rref(rows)[1])


def nullspace(rows: Sequence[Sequence]) -> list[list]:
    """Basis of the right kernel, in the field of the eliminated entries."""
    mat, pivots = rref(rows)
    ncols = len(rows[0]) if rows else 0
    free = [c for c in range(ncols) if c not in pivots]
    if not free:
        return []
    zero = mat[0][0] * 0
    one = zero + 1
    basis = []
    for fc in free:
        vec = [zero] * ncols
        vec[fc] = one
        for r, pc in enumerate(pivots):
            vec[pc] = -mat[r][fc]
        basis.append(vec)
    return basis


def clear_denominators(vec: Sequence) -> list[int]:
    """The vector times the lcm of its entries' denominators (int or Fraction)."""
    scale = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (scale // x.denominator) for x in vec]


def primitive_int_vector(vec: Sequence) -> tuple[int, ...]:
    """The integer multiple of a rational vector with coprime entries and a
    positive first nonzero entry; the zero vector stays zero."""
    ints = clear_denominators(vec)
    g = math.gcd(*ints)
    if g:
        ints = [x // g for x in ints]
    if next((x for x in ints if x != 0), 0) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def det3(m: Sequence[Sequence]) -> object:
    """Determinant of a 3x3 matrix, expanded directly."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def mat_vec(m: Sequence[Sequence], v: Sequence) -> list:
    return [sum(mi * vi for mi, vi in zip(row, v)) for row in m]


# Trial divisors stop at this bound. n factors when what is left of |n| after
# its prime factors up to the bound is below 2^44 (that rest is then 1 or a
# prime), so every |n| below 2^44 factors; any other n is a domain error
# rather than a search without end.
FACTOR_BOUND = 2 ** 22


def factor(n: int) -> dict[int, int]:
    """Prime factorisation of |n| as {prime: exponent}, by trial division up to
    FACTOR_BOUND; the cofactor left is prime once the divisor passes its root.

    Raises ValueError for n = 0 and when that needs a divisor beyond the bound.
    """
    if n == 0:
        raise ValueError("cannot factor 0")
    rest, out, d = abs(n), {}, 2
    while d * d <= rest and d <= FACTOR_BOUND:
        while rest % d == 0:
            out[d] = out.get(d, 0) + 1
            rest //= d
        d += 1 if d == 2 else 2
    if d * d <= rest:
        raise ValueError(f"capacity: factoring {n} needs trial divisors beyond 2^22")
    if rest > 1:
        out[rest] = out.get(rest, 0) + 1
    return out
