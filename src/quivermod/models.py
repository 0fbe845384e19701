"""Two explicit rank-2 moduli models with their conic bundles.

Pairs model: pairs (A, B) of 2x2 matrices up to conjugation. Coordinates are
a = tr(A'^2), b = tr(A'B'), c = tr(B'^2), d = tr(A), e = tr(B) where X' denotes
the traceless part X - tr(X)/2. The point is stable iff h = b^2 - a c != 0, and
the fiber of the conic bundle is c x^2 + a z^2 - 2 y^2 - 2 b x z = 0 in the
semiinvariant coordinates

    x = det(v | A v),  y = det(A'v | B'v),  z = det(v | B v).

The middle coordinate uses the traceless parts: with y = det(v | B v) in the
middle slot instead, the identity fails identically (checked symbolically in
the test suite), so this ordering is the one shipped.

Triples model: triples (A, B, C) of 2x2 matrices, coordinates the six
coefficients (a, b, c, d, e, f) of det(alpha A + beta B + gamma C) on
(alpha^2, alpha beta, alpha gamma, beta^2, beta gamma, gamma^2), with
h = 4adf + bce - c^2 d - a e^2 - b^2 f. Stability is h != 0. Semiinvariants are
x = det(Av|Bv), y = det(Av|Cv), z = det(Bv|Cv), and the conic they satisfy is

    f x^2 - e x y + c x z + d y^2 - b y z + a z^2 = 0,

i.e. the coefficient pattern (f, -e, c, d, -b, a) on (x^2, xy, xz, y^2, yz, z^2).
This follows from the rank-2 Cramer identity z Av - y Bv + x Cv = 0, which puts
(z : -y : x) in the kernel of alpha A + beta B + gamma C; note the xz and y^2
coefficients are c and d in this order, not d and c. The fit_conic test oracle
(tests/models_oracle.py) recovers the same pattern from sampled semiinvariant
points.

Arithmetic is on integers: _scaled puts the inputs over one common denominator
s, and each coordinate, a homogeneous polynomial in the integer numerators, is
divided by its power of s once, in the Fraction it is returned as; e.g.
a = tr(P^2) / 4 s^2 for the doubled traceless part P = 2A - tr(A) I. The
stability oracles read the same numerators, which have the same spans, ranks
and common roots.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import det3, mat_vec, rank

Mat2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
Vec2 = tuple[Fraction, Fraction]
IntMat2 = tuple[tuple[int, int], tuple[int, int]]


def mat2(rows: Sequence[Sequence]) -> Mat2:
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("expected a 2x2 matrix")
    return tuple(tuple(Fraction(x) for x in r) for r in rows)  # type: ignore[return-value]


def vec2(v: Sequence) -> Vec2:
    if len(v) != 2:
        raise ValueError("expected a length-2 vector")
    return (Fraction(v[0]), Fraction(v[1]))


def _scaled(mats: Sequence, v: Optional[Sequence] = None) -> tuple[list[IntMat2], tuple, int]:
    """Numerators of the matrices (checked by mat2) and of v (by vec2, empty
    without v) over their common denominator s, and s."""
    checked = [mat2(m) for m in mats]
    fracs = [x for m in checked for row in m for x in row] + list(vec2(v) if v is not None else ())
    s = math.lcm(*(x.denominator for x in fracs))
    ints = iter([x.numerator * (s // x.denominator) for x in fracs])
    scaled = [((next(ints), next(ints)), (next(ints), next(ints))) for _ in checked]
    return scaled, tuple(ints), s


def mat2_mul(x: IntMat2, y: IntMat2) -> IntMat2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def mat2_trace(x: IntMat2) -> int:
    return x[0][0] + x[1][1]


def _doubled_traceless(x: IntMat2) -> IntMat2:
    """2X - tr(X) I, twice the traceless part, so that no 1/2 appears."""
    return ((x[0][0] - x[1][1], 2 * x[0][1]), (2 * x[1][0], x[1][1] - x[0][0]))


def det_cols(u: Sequence, w: Sequence) -> int:
    """Determinant of the 2x2 matrix with columns u and w."""
    return u[0] * w[1] - u[1] * w[0]


@dataclass(frozen=True)
class ConicFiber:
    """A ternary quadratic form, coefficients on (x^2, y^2, z^2, xy, xz, yz)."""

    xx: Fraction
    yy: Fraction
    zz: Fraction
    xy: Fraction
    xz: Fraction
    yz: Fraction

    def coefficients(self) -> tuple[Fraction, ...]:
        return (self.xx, self.yy, self.zz, self.xy, self.xz, self.yz)

    def evaluate(self, x, y, z) -> Fraction:
        x, y, z = Fraction(x), Fraction(y), Fraction(z)
        return (
            self.xx * x * x + self.yy * y * y + self.zz * z * z
            + self.xy * x * y + self.xz * x * z + self.yz * y * z
        )

    def symmetric_matrix(self) -> tuple[tuple[Fraction, ...], ...]:
        """Symmetric representing matrix with halved off-diagonal coefficients."""
        h = Fraction(1, 2)
        return (
            (self.xx, h * self.xy, h * self.xz),
            (h * self.xy, self.yy, h * self.yz),
            (h * self.xz, h * self.yz, self.zz),
        )

    def gram_determinant(self) -> Fraction:
        return det3(self.symmetric_matrix())

    @property
    def is_nondegenerate(self) -> bool:
        return self.gram_determinant() != 0


# ---------------------------------------------------------------------------
# pairs model


@dataclass(frozen=True)
class L2Point:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction

    @property
    def h(self) -> Fraction:
        return self.b * self.b - self.a * self.c

    def coordinates(self) -> tuple[Fraction, ...]:
        return (self.a, self.b, self.c, self.d, self.e)


def l2_invariants(a_mat: Sequence[Sequence], b_mat: Sequence[Sequence]) -> L2Point:
    (A, B), _, s = _scaled((a_mat, b_mat))
    P, Q = _doubled_traceless(A), _doubled_traceless(B)
    q = 4 * s * s
    return L2Point(
        a=Fraction(mat2_trace(mat2_mul(P, P)), q),
        b=Fraction(mat2_trace(mat2_mul(P, Q)), q),
        c=Fraction(mat2_trace(mat2_mul(Q, Q)), q),
        d=Fraction(mat2_trace(A), s),
        e=Fraction(mat2_trace(B), s),
    )


def l2_is_stable(a_mat: Sequence[Sequence], b_mat: Sequence[Sequence]) -> bool:
    """h != 0; equivalently the pair has no common eigenvector over the closure."""
    return l2_invariants(a_mat, b_mat).h != 0


def l2_semiinvariants(
    a_mat: Sequence[Sequence], b_mat: Sequence[Sequence], v: Sequence
) -> tuple[Fraction, Fraction, Fraction]:
    """(x, y, z) = (det(v|Av), det(A'v|B'v), det(v|Bv)); see the module docstring."""
    (A, B), w, s = _scaled((a_mat, b_mat), v)
    P, Q = _doubled_traceless(A), _doubled_traceless(B)
    return (
        Fraction(det_cols(w, mat_vec(A, w)), s ** 3),
        Fraction(det_cols(mat_vec(P, w), mat_vec(Q, w)), 4 * s ** 4),
        Fraction(det_cols(w, mat_vec(B, w)), s ** 3),
    )


def l2_conic(p: L2Point) -> ConicFiber:
    """c x^2 + a z^2 - 2 y^2 - 2 b x z; Gram determinant is 2h, nondegenerate iff stable."""
    zero = Fraction(0)
    return ConicFiber(
        xx=p.c, yy=Fraction(-2), zz=p.a, xy=zero, xz=-2 * p.b, yz=zero
    )


def burnside_dimension(matrices: Sequence[Sequence[Sequence]]) -> int:
    """Dimension of the span of words of length <= 3 in the inputs plus the identity.

    Length 3 saturates generation questions in 2x2 matrices, so the value is 4
    exactly when the tuple has no common invariant line over the closure.
    """
    mats, _, _ = _scaled(matrices)
    ident = ((1, 0), (0, 1))
    words = [ident]
    layer = [ident]
    for _ in range(3):
        layer = [mat2_mul(w, m) for w in layer for m in mats]
        words.extend(layer)
    rows = [[w[0][0], w[0][1], w[1][0], w[1][1]] for w in words]
    return rank(rows)


# ---------------------------------------------------------------------------
# triples model


@dataclass(frozen=True)
class K3Point:
    a: Fraction
    b: Fraction
    c: Fraction
    d: Fraction
    e: Fraction
    f: Fraction

    def coordinates(self) -> tuple[Fraction, ...]:
        return (self.a, self.b, self.c, self.d, self.e, self.f)

    @property
    def is_degenerate(self) -> bool:
        """All six coefficients zero: not a projective point."""
        return all(x == 0 for x in self.coordinates())

    @property
    def h(self) -> Fraction:
        a, b, c, d, e, f = self.coordinates()
        return 4 * a * d * f + b * c * e - c * c * d - a * e * e - b * b * f


def _mixed_det(x: IntMat2, y: IntMat2) -> int:
    """det(X + Y) - det(X) - det(Y), the polarization of det on 2x2 matrices."""
    return mat2_trace(x) * mat2_trace(y) - mat2_trace(mat2_mul(x, y))


def k3_invariants(
    a_mat: Sequence[Sequence], b_mat: Sequence[Sequence], c_mat: Sequence[Sequence]
) -> K3Point:
    (A, B, C), _, s = _scaled((a_mat, b_mat, c_mat))
    q = s * s
    # det_cols(*X) is det(X^T) = det(X)
    return K3Point(
        a=Fraction(det_cols(*A), q),
        b=Fraction(_mixed_det(A, B), q),
        c=Fraction(_mixed_det(A, C), q),
        d=Fraction(det_cols(*B), q),
        e=Fraction(_mixed_det(B, C), q),
        f=Fraction(det_cols(*C), q),
    )


def k3_is_stable(
    a_mat: Sequence[Sequence], b_mat: Sequence[Sequence], c_mat: Sequence[Sequence]
) -> bool:
    """h != 0; cross-validated against k3_destabilizer in the test suite."""
    return k3_invariants(a_mat, b_mat, c_mat).h != 0


def k3_semiinvariants(
    a_mat: Sequence[Sequence],
    b_mat: Sequence[Sequence],
    c_mat: Sequence[Sequence],
    v: Sequence,
) -> tuple[Fraction, Fraction, Fraction]:
    """(x, y, z) = (det(Av|Bv), det(Av|Cv), det(Bv|Cv))."""
    (A, B, C), w, s = _scaled((a_mat, b_mat, c_mat), v)
    av, bv, cv = mat_vec(A, w), mat_vec(B, w), mat_vec(C, w)
    return tuple(Fraction(det_cols(x, y), s ** 4) for x, y in ((av, bv), (av, cv), (bv, cv)))


def k3_conic(p: K3Point) -> ConicFiber:
    """The conic satisfied by the semiinvariant image: pattern (f, -e, c, d, -b, a).

    Gram determinant is h/4; nondegenerate exactly at stable points.
    """
    if p.is_degenerate:
        raise ValueError("degenerate point: all six coefficients vanish")
    return ConicFiber(xx=p.f, yy=p.d, zz=p.a, xy=-p.e, xz=p.c, yz=-p.b)


def _pair_form(x: IntMat2, y: IntMat2) -> tuple[int, int, int]:
    """det(Xv|Yv) as a binary quadratic form in v = (s, t): coefficients on s^2, s t, t^2."""
    (x0, x1), (x2, x3) = x
    (y0, y1), (y2, y3) = y
    return (x0 * y2 - x2 * y0, x0 * y3 + x1 * y2 - x2 * y1 - x3 * y0, x1 * y3 - x3 * y1)


def binary_forms_common_root(forms: Sequence[Sequence]) -> bool:
    """Do binary quadratic forms share a projective root over the closure?

    Exactly when the multiples s f, t f fail to span the binary cubics: a
    common factor l keeps them in l times the quadratics; otherwise two
    coprime forms lie in the span of the forms, and their Sylvester resultant
    is nonzero. Zero forms impose nothing.
    """
    rows = [r for a, b, c in forms for r in ([a, b, c, 0], [0, a, b, c])]
    return rank(rows) < 4


def k3_destabilizer(
    a_mat: Sequence[Sequence], b_mat: Sequence[Sequence], c_mat: Sequence[Sequence]
) -> Optional[tuple[int, int]]:
    """Dimension type of a destabilizing subrepresentation for theta = (1, 0), or None.

    A subrepresentation (U1, U2) with all three matrices mapping U1 into U2
    destabilizes iff dim U1 >= dim U2. The four possible types:
      (2, 0): all three matrices vanish;
      (1, 0): the stacked 6x2 matrix has a common kernel line;
      (2, 1): the 2x6 concatenation has rank <= 1 (all images in one line);
      (1, 1): the three pairwise determinant forms share a projective root.
    Each type is read on the matrices over their common denominator, whose
    numerators span the same kernels, images and common roots.
    """
    (A, B, C), _, _ = _scaled((a_mat, b_mat, c_mat))
    if all(x == 0 for m in (A, B, C) for row in m for x in row):
        return (2, 0)
    stacked = [[m[i][0], m[i][1]] for m in (A, B, C) for i in range(2)]
    if rank(stacked) <= 1:
        return (1, 0)
    wide = [
        [A[i][0], A[i][1], B[i][0], B[i][1], C[i][0], C[i][1]] for i in range(2)
    ]
    if rank(wide) <= 1:
        return (2, 1)
    forms = [_pair_form(A, B), _pair_form(A, C), _pair_form(B, C)]
    if binary_forms_common_root(forms):
        return (1, 1)
    return None

