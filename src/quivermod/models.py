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
coefficients are c and d in this order, not d and c. The fit_conic oracle below
recovers the same pattern from sampled semiinvariant points.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import clear_denominators, det3, mat_vec, nullspace, rank

Mat2 = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
Vec2 = tuple[Fraction, Fraction]


def mat2(rows: Sequence[Sequence]) -> Mat2:
    if len(rows) != 2 or any(len(r) != 2 for r in rows):
        raise ValueError("expected a 2x2 matrix")
    return tuple(tuple(Fraction(x) for x in r) for r in rows)  # type: ignore[return-value]


def vec2(v: Sequence) -> Vec2:
    if len(v) != 2:
        raise ValueError("expected a length-2 vector")
    return (Fraction(v[0]), Fraction(v[1]))


def mat2_mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def mat2_trace(x: Mat2) -> Fraction:
    return x[0][0] + x[1][1]


def mat2_traceless(x: Mat2) -> Mat2:
    t = mat2_trace(x) / 2
    return ((x[0][0] - t, x[0][1]), (x[1][0], x[1][1] - t))


def _int_mat2(rows: Sequence[Sequence]) -> tuple[tuple[int, int], tuple[int, int]]:
    """The 2x2 rational matrix times the lcm of its entries' denominators.

    Scaling one matrix of a tuple by a nonzero constant scales each word in
    it, each pair form det(Xv|Yv) and each kernel and image equation by a
    nonzero constant, so spans, ranks and common roots stay as they are.
    """
    a, b, c, d = clear_denominators([x for row in mat2(rows) for x in row])
    return ((a, b), (c, d))


def det_cols(u: Vec2, w: Vec2) -> Fraction:
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
    A, B = mat2(a_mat), mat2(b_mat)
    Ap, Bp = mat2_traceless(A), mat2_traceless(B)
    return L2Point(
        a=mat2_trace(mat2_mul(Ap, Ap)),
        b=mat2_trace(mat2_mul(Ap, Bp)),
        c=mat2_trace(mat2_mul(Bp, Bp)),
        d=mat2_trace(A),
        e=mat2_trace(B),
    )


def l2_is_stable(a_mat: Sequence[Sequence], b_mat: Sequence[Sequence]) -> bool:
    """h != 0; equivalently the pair has no common eigenvector over the closure."""
    return l2_invariants(a_mat, b_mat).h != 0


def l2_semiinvariants(
    a_mat: Sequence[Sequence], b_mat: Sequence[Sequence], v: Sequence
) -> tuple[Fraction, Fraction, Fraction]:
    """(x, y, z) = (det(v|Av), det(A'v|B'v), det(v|Bv)); see the module docstring."""
    A, B = mat2(a_mat), mat2(b_mat)
    w = vec2(v)
    Ap, Bp = mat2_traceless(A), mat2_traceless(B)
    return (
        det_cols(w, mat_vec(A, w)),
        det_cols(mat_vec(Ap, w), mat_vec(Bp, w)),
        det_cols(w, mat_vec(B, w)),
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
    mats = [_int_mat2(m) for m in matrices]
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


def _mixed_det(x: Mat2, y: Mat2) -> Fraction:
    """det(X + Y) - det(X) - det(Y), the polarization of det on 2x2 matrices."""
    return mat2_trace(x) * mat2_trace(y) - mat2_trace(mat2_mul(x, y))


def k3_invariants(
    a_mat: Sequence[Sequence], b_mat: Sequence[Sequence], c_mat: Sequence[Sequence]
) -> K3Point:
    A, B, C = mat2(a_mat), mat2(b_mat), mat2(c_mat)
    # det_cols(*X) is det(X^T) = det(X)
    return K3Point(
        a=det_cols(*A),
        b=_mixed_det(A, B),
        c=_mixed_det(A, C),
        d=det_cols(*B),
        e=_mixed_det(B, C),
        f=det_cols(*C),
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
    A, B, C = mat2(a_mat), mat2(b_mat), mat2(c_mat)
    w = vec2(v)
    av, bv, cv = mat_vec(A, w), mat_vec(B, w), mat_vec(C, w)
    return (det_cols(av, bv), det_cols(av, cv), det_cols(bv, cv))


def k3_conic(p: K3Point) -> ConicFiber:
    """The conic satisfied by the semiinvariant image: pattern (f, -e, c, d, -b, a).

    Gram determinant is h/4; nondegenerate exactly at stable points.
    """
    if p.is_degenerate:
        raise ValueError("degenerate point: all six coefficients vanish")
    return ConicFiber(xx=p.f, yy=p.d, zz=p.a, xy=-p.e, xz=p.c, yz=-p.b)


def _pair_form(x: Mat2, y: Mat2) -> tuple[Fraction, ...]:
    """det(Xv|Yv) as a binary quadratic form in v = (s, t): coefficients on s^2, s t, t^2."""
    e1, e2, both = (1, 0), (0, 1), (1, 1)
    alpha = det_cols(mat_vec(x, e1), mat_vec(y, e1))
    gamma = det_cols(mat_vec(x, e2), mat_vec(y, e2))
    beta = det_cols(mat_vec(x, both), mat_vec(y, both)) - alpha - gamma
    return (alpha, beta, gamma)


def _poly_gcd(p1: list[Fraction], p2: list[Fraction]) -> list[Fraction]:
    """Monic gcd of univariate polynomials, dense ascending coefficients."""

    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim(list(p1)), trim(list(p2))
    while b:
        # a mod b
        r = list(a)
        while len(r) >= len(b) and trim(r):
            factor = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, coef in enumerate(b):
                r[shift + i] -= factor * coef
            trim(r)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [x / lead for x in a]
    return a


def binary_forms_common_root(forms: Sequence[tuple[Fraction, ...]]) -> bool:
    """Do binary quadratic forms share a projective root over the closure?

    A form alpha s^2 + beta s t + gamma t^2 factors as t^k times the
    homogenization of its dehomogenized polynomial; the forms share a root iff
    either all are divisible by t (common root at infinity) or the univariate
    gcd of their dehomogenizations is nonconstant. Zero forms impose nothing.
    Coefficients are taken as Fractions, so the gcd is exact for int input too.
    """
    nonzero = [tuple(map(Fraction, f)) for f in forms if any(c != 0 for c in f)]
    if not nonzero:
        return True
    # root at infinity (1 : 0) iff every s^2 coefficient vanishes
    if all(f[0] == 0 for f in nonzero):
        return True
    g: Optional[list[Fraction]] = None
    for alpha, beta, gamma in nonzero:
        poly = [gamma, beta, alpha]  # q(s, 1), ascending in s
        g = poly if g is None else _poly_gcd(g, poly)
        if len(g) <= 1:
            return False
    return g is not None and len(g) > 1


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
    Each type is read on the matrices scaled to integers (_int_mat2).
    """
    A, B, C = _int_mat2(a_mat), _int_mat2(b_mat), _int_mat2(c_mat)
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
