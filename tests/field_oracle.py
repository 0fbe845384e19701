"""Slow generic field arithmetic, kept only as a test oracle.

`GFElement` is a scalar of the prime field GF(p) with Python operators, and
`rref` eliminates over any field whose scalars have them: `Fraction` over Q,
`GFElement` over GF(p). The library used both until its arithmetic moved to
integers: Bareiss elimination over Q (`linalg.rank`, `linalg.nullspace`), int
residues and `linalg._echelon_mod_p` over GF(p). `FieldForm` is the quadratic
form code written once for every field. `common_root_by_euclid` is the former
Euclid test for a common root of binary quadratic forms, which
`models.binary_forms_common_root` replaced by a rank. `diagonalize_oracle` is
the former body of `clifford.QuadraticFormB.diagonalize`, which eliminated on
field scalars before `linalg._diagonalize_ints` took over; it is a test oracle
only. Tests compare the integer code against these on small inputs.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union


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


Scalar = Union[Fraction, GFElement]


def lifted(x, p: int) -> Scalar:
    """The int or rational x as a field scalar: GFElement over GF(p), Fraction over Q (p = 0)."""
    return GFElement(p, 0) + Fraction(x) if p else Fraction(x)


def rref(rows: Sequence[Sequence]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form. Returns (matrix, pivot column indices).

    Entries that are not GFElement are coerced to Fraction.
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
    """Basis of the right kernel in the field of the eliminated entries: per
    free column, the vector that is 1 there and 0 at the other free columns."""
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


class FieldForm:
    """A quadratic form in the convention of clifford.QuadraticFormB, on field
    scalars: Fraction over Q (char 0), GFElement over GF(char)."""

    def __init__(self, b: Sequence[Sequence], char: int = 0):
        self.b = [[lifted(x, char) for x in row] for row in b]
        self.char = char
        self.size = len(b)
        self.zero, self.one = lifted(0, char), lifted(1, char)

    def value(self, vec: Sequence) -> Scalar:
        total = self.zero
        for i in range(self.size):
            for j in range(i, self.size):
                total = total + self.b[i][j] * vec[i] * vec[j]
        return total

    def gram(self) -> list[list[Scalar]]:
        return [[self.b[i][j] if i != j else 2 * self.b[i][i] for j in range(self.size)]
                for i in range(self.size)]

    def polar(self, u: Sequence, v: Sequence) -> Scalar:
        g = self.gram()
        total = self.zero
        for i in range(self.size):
            for j in range(self.size):
                total = total + g[i][j] * u[i] * v[j]
        return total

    def diagonalize(self) -> tuple[list[Scalar], list[list[Scalar]]]:
        """Congruence diagonalization with QuadraticFormB.diagonalize's pivoting."""
        size = self.size
        g = self.gram()
        one, zero = self.one, self.zero
        p = [[one if i == j else zero for j in range(size)] for i in range(size)]

        def col_op(dst: int, src: int, factor: Scalar):
            for r in range(size):
                g[r][dst] = g[r][dst] + factor * g[r][src]
            for c in range(size):
                g[dst][c] = g[dst][c] + factor * g[src][c]
            for r in range(size):
                p[r][dst] = p[r][dst] + factor * p[r][src]

        def swap(i: int, j: int):
            for r in range(size):
                g[r][i], g[r][j] = g[r][j], g[r][i]
            g[i], g[j] = g[j], g[i]
            for r in range(size):
                p[r][i], p[r][j] = p[r][j], p[r][i]

        for k in range(size):
            if g[k][k] == 0:
                pivot = next((i for i in range(k + 1, size) if g[i][i] != 0), None)
                if pivot is not None:
                    swap(k, pivot)
                else:
                    pair = next(((i, j) for i in range(k, size) for j in range(i + 1, size)
                                 if g[i][j] != 0), None)
                    if pair is None:
                        break
                    i, j = pair
                    col_op(i, j, one)
                    if i != k:
                        swap(k, i)
            piv = g[k][k]
            for i in range(k + 1, size):
                if g[k][i] != 0:
                    col_op(i, k, -g[k][i] / piv)
        return [g[i][i] / 2 for i in range(size)], p

    def is_smooth(self) -> bool:
        """is_smooth_quadric, by generic elimination."""
        g = self.gram()
        if self.char != 2 or self.size % 2 == 0:
            return rank(g) == self.size
        kernel = nullspace(g)
        return len(kernel) == 1 and self.value(kernel[0]) != 0


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


def common_root_by_euclid(forms: Sequence[Sequence]) -> bool:
    """Do binary quadratic forms alpha s^2 + beta s t + gamma t^2 share a
    projective root over the closure? Either every s^2 coefficient vanishes
    (the root (1 : 0)), or the Fraction gcd of the dehomogenizations q(s, 1)
    is nonconstant. Zero forms impose nothing.
    """
    nonzero = [tuple(map(Fraction, f)) for f in forms if any(c != 0 for c in f)]
    if not nonzero or all(f[0] == 0 for f in nonzero):
        return True
    g = None
    for alpha, beta, gamma in nonzero:
        poly = [gamma, beta, alpha]  # q(s, 1), ascending in s
        g = poly if g is None else _poly_gcd(g, poly)
        if len(g) <= 1:
            return False
    return True


def diagonalize_oracle(self) -> tuple[list, list[list]]:
    """QuadraticFormB.diagonalize as it was on field scalars (test oracle only).

    Exact congruence diagonalization, characteristic != 2 only.

    Returns (coeffs, P) with Q(P w) = sum coeffs_i w_i^2. Pivoting is
    deterministic: the first nonzero diagonal Gram entry is used; if the
    remaining diagonal vanishes, the first nonzero off-diagonal pair is
    merged into a square first.
    """
    if self.char == 2:
        raise ValueError("diagonalization needs characteristic != 2")
    size, p = self.size, self.char
    g = [list(row) for row in self.gram()]
    one, zero = self.one(), self.zero()
    mat = [[one if i == j else zero for j in range(size)] for i in range(size)]

    def red(x):
        return x % p if p else x

    def div(x, y):
        return red(x * pow(y, -1, p)) if p else x / y

    def col_op(dst: int, src: int, factor):
        # basis change v_dst <- v_dst + factor * v_src, applied symmetrically
        for m in (g, mat):
            for row in m:
                row[dst] = red(row[dst] + factor * row[src])
        g[dst] = [red(x + factor * y) for x, y in zip(g[dst], g[src])]

    def swap(i: int, j: int):
        for m in (g, mat):
            for row in m:
                row[i], row[j] = row[j], row[i]
        g[i], g[j] = g[j], g[i]

    for k in range(size):
        if g[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if g[i][i] != 0), None)
            if pivot is not None:
                swap(k, pivot)
            else:
                pair = next(
                    (
                        (i, j)
                        for i in range(k, size)
                        for j in range(i + 1, size)
                        if g[i][j] != 0
                    ),
                    None,
                )
                if pair is None:
                    break  # remaining block is zero
                i, j = pair
                col_op(i, j, one)  # v_i <- v_i + v_j makes g[i][i] = 2 g_ij != 0
                if i != k:
                    swap(k, i)
        piv = g[k][k]
        for i in range(k + 1, size):
            if g[k][i] != 0:
                col_op(i, k, div(-g[k][i], piv))
    return [div(g[i][i], 2) for i in range(size)], mat
