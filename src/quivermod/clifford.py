"""Quadratic forms by coefficient matrix, Clifford algebras on a subset-indexed
basis, the Azumaya test for the even part, and quaternion extraction.

A form on n + 2 variables is stored as a symmetric matrix b with
Q(sum lambda_i e_i) = sum_{i <= j} b_ij lambda_i lambda_j: diagonal entries are
the square coefficients, each off-diagonal coefficient is stored symmetrically
and counted once. The polar form is Phi(e_i, e_j) = b_ij for i != j and
Phi(e_i, e_i) = 2 b_ii. Coefficients live in Q (Fraction) or in a prime field
GF(p) (an int residue in [0, p)); characteristic 2 is allowed everywhere except
where noted.

The Clifford algebra has basis e_S indexed by subsets S of {0, ..., n+1},
encoded as bitmasks, with e_i e_j + e_j e_i = Phi(e_i, e_j) for i != j and
e_i^2 = Q(e_i). Products are normal-ordered by insertion. The even part is the
span of the even-cardinality subsets and has rank 2^(n+1).
"""
from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .linalg import (_diagonalize_form, _diagonalize_ints, _echelon_mod_p, clear_denominators,
                     is_prime, rank)
from .models import ConicFiber

# Prime characteristics must lie below this bound: the modular Azumaya test
# keeps residue products below 2^62 in int64.
CHAR_BOUND = 2 ** 31

# The Azumaya test handles algebras of dimension at most this bound (its
# largest elimination is d^2 x d^2); larger ones are a domain error, raised
# for an even part before its d^3 table is built.
DIM_BOUND = 64


def _check_capacity(d: int) -> None:
    if d > DIM_BOUND:
        raise ValueError(f"capacity: algebra dimension {d} exceeds {DIM_BOUND}")


# numpy serves only the modular eliminations. It is registered lazily, so
# `import quivermod` does not pay its import; its code runs on first use.
if "numpy" not in sys.modules and (_spec := importlib.util.find_spec("numpy")) is not None:
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    sys.modules["numpy"] = importlib.util.module_from_spec(_spec)
    _spec.loader.exec_module(sys.modules["numpy"])


class QuadraticFormB:
    """Quadratic form given by its coefficient matrix b (see module docstring).

    Every scalar it stores or returns is a field element: a Fraction over Q,
    an int in [0, p) over GF(p).
    """

    def __init__(self, b: Sequence[Sequence], char: int = 0):
        size = len(b)
        if size < 1 or any(len(row) != size for row in b):
            raise ValueError("b must be a nonempty square matrix")
        if char and (not 2 <= char < CHAR_BOUND or not is_prime(char)):
            raise ValueError(f"characteristic must be 0 or a prime below 2^31, got {char}")
        self.char = char
        mat = tuple(tuple(self.scalar(x) for x in row) for row in b)
        for i in range(size):
            for j in range(size):
                if mat[i][j] != mat[j][i]:
                    raise ValueError("b must be symmetric")
        self.b = mat
        self.size = size

    @property
    def n(self) -> int:
        """Quadric dimension: the form has n + 2 variables."""
        return self.size - 2

    def scalar(self, x) -> Fraction | int:
        """The int or rational x as an element of the field of the form."""
        x, p = Fraction(x), self.char
        if not p:
            return x
        if x.denominator % p == 0:
            raise ZeroDivisionError(f"denominator divisible by {p}")
        return x.numerator * pow(x.denominator, -1, p) % p

    def zero(self) -> Fraction | int:
        return self.scalar(0)

    def one(self) -> Fraction | int:
        return self.scalar(1)

    def value(self, vec: Sequence) -> Fraction | int:
        if len(vec) != self.size:
            raise ValueError("vector length mismatch")
        b = self.b
        return self.scalar(sum(b[i][j] * vec[i] * vec[j]
                               for i in range(self.size) for j in range(i, self.size)))

    def polar(self, u: Sequence, v: Sequence) -> Fraction | int:
        """Phi(u, v) = Q(u + v) - Q(u) - Q(v), evaluated via the Gram matrix."""
        g = self.gram()
        return self.scalar(sum(g[i][j] * u[i] * v[j]
                               for i in range(self.size) for j in range(self.size)))

    def gram(self) -> tuple[tuple[Fraction | int, ...], ...]:
        return tuple(
            tuple(self.b[i][j] if i != j else self.scalar(2 * self.b[i][i])
                  for j in range(self.size))
            for i in range(self.size)
        )

    def diagonalize(self) -> tuple[list, list[list]]:
        """Exact congruence diagonalization, characteristic != 2 only.

        Returns (coeffs, P) with Q(P w) = sum coeffs_i w_i^2 and P = V / s, from
        the integer diagonalisation (V, s) of the Gram matrix: _diagonalize_form
        over Q, which the conic solver shares, and _diagonalize_ints over GF(p).
        """
        p = self.char
        if p == 2:
            raise ValueError("diagonalization needs characteristic != 2")
        if p:
            pivots, vs, s = _diagonalize_ints(self.gram(), p)
            inv, half = [pow(x, -1, p) for x in s], pow(2, -1, p)
            return ([h * x * x * half % p for h, x in zip(pivots, inv)],
                    [[v * x % p for v, x in zip(row, inv)] for row in vs])
        coeffs, vs, s, _ = _diagonalize_form(self.b)
        return coeffs, [[Fraction(v, x) for v, x in zip(row, s)] for row in vs]


def standard_form(n: int, char: int = 0) -> QuadraticFormB:
    """Split form: sum_{i<r} lambda_i lambda_{i+r} + lambda_{n+1}^2 with r = (n+1)//2.

    Matches the hyperbolic-plus-square shape used for smooth quadrics in odd
    ambient dimension; defined for even n by the same recipe but then the
    middle variable is absent from the form.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    size = n + 2
    b = [[0] * size for _ in range(size)]
    r = (n + 1) // 2
    for i in range(r):
        b[i][i + r] = 1
        b[i + r][i] = 1
    b[size - 1][size - 1] = 1
    return QuadraticFormB(b, char=char)


def is_smooth_quadric(q: QuadraticFormB) -> bool:
    """Smoothness of the projective quadric Q = 0.

    Characteristic != 2: the Gram matrix is nonsingular. Characteristic 2 with
    n + 2 odd: the polar form is alternating, so its radical is checked to be a
    line on which Q does not vanish. Characteristic 2 with n + 2 even: the
    polar form must be nonsingular.
    """
    if not q.char:
        return rank(q.gram()) == q.size
    import numpy as np

    r, vec = _echelon_mod_p(np.array(q.gram(), dtype=np.int64), q.char)
    if q.char != 2 or q.size % 2 == 0:
        return r == q.size
    return r == q.size - 1 and q.value(vec) != 0


class CliffordAlgebra:
    """Clifford algebra of a QuadraticFormB on the bitmask-indexed basis.

    Products are computed on int scalars where the form allows: over GF(p) the
    generator scalars are lifted to (-p/2, p/2] and each product is reduced to
    [0, p) at the end; over Q an integral scalar is its int and any other stays
    a Fraction.
    """

    def __init__(self, q: QuadraticFormB):
        self.q = q
        self.size = q.size
        self.dim = 1 << q.size
        p = q.char
        if p:
            def lift(x):
                return x - p if 2 * x > p else x
        else:
            def lift(x):
                return x.numerator if x.denominator == 1 else x
        self._sq = [lift(q.b[i][i]) for i in range(q.size)]
        self._phi = [[lift(x) for x in row] for row in q.gram()]
        self._gen_products: dict[tuple[int, int], tuple[tuple[int, object], ...]] = {}

    def _reduced(self, acc: dict[int, object]) -> dict[int, object]:
        """acc with its coefficients reduced to [0, p) over GF(p), zeros dropped."""
        p = self.q.char
        return {m: c % p for m, c in acc.items() if c % p} if p else acc

    def _mul_mask_gen(self, mask: int, i: int) -> tuple[tuple[int, object], ...]:
        """e_mask * e_i, normal ordered, on the lifted scalars; memoised per algebra."""
        cached = self._gen_products.get((mask, i))
        if cached is not None:
            return cached
        j = mask.bit_length() - 1  # largest generator present, -1 for the unit
        if j < i:
            out = ((mask | (1 << i), 1),)
        elif j == i:
            out = ((mask ^ (1 << i), self._sq[i]),)
        else:
            # e_j e_i = Phi(i, j) - e_i e_j
            rest = mask ^ (1 << j)
            acc: dict[int, object] = {}
            phi = self._phi[i][j]
            if phi != 0:
                acc[rest] = phi
            for m2, c2 in self._mul_mask_gen(rest, i):
                if c2:  # e_j lies above every generator of e_m2, so e_m2 e_j = e_(m2 | j)
                    acc[m2 | 1 << j] = -c2
            out = tuple(acc.items())
        self._gen_products[(mask, i)] = out
        return out

    def mul_basis(self, s: int, t: int) -> dict[int, object]:
        """Product e_s * e_t as a sparse dict mask -> coefficient."""
        acc: dict[int, object] = {s: 1}
        for i in range(self.size):
            if (t >> i) & 1:
                nxt: dict[int, object] = {}
                for m, c in acc.items():
                    for m2, c2 in self._mul_mask_gen(m, i):
                        coeff = nxt.get(m2, 0) + c * c2
                        if coeff == 0:
                            nxt.pop(m2, None)
                        else:
                            nxt[m2] = coeff
                acc = nxt
        return self._reduced(acc)

    def multiply(self, x: dict[int, object], y: dict[int, object]) -> dict[int, object]:
        out: dict[int, object] = {}
        for s, cx in x.items():
            for t, cy in y.items():
                for m, c in self.mul_basis(s, t).items():
                    coeff = out.get(m, 0) + cx * cy * c
                    if coeff == 0:
                        out.pop(m, None)
                    else:
                        out[m] = coeff
        return self._reduced(out)

    def even_masks(self) -> list[int]:
        return [m for m in range(self.dim) if bin(m).count("1") % 2 == 0]

    def even_part(self) -> "StructureConstantAlgebra":
        """The even subalgebra, its table in the format of StructureConstantAlgebra."""
        _check_capacity((self.dim + 1) // 2)  # 2^(n-1) even subsets of n >= 1 generators
        masks = self.even_masks()
        index = {m: i for i, m in enumerate(masks)}
        d = len(masks)
        table = []
        for s in masks:
            cells = []
            for t in masks:
                row = [0] * d
                for m, c in self.mul_basis(s, t).items():
                    row[index[m]] = c
                cells.append(tuple(row))
            table.append(tuple(cells))
        return StructureConstantAlgebra(dim=d, table=tuple(table), char=self.q.char)


def build_clifford(q: QuadraticFormB) -> CliffordAlgebra:
    return CliffordAlgebra(q)


@dataclass(frozen=True)
class StructureConstantAlgebra:
    """Finite-dimensional algebra: table[i][j][k] is the e_k coefficient of e_i e_j.

    The coefficients are ints in [0, char) over GF(char), and ints or
    Fractions over Q (char 0).
    """

    dim: int
    table: tuple
    char: int


# Over Q the Azumaya test first works modulo this prime.
_AZUMAYA_PRIME = 2147483629


def _tensor(ints: list[int], d: int, p: Optional[int] = None):
    """The d^3 tensor of the ints, as int64 residues of absolute value at most
    p/2 if p is given. Without p it is int64 if d^2 max|c|^2 < 2^63, which
    keeps every sum the Azumaya test takes of it exact, and Python ints if not."""
    import numpy as np

    top = max(map(abs, ints))
    c = np.array(ints, dtype=np.int64 if top < 2 ** 62 else object).reshape(d, d, d)
    if p:
        return ((c + p // 2) % p - p // 2).astype(np.int64)
    return c if d * d * top * top < 2 ** 63 else c.astype(object)


def _matmul_mod(x, y, p: Optional[int] = None):
    """x @ y for integer matrices with an inner dimension k of at most 64: exact
    with p = None, else congruent to it mod p. int64 input with
    k max|x| max|y| < 2^63 is multiplied directly; otherwise, mod a prime
    p < 2^31, y is split into 16-bit limbs of its residues, so every partial
    sum stays below 2^31 * 2^16 * 64 = 2^53."""
    import numpy as np

    if p is None or object not in (x.dtype, y.dtype) and (
            x.shape[1] * int(abs(x).max(initial=0)) * int(abs(y).max(initial=0)) < 2 ** 63):
        return x @ y
    x, y = (x % p).astype(np.int64), (y % p).astype(np.int64)
    return (x @ (y & 0xFFFF) + ((x @ (y >> 16)) % p << 16)) % p


def _envelope(c, p: Optional[int] = None):
    """Matrix of the enveloping map of the dim^3 integer tensor c: column (i, j)
    is e_i (x) e_j, and row (s, t) holds the e_s coefficient of e_i (e_t e_j),
    exact or mod p as _matmul_mod gives it."""
    d = c.shape[0]
    x = c.transpose(0, 2, 1).reshape(d * d, d)  # x[(i, s), m] = c[i, m, s]
    y = c.transpose(2, 0, 1).reshape(d, d * d)  # y[m, (t, j)] = c[t, j, m]
    return _matmul_mod(x, y, p).reshape(d, d, d, d).transpose(1, 2, 0, 3).reshape(d * d, d * d)


def _associative(c, env, p: Optional[int] = None) -> bool:
    """(e_i e_t) e_j == e_i (e_t e_j), held by env = _envelope(c, p): exactly, or mod p."""
    d = c.shape[0]
    left = _matmul_mod(c.reshape(d * d, d), c.reshape(d, d * d), p)  # [(i,t),(j,s)]
    diff = left.reshape(d, d, d, d).transpose(3, 1, 0, 2) - env.reshape(d, d, d, d)
    return not (diff % p if p else diff).any()


def _centre_and_trace(c, p: Optional[int] = None):
    """The d^2 x d system sum_k z_k (c[k,x,s] - c[x,k,s]) = 0 of the centre, and
    the trace form T[x,y] = tr L_{e_x e_y} = sum_m c[x,y,m] sum_s c[m,s,s]."""
    d = c.shape[0]
    trace = c.trace(axis1=1, axis2=2).reshape(d, 1)  # tr L_{e_m}
    return ((c.transpose(1, 2, 0) - c.transpose(0, 2, 1)).reshape(d * d, d),
            _matmul_mod(c.reshape(d * d, d), trace, p).reshape(d, d))


def _rank_mod(a, p: int) -> int:
    return _echelon_mod_p((a % p).astype("int64"), p)[0]


def azumaya_certificate(alg: StructureConstantAlgebra) -> tuple[bool, str]:
    """Is the enveloping map alg (x) alg-op -> End(alg) bijective, and which
    certificate decided it?

    The constants are read as integers: residues over GF(p); over Q, times the
    lcm l of their denominators (x -> l x maps the algebra onto the scaled
    one). d = 0 is "full-rank", True. Mod p (the characteristic, or
    _AZUMAYA_PRIME over Q), associativity, a centre (the kernel of a d^2 x d
    system) of dimension 1 and a trace form T(x, y) = tr L_xy of rank d give
    "central-simple", True. Otherwise an associative table is decided by the
    same checks: over GF(p), "centre" (False) for a centre of dimension != 1,
    and "trace-radical" (False) if d is not a square n^2 or p does not divide
    n; over Q, exactly, "trace-radical" (False) for a degenerate T, "centre"
    (False) for a centre of dimension != 1, else "central-simple". The rest
    eliminate the d^2 x d^2 matrix of the map: mod p, "full-rank" (True) or,
    over GF(p), "kernel" (False); over Q its exact rank decides, "exact".

    Why, for an associative A over F. A nondegenerate T leaves no Jacobson
    radical J (L_xy is nilpotent for x in J), so A is a product of simple
    algebras with a unit, whose centres make its centre (Wedderburn-Artin;
    Pierce, Associative Algebras, GTM 88); a centre F makes it central simple,
    with a bijective map: full rank mod p, so over Q. Conversely, if the map
    is bijective, the ideals are subspaces that End(A) preserves and A = AAA,
    so A is simple with J = 0 and a unit, and L_z for central z commutes with
    End(A), so z is a scalar: a centre other than F means False. In
    characteristic 0 the radical of T is an ideal with tr L_x^k = 0 for all
    k, a nil ideal, nonzero if T is degenerate (Dieudonne): False. Over GF(p)
    a central simple A is M_n(GF(p)), d = n^2, with T = n trd: a degenerate T
    with d not a square or p not dividing n means False. The even Clifford
    algebra of a smooth odd-rank form is M_n, n a power of 2, so in
    characteristic 2 the elimination decides.
    """
    d, char = alg.dim, alg.char
    _check_capacity(d)
    if char >= CHAR_BOUND:
        raise ValueError(f"characteristic {char} is not below 2^31")
    if d == 0:
        return True, "full-rank"
    flat = [x for row in alg.table for cell in row for x in cell]
    ints = [x % char for x in flat] if char else clear_denominators(flat)
    p = char or _AZUMAYA_PRIME
    c = _tensor(ints, d, p)
    env = _envelope(c, p)
    associative = _associative(c, env, p)
    centre, trace = _centre_and_trace(c, p)
    central = associative and _rank_mod(centre, p) == d - 1
    if central and _rank_mod(trace, p) == d:
        return True, "central-simple"
    if char:
        n = math.isqrt(d)
        if associative and not central:
            return False, "centre"
        if associative and (n * n != d or n % p):
            return False, "trace-radical"
        full = _rank_mod(env, p) == d * d
        return full, "full-rank" if full else "kernel"
    c = _tensor(ints, d)
    env = _envelope(c)
    if not _associative(c, env):
        if _rank_mod(env, p) == d * d:
            return True, "full-rank"
        return rank(env.tolist()) == d * d, "exact"
    centre, trace = _centre_and_trace(c)
    if rank(trace.tolist()) < d:
        return False, "trace-radical"
    if rank(centre.tolist()) != d - 1:
        return False, "centre"
    return True, "central-simple"


def is_azumaya_over_field(alg: StructureConstantAlgebra) -> bool:
    """Is the enveloping map alg (x) alg-op -> End(alg) bijective? See
    azumaya_certificate for how it is decided."""
    return azumaya_certificate(alg)[0]


@dataclass(frozen=True)
class QuaternionAlgebra:
    """Basis 1, i, j, k with i^2 = u, j^2 = v, ij = -ji = k."""

    u: Fraction
    v: Fraction

    def __post_init__(self):
        if self.u == 0 or self.v == 0:
            raise ValueError("quaternion parameters must be nonzero")

    def norm_form_conic(self) -> ConicFiber:
        """u x^2 + v y^2 - z^2: isotropic exactly when the algebra splits."""
        zero = Fraction(0)
        return ConicFiber(
            xx=Fraction(self.u), yy=Fraction(self.v), zz=Fraction(-1),
            xy=zero, xz=zero, yz=zero,
        )


def quaternion_from_ternary(q: QuadraticFormB) -> QuaternionAlgebra:
    """Even Clifford algebra of a nondegenerate ternary form as a quaternion algebra.

    Diagonalizing to <alpha, beta, gamma>, the even part has i = e0 e1 and
    j = e1 e2 with i^2 = -alpha beta and j^2 = -beta gamma. The returned pair is
    validated against the structure constants of the diagonal form's even
    Clifford algebra.
    """
    if q.size != 3:
        raise ValueError("expected a ternary form")
    if q.char == 2:
        raise ValueError("quaternion extraction needs characteristic != 2")
    coeffs, _ = q.diagonalize()
    if 0 in coeffs:  # the Gram matrix is congruent to diag(2 coeffs)
        raise ValueError("form is degenerate")
    alpha, beta, gamma = coeffs
    u = q.scalar(-alpha * beta)
    v = q.scalar(-beta * gamma)
    diag = QuadraticFormB(
        [[alpha, 0, 0], [0, beta, 0], [0, 0, gamma]], char=q.char
    )
    cl = build_clifford(diag)
    i_mask, j_mask = 0b011, 0b110
    one_mask = 0
    ii = cl.mul_basis(i_mask, i_mask)
    jj = cl.mul_basis(j_mask, j_mask)
    ij = cl.mul_basis(i_mask, j_mask)
    ji = cl.mul_basis(j_mask, i_mask)
    if ii != {one_mask: u} or jj != {one_mask: v}:
        raise AssertionError("even Clifford structure constants disagree with (u, v)")
    k_elem = ij
    k_neg = {m: q.scalar(-c) for m, c in ji.items()}
    if k_elem != k_neg:
        raise AssertionError("i j != -j i in the even Clifford algebra")
    kk = cl.multiply(k_elem, k_elem)
    if kk != {one_mask: q.scalar(-u * v)}:
        raise AssertionError("(i j)^2 != -u v in the even Clifford algebra")
    return QuaternionAlgebra(u, v)


def form_from_conic(conic: ConicFiber, char: int = 0) -> QuadraticFormB:
    """Ternary QuadraticFormB with the conic's coefficients (b_ij = coefficient of x_i x_j)."""
    c = conic
    return QuadraticFormB(
        [[c.xx, c.xy, c.xz], [c.xy, c.yy, c.yz], [c.xz, c.yz, c.zz]], char=char
    )


def hilbert_polynomial_quadric(n: int, t: int) -> int:
    """binom(t+n+1, n+1) - binom(t+n-1, n+1) with binomials extended polynomially.

    This is the Euler characteristic of O(t) on a quadric hypersurface in
    projective (n+1)-space, valid for every integer t.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _binom_poly(t + n + 1, n + 1) - _binom_poly(t + n - 1, n + 1)


def _binom_poly(top: int, k: int) -> int:
    """binom(top, k) extended polynomially to any integer top (upper negation below 0)."""
    if top >= 0:
        return math.comb(top, k)
    return (-1) ** k * math.comb(k - top - 1, k)
