"""Exact linear algebra at small sizes, and the integer helpers the other
modules share: bounded factoring, a primality test and clearing denominators.

There are three integer cores. Over Q, rank and nullspace clear each row's
denominators and eliminate fraction-free (Bareiss, Math. Comp. 22, 1968).
Over GF(p), _echelon_mod_p eliminates int64 residues with numpy. The
congruence diagonalisation of quadratic forms, _diagonalize_ints, runs on an
integer Gram matrix over Q or on residues over GF(p), scaling columns instead
of dividing by pivots. Its one rational entry is _diagonalize_form, which
QuadraticFormB.diagonalize (over Q) and the conic solver share, so that both
form Fractions only for their answers. No floating point anywhere.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence


def _bareiss(rows: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of a rational matrix, and its pivot
    columns.

    Each row is first scaled to integers, which keeps rank and kernel. Each
    step divides exactly by the previous pivot, so every entry stays a minor
    of the scaled matrix and no entry outgrows Hadamard's bound.
    """
    mat = [clear_denominators(row) for row in rows]
    pivots: list[int] = []
    prev = 1
    for col in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        top = mat[r][col:]
        d = top[0]
        for row in mat[r + 1:]:
            a = row[col]
            row[col:] = [(d * x - a * y) // prev for x, y in zip(row[col:], top)]
        # a zero row stays zero: dropping it lets the loop stop at the rank
        mat[r + 1:] = [row for row in mat[r + 1:] if any(row)]
        prev = d
        pivots.append(col)
        if r + 1 == len(mat):
            break
    return mat, pivots


def rank(rows: Sequence[Sequence]) -> int:
    """Rank over Q of a matrix of ints and Fractions."""
    return len(_bareiss(rows)[1])


def nullspace(rows: Sequence[Sequence]) -> list[list[int]]:
    """Basis of the right kernel over Q of a matrix of ints and Fractions: per
    column without a pivot, the kernel vector that is 0 at the other such
    columns, as a primitive integer vector with positive first nonzero entry.
    """
    mat, pivots = _bareiss(rows)
    ncols = len(rows[0]) if rows else 0
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = 1
        # back-substitute, scaling the vector so that it stays integral
        for row, pc in reversed(list(zip(mat, pivots))):
            s = sum(x * v for x, v in zip(row[pc + 1:], vec[pc + 1:]))
            g = math.gcd(s, row[pc])
            vec = [v * (row[pc] // g) for v in vec]
            vec[pc] = -s // g
        basis.append(list(primitive_int_vector(vec)))
    return basis


def _echelon_mod_p(a, p: int) -> tuple[int, Optional[list[int]]]:
    """Rank of a 2-D int64 matrix of residues mod a prime p < 2^31, of any
    shape (row operations stay below 2^62), eliminated in place, and one
    kernel vector if some column has no pivot: 1 at the first such column, 0
    after it, and back-substituted before it, where every pivot sits on the
    diagonal.
    """
    import numpy as np

    cols = a.shape[1]
    r, free = 0, None
    for col in range(cols):
        nz = np.flatnonzero(a[r:, col])
        if nz.size == 0:
            free = col if free is None else free
            continue
        a[[r, r + nz[0]]] = a[[r + nz[0], r]]
        a[r, col:] = a[r, col:] * pow(int(a[r, col]), -1, p) % p
        rest = a[r + 1:, col:]  # a view: columns left of col are already zero below row r
        below = rest[:, 0] != 0
        if below.any():
            rest[below] = (rest[below] - np.outer(rest[below, 0], a[r, col:])) % p
        r += 1
    if free is None:
        return r, None
    vec = [0] * cols
    vec[free] = 1
    for k in range(free - 1, -1, -1):
        row = a[k, k + 1:free + 1].tolist()
        vec[k] = -sum(x * v for x, v in zip(row, vec[k + 1:free + 1])) % p
    return r, vec


def _diagonalize_ints(g: Sequence[Sequence[int]], p: int = 0):
    """Fraction-free congruence diagonalisation of a symmetric integer Gram
    matrix G over Q, or of residues mod an odd prime p: (pivots, V, s) with
    P = V diag(1/s) and P^T G P = diag(pivots / s^2). It pivots on the first
    nonzero diagonal entry, else first merges the first nonzero pair (i, j),
    v_i <- v_i + v_j. A step v_i <- v_i + f v_k is V_i <- a V_i + b V_k and
    s_i <- a s_i with b / a = f s_i / s_k, so no field division is needed.
    """
    size = len(g)
    h = [[x % p if p else x for x in row] for row in g]  # h_ij = s_i s_j (P^T G P)_ij
    vs = [[int(i == j) for j in range(size)] for i in range(size)]
    s = [1] * size

    def red(x):
        return x % p if p else x

    def col_op(i: int, k: int, a: int, b: int):
        for m in (h, vs):
            for row in m:
                row[i] = red(a * row[i] + b * row[k])
        h[i] = [red(a * x + b * y) for x, y in zip(h[i], h[k])]
        s[i] = red(a * s[i])
        d = 1 if p else math.gcd(s[i], *(row[i] for row in vs))
        if d > 1:  # V_i / s_i in lowest terms keeps the entries from compounding
            for m in (h, vs):
                for row in m:
                    row[i] //= d
            h[i], s[i] = [x // d for x in h[i]], s[i] // d

    def swap(i: int, j: int):
        for m in (h, vs):
            for row in m:
                row[i], row[j] = row[j], row[i]
        h[i], h[j], s[i], s[j] = h[j], h[i], s[j], s[i]

    for k in range(size):
        if h[k][k] == 0:
            pivot = next((i for i in range(k + 1, size) if h[i][i]), None)
            if pivot is not None:
                swap(k, pivot)
            else:
                pair = next(((i, j) for i in range(k, size) for j in range(i + 1, size)
                             if h[i][j]), None)
                if pair is None:
                    break  # remaining block is zero
                i, j = pair
                col_op(i, j, s[j], s[i])  # v_i + v_j makes the diagonal 2 g_ij != 0
                if i != k:
                    swap(k, i)
        for i in range(k + 1, size):
            if h[k][i]:
                col_op(i, k, h[k][k], -h[k][i])
    return [h[k][k] for k in range(size)], vs, s


def _diagonalize_form(b: Sequence[Sequence]):
    """Congruence diagonalisation over Q of sum_{i<=j} b_ij x_i x_j (b symmetric,
    ints and Fractions): (coeffs, V, s, G) with G the integral Gram matrix of the
    form times the lcm L of b's denominators, (pivots, V, s) = _diagonalize_ints(G)
    and coeffs = pivots / (2 L s^2), so the form at V diag(1/s) w is sum coeffs w^2."""
    lcm = math.lcm(*[x.denominator for row in b for x in row])
    g = [[x.numerator * (lcm // x.denominator) for x in row] for row in b]
    for i, row in enumerate(g):
        row[i] *= 2
    pivots, vs, s = _diagonalize_ints(g)
    return [Fraction(h, 2 * lcm * x * x) for h, x in zip(pivots, s)], vs, s, g


def clear_denominators(vec: Sequence) -> list[int]:
    """The vector times the lcm of its entries' denominators (int or Fraction),
    as a new list; an all-int vector is copied without that pass."""
    if set(map(type, vec)) == {int}:
        return list(vec)
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


# Miller-Rabin with the bases 2, 3, 5, 7 is exact below this bound (Pomerance,
# Selfridge and Wagstaff, Math. Comp. 35, 1980).
PRIME_BOUND = 3215031751


def is_prime(n: int) -> bool:
    """Primality of 0 <= n < PRIME_BOUND by deterministic Miller-Rabin."""
    if n >= PRIME_BOUND:
        raise ValueError(f"capacity: primality of {n} is decided only below {PRIME_BOUND}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * odd
    return n in (2, 3, 5, 7) or n > 7 and all(
        (x := pow(a, (n - 1) >> s, n)) == 1 or n - 1 in (pow(x, 1 << k, n) for k in range(s))
        for a in (2, 3, 5, 7))
