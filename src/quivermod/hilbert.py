"""Rational Hilbert symbols, quaternion splitting, and rational points on conics.

Places are odd primes, 2, and the real place (the string "real"). The symbol
(u, v) at a place is +1 when z^2 = u x^2 + v y^2 has a nontrivial local
solution, -1 otherwise; the quaternion algebra (u, v) splits exactly when all
local symbols are +1, and in that case the norm-form conic has a rational
point. Witness points come from the reduced diagonal form a x^2 + b y^2 + c z^2
(squarefree, pairwise coprime) by lattice reduction, after Cremona and Rusin
(Math. Comp. 72, 2003) and D. Simon (Math. Comp. 74, 2005): the index-|abc|
lattice on which the form vanishes mod abc is LLL-reduced in integers, and a
zero is a reduced basis vector or a small combination found in a search
bounded by Cassels' small-zero bound. Apart from factoring the coefficients
(bounded by linalg.factor), every step is polynomial in their size, and a
failure on a locally solvable form is an internal contradiction
(RuntimeError), not an inconclusive answer.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from .clifford import QuaternionAlgebra, form_from_conic
from .linalg import _diagonalize_form, factor, mat_vec, primitive_int_vector
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
    if u == 0:
        raise ValueError("hilbert symbol arguments must be nonzero")
    return u.numerator * u.denominator


def _varying_exponents(*xs: Rational) -> dict[int, list[int]]:
    """{p: exponents above the lowest of p in the square classes |n| d of the
    nonzero xs = n/d}, for each prime p they differ at. Only a coprime base of
    the n and d (split by gcds) is factored, and only its parts whose power varies."""
    squares = [abs(_square_class_int(x)) for x in xs]
    base = {abs(y) for x in xs for y in (x.numerator, x.denominator)} - {1}
    while pair := next(((x, y) for x in base for y in base if x < y and math.gcd(x, y) > 1), None):
        (x, y), h = pair, math.gcd(*pair)
        base = base - {x, y} | {h, x // h, y // h} - {1}
    return {p: [(k - min(powers)) * e for k in powers] for q in base
            if len(set(powers := [_split_valuation(s, q)[0] for s in squares])) > 1
            for p, e in factor(q).items()}


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
    return _local_symbol(_square_class_int(Fraction(u)), _square_class_int(Fraction(v)), place)


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
    # 1 has no prime, so every prime of u or v varies
    primes = _varying_exponents(Fraction(u), Fraction(v), 1).keys()
    return (REAL_PLACE, 2, *sorted(primes - {2}))


def symbol_profile(u: Rational, v: Rational) -> tuple[HilbertSymbolEvaluation, ...]:
    u, v = Fraction(u), Fraction(v)
    a, b = _square_class_int(u), _square_class_int(v)
    return tuple(
        HilbertSymbolEvaluation(place, _local_symbol(a, b, place))
        for place in relevant_places(u, v)
    )


def quaternion_is_split(alg: QuaternionAlgebra) -> bool:
    """Is the norm form <u, v, -1> isotropic?"""
    return _locally_isotropic(alg.u, alg.v, -1)[0]


# ---------------------------------------------------------------------------
# rational points on conics


@dataclass(frozen=True)
class ConicPointResult:
    solvable: bool
    witness: Optional[tuple[int, int, int]]


def _legendre_reduce(a: Rational, b: Rational, c: Rational):
    """Reduce diag(a,b,c) to squarefree pairwise coprime coefficients.

    Returns (a', b', c', m, primes): the diagonal map x_i -> m[i] x_i (m
    integral) takes solutions of the reduced form to solutions of
    diag(a,b,c) x^2 = 0, and primes[i] lists the primes of the i-th reduced
    coefficient in increasing order. A coefficient n/d is read as its square
    class n d, so m[i] starts at d: (n/d)(d x)^2 = n d x^2. Per prime p, the
    power common to all three divides the form (_varying_exponents gives the
    rest, at the primes where one is left); a remaining p^(2k) in one
    coefficient is absorbed by scaling the other two variables by p^k; and p
    left in two coefficients moves to the third (scale its variable by p, then
    divide the form by p).
    """
    coeffs = [1 if x > 0 else -1 for x in (a, b, c)]
    m = [x.denominator for x in (a, b, c)]
    primes: tuple[list[int], ...] = ([], [], [])
    for p, e in sorted(_varying_exponents(a, b, c).items()):
        halves = [p ** (ei // 2) for ei in e]
        m = [mi * math.prod(halves) // h for mi, h in zip(m, halves)]
        odd = [i for i in range(3) if e[i] % 2]
        if len(odd) == 2:
            (i,) = {0, 1, 2} - set(odd)
            m[i] *= p
            odd = [i]
        for i in odd:
            coeffs[i] *= p
            primes[i].append(p)
    return (*coeffs, m, tuple(tuple(ps) for ps in primes))


def _locally_isotropic(a: Rational, b: Rational, c: Rational):
    """Is a x^2 + b y^2 + c z^2 (nonzero rationals) isotropic over Q, and its
    _legendre_reduce output: on that reduced form, the symbol (-a c, -b c) at
    the real place, 2 and the primes of a, b and c decides; it is +1 elsewhere.
    """
    reduced = _legendre_reduce(a, b, c)
    a, b, c, _, primes = reduced
    places = (REAL_PLACE, 2, *primes[0], *primes[1], *primes[2])
    return all(_local_symbol(-a * c, -b * c, place) == 1 for place in places), reduced


def _crt(r: int, m: int, s: int, n: int) -> int:
    """x mod m n with x = r (mod m) and x = s (mod n), for coprime m, n >= 1."""
    return (r + m * ((s - r) * pow(m, -1, n))) % (m * n)


def _sqrt_mod(r: int, p: int) -> int:
    """A square root of r modulo the prime p, by Tonelli-Shanks.

    A non-residue raises RuntimeError: the callers only ask for roots that the
    local decision has already promised.
    """
    r %= p
    if p == 2 or r == 0:
        return r
    if pow(r, (p - 1) // 2, p) != 1:
        raise RuntimeError(f"{r} is not a square modulo {p} on a locally solvable conic")
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, x = pow(z, q, p), pow(r, q, p), pow(r, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        f = pow(c, 1 << (s - i - 1), p)
        s, c, t, x = i, f * f % p, t * f * f % p, x * f % p
    return x


def _root_mod(u: int, v: int, primes: tuple[int, ...]) -> int:
    """t modulo the product of primes with u t^2 + v = 0 modulo each of them."""
    t, mod = 0, 1
    for p in primes:
        t, mod = _crt(t, mod, _sqrt_mod(-v * pow(u, -1, p), p), p), mod * p
    return t


def _lll(basis: list[list[int]], dot) -> list[list[int]]:
    """LLL-reduce (constant 3/4) a basis under a positive definite integral
    inner product, in integers only: Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 2.6.7, with d_i the Gram determinants of the first i
    vectors and lam[k][j] = d_j mu_kj. Every division below is exact."""
    n = len(basis)
    b = [None] + [list(v) for v in basis]
    d = [1, dot(b[1], b[1])] + [0] * (n - 1)
    lam = [[0] * (n + 1) for _ in range(n + 1)]

    def red(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l]:
            q = (2 * lam[k][l] + d[l]) // (2 * d[l])
            b[k] = [x - q * y for x, y in zip(b[k], b[l])]
            lam[k][l] -= q * d[l]
            for i in range(1, l):
                lam[k][i] -= q * lam[l][i]

    k, kmax = 2, 1
    while k <= n:
        if k > kmax:
            kmax = k
            for j in range(1, k + 1):
                u = dot(b[k], b[j])
                for i in range(1, j):
                    u = (d[i] * u - lam[k][i] * lam[j][i]) // d[i - 1]
                if j < k:
                    lam[k][j] = u
                else:
                    d[k] = u
        red(k, k - 1)
        if 4 * d[k] * d[k - 2] < 3 * d[k - 1] ** 2 - 4 * lam[k][k - 1] ** 2:
            b[k], b[k - 1] = b[k - 1], b[k]
            for j in range(1, k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            mu = lam[k][k - 1]
            big = (d[k - 2] * d[k] + mu * mu) // d[k - 1]
            for i in range(k + 1, kmax + 1):
                t = lam[i][k]
                lam[i][k] = (d[k] * lam[i][k - 1] - mu * t) // d[k - 1]
                lam[i][k - 1] = (big * t + mu * lam[i][k]) // d[k]
            d[k - 1] = big
            k = max(2, k - 1)
        else:
            for l in range(k - 2, 0, -1):
                red(k, l)
            k += 1
    return b[1:]


def _reduced_lattice(
    a: int, b: int, c: int, primes: tuple[tuple[int, ...], ...]
) -> tuple[list[list[int]], list[list[int]]]:
    """LLL basis of the lattice on which Q = a x^2 + b y^2 + c z^2 is 0 mod abc,
    and the Gram matrix G' of Q / abc on that basis.

    a, b, c are squarefree and pairwise coprime, primes[i] lists the primes of
    the i-th one, and the conic is locally solvable. With roots alpha, beta,
    delta of a t^2 + b (mod c), b t^2 + c (mod a) and a t^2 + c (mod b), the
    lattice is {x = alpha y (c), y = beta z (a), x = delta z (b)}; the last
    condition is z = gamma x (b) for gamma = 1/delta, a root of c t^2 + a. It
    has index |abc|, and Q(u, v) = 0 mod abc on it, so G' is integral with
    det G' = +-1. Reduction is with respect to N = |a| x^2 + |b| y^2 + |c| z^2.
    """
    alpha = _root_mod(a, b, primes[2])
    beta = _root_mod(b, c, primes[0])
    delta = _root_mod(a, c, primes[1])
    ab, bb, cb = abs(a), abs(b), abs(c)
    basis = [
        [bb * cb, 0, 0],
        [_crt(alpha * a % cb, cb, 0, bb), a, 0],
        [_crt(alpha * beta % cb, cb, delta, bb), beta, 1],
    ]
    basis = _lll(basis, lambda u, v: ab * u[0] * v[0] + bb * u[1] * v[1] + cb * u[2] * v[2])
    abc = a * b * c
    gram = [
        [(a * u[0] * v[0] + b * u[1] * v[1] + c * u[2] * v[2]) // abc for v in basis]
        for u in basis
    ]
    return basis, gram


def _small_zero(g: list[list[int]]) -> tuple[int, int, int]:
    """A nonzero integral zero t of sum g_ij t_i t_j, for an isotropic integral
    symmetric g with g_22 != 0.

    Cassels (Proc. Cambridge Philos. Soc. 51, 1955) gives an isotropic form in
    n variables a zero with max |t_i| <= (3 H)^((n - 1) / 2), H = sum |g_ij|:
    3 H for n = 3. On the reduced lattice |g_ij| <= 8, so 3 H <= 216. Shells of growing max(|t_0|, |t_1|) up to 3 H are walked, one
    representative of +-(t_0, t_1) each, and t_2 is solved from
    g_22 t_2^2 + 2 h t_2 + k = 0; a zero with t_0 = t_1 = 0 would need g_22 = 0.
    Reaching the end contradicts the isotropy promised by the local decision.
    """
    bound = 3 * sum(abs(x) for row in g for x in row)
    g22 = g[2][2]
    for r in range(1, bound + 1):
        for t0, t1 in [(r, s) for s in range(-r, r + 1)] + [(s, r) for s in range(1 - r, r)]:
            h = g[0][2] * t0 + g[1][2] * t1
            k = g[0][0] * t0 * t0 + 2 * g[0][1] * t0 * t1 + g[1][1] * t1 * t1
            disc = h * h - g22 * k
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            for num in (root - h, -root - h):
                if num % g22 == 0:
                    return t0, t1, num // g22
    raise RuntimeError("isotropic unimodular form with no zero inside Cassels' bound")


def _lattice_zero(
    a: int, b: int, c: int, primes: tuple[tuple[int, ...], ...]
) -> tuple[int, int, int]:
    """Nonzero solution of a x^2 + b y^2 + c z^2 = 0 (reduced, locally solvable).

    After LLL, prod N(b_i) <= 8 |abc|^3, and |Q(v)| <= N(v). If no basis
    vector is a zero, each Q(b_i) is a nonzero multiple of abc, so
    |abc| <= N(b_i); then each N(b_i) <= 8 |abc|, Cauchy-Schwarz gives
    |Q(b_i, b_j)| <= 8 |abc|, i.e. |G'_ij| <= 8, and the zero comes from the
    bounded search of _small_zero.
    """
    basis, g = _reduced_lattice(a, b, c, primes)
    for i, v in enumerate(basis):
        if g[i][i] == 0:
            return tuple(v)
    t = _small_zero(g)
    return tuple(sum(ti * v[k] for ti, v in zip(t, basis)) for k in range(3))


def conic_has_rational_point(conic: ConicFiber) -> ConicPointResult:
    """Decide solvability of the plane conic and produce a primitive witness.

    The decision is local: diagonalise the Gram matrix on integers
    (_diagonalize_form, shared with QuadraticFormB.diagonalize; a 0 on the
    diagonal is a degenerate conic) and decide that diagonal by
    _locally_isotropic. When solvable, the witness comes from the same reduced
    form by lattice reduction (Cremona and Rusin, Math. Comp. 72, 2003; D.
    Simon, Math. Comp. 74, 2005): the lattice where the form vanishes mod abc
    is LLL-reduced, and a zero is read off a basis vector or found in a search
    bounded by Cassels' small-zero bound. It is mapped back and verified
    exactly on integers; a failure anywhere on this path raises RuntimeError
    or AssertionError, since it would contradict the local decision.
    """
    xx, yy, zz, xy, xz, yz = map(Fraction, conic.coefficients())
    diagonal, vs, s, gram = _diagonalize_form([[xx, xy, xz], [xy, yy, yz], [xz, yz, zz]])
    if 0 in diagonal:
        raise ValueError("conic is degenerate")
    solvable, (a, b, c, m, primes) = _locally_isotropic(*diagonal)
    if not solvable:
        return ConicPointResult(False, None)
    found = _lattice_zero(a, b, c, primes)
    scale = math.lcm(*s)  # the sign of s_k stays: column k of P is V_k / s_k
    witness = primitive_int_vector(mat_vec(vs, [mi * t * (scale // x)
                                                for mi, t, x in zip(m, found, s)]))
    if not any(witness) or sum(w * x for w, x in zip(witness, mat_vec(gram, witness))):
        raise AssertionError("witness verification failed")
    return ConicPointResult(True, witness)


def clifford_invariant_of_model_point(
    point: Union[L2Point, K3Point]
) -> tuple[QuaternionAlgebra, bool]:
    """Quaternion class of the conic fiber over a stable model point, with verdict.

    Stability is h != 0. From the fiber conic's one diagonal <alpha, beta,
    gamma>, the class is (-alpha beta, -beta gamma) (quaternion_from_ternary
    is the test oracle), and it splits iff that diagonal is isotropic.
    """
    if isinstance(point, L2Point):
        conic = l2_conic(point)
    elif isinstance(point, K3Point):
        conic = k3_conic(point)
    else:
        raise TypeError(f"expected a model point, got {type(point).__name__}")
    if point.h == 0:
        raise ValueError("point is not stable (h = 0)")
    alpha, beta, gamma = form_from_conic(conic).diagonalize()[0]
    split = _locally_isotropic(alpha, beta, gamma)[0]
    return QuaternionAlgebra(-alpha * beta, -beta * gamma), split
