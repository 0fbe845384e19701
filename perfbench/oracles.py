"""Exact oracles that check every answer the benchmark gets from quivermod.

Nothing here imports quivermod, so no check can share a defect with the code
it checks. Arithmetic is integers and fractions.Fraction only. Each check
takes an operation's input and its encoded output (as the worker prints
them) and returns a list of problems; an empty list means the answer is
right. `selftest.py` shows that each check flags a corrupted answer.
"""
from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product

# ---------------------------------------------------------------------------
# integer helpers


def bareiss_det(m) -> int:
    """Determinant of an integer matrix by fraction-free (Bareiss) elimination."""
    a = [list(map(int, row)) for row in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def rank_q(rows) -> int:
    """Rank over Q by Gaussian elimination on Fractions."""
    mat = [[Fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        for i in range(r + 1, len(mat)):
            f = mat[i][col] / mat[r][col]
            if f:
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        r += 1
    return r


def _prime_factors(n: int) -> list[int]:
    n = abs(n)
    out, p = [], 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


def _squarefree(n: int) -> int:
    """The squarefree integer in the square class of the nonzero integer n."""
    out = -1 if n < 0 else 1
    for p in _prime_factors(n):
        e, m = 0, abs(n)
        while m % p == 0:
            m //= p
            e += 1
        if e % 2:
            out *= p
    return out


def legendre_solvable(a: int, b: int, c: int) -> bool:
    """Does a x^2 + b y^2 + c z^2 = 0 have a nonzero rational solution?

    Legendre's theorem, after reduction to squarefree pairwise coprime
    coefficients: solvable iff the signs are mixed and -bc, -ca, -ab are
    squares modulo every odd prime dividing a, b, c respectively.
    """
    a, b, c = _squarefree(a), _squarefree(b), _squarefree(c)
    while True:
        g = math.gcd(a, math.gcd(b, c))
        if g > 1:
            a, b, c = a // g, b // g, c // g
            continue
        g = math.gcd(a, b)
        if g > 1:  # a'(gx)^2 + b'(gy)^2 + (gc) z^2 = 0
            a, b, c = a // g, b // g, c * g
            continue
        g = math.gcd(a, c)
        if g > 1:
            a, b, c = a // g, b * g, c // g
            continue
        g = math.gcd(b, c)
        if g > 1:
            a, b, c = a * g, b // g, c // g
            continue
        break
    if (a > 0) == (b > 0) == (c > 0):
        return False
    for coeff, r in ((a, -b * c), (b, -c * a), (c, -a * b)):
        for p in _prime_factors(coeff):
            if p != 2 and pow(r % p, (p - 1) // 2, p) != 1:
                return False
    return True


def conic_matrix(coeffs) -> list[list[Fraction]]:
    """Symmetric matrix of the ternary form with coefficients (xx, yy, zz, xy, xz, yz)."""
    xx, yy, zz, xy, xz, yz = (Fraction(c) for c in coeffs)
    return [[xx, xy / 2, xz / 2], [xy / 2, yy, yz / 2], [xz / 2, yz / 2, zz]]


def conic_value(coeffs, w) -> Fraction:
    xx, yy, zz, xy, xz, yz = (Fraction(c) for c in coeffs)
    x, y, z = (Fraction(t) for t in w)
    return xx * x * x + yy * y * y + zz * z * z + xy * x * y + xz * x * z + yz * y * z


def _diagonal_of(matrix) -> list[Fraction]:
    """Pivots of a symmetric congruence diagonalization over Q."""
    g = [[Fraction(x) for x in row] for row in matrix]
    n = len(g)
    out = []
    for k in range(n):
        if g[k][k] == 0:
            i = next((i for i in range(k + 1, n) if g[i][i] != 0), None)
            if i is None:
                pair = next(((i, j) for i in range(k, n) for j in range(i + 1, n) if g[i][j] != 0), None)
                if pair is None:
                    return out + [Fraction(0)] * (n - k)
                i, j = pair  # v_i <- v_i + v_j makes the diagonal entry 2 g_ij
                for r in range(n):
                    g[r][i] += g[r][j]
                for c in range(n):
                    g[i][c] += g[j][c]
            for r in range(n):
                g[r][k], g[r][i] = g[r][i], g[r][k]
            g[k], g[i] = g[i], g[k]
        piv = g[k][k]
        for i in range(k + 1, n):
            f = g[i][k] / piv
            if f:
                g[i] = [x - f * y for x, y in zip(g[i], g[k])]
                for r in range(n):
                    g[r][i] -= f * g[r][k]
        out.append(piv)
    return out


def conic_solvable(coeffs) -> bool:
    """Solvability over Q of a nondegenerate conic, via Legendre's theorem."""
    diag = _diagonal_of(conic_matrix(coeffs))
    if any(d == 0 for d in diag):
        raise ValueError("degenerate conic")
    a, b, c = (d.numerator * d.denominator for d in diag)  # same square classes
    return legendre_solvable(a, b, c)


def _witness_problems(coeffs, witness) -> list[str]:
    if witness is None or len(witness) != 3 or not all(isinstance(t, int) for t in witness):
        return [f"missing or malformed witness {witness!r}"]
    if witness == [0, 0, 0]:
        return ["zero witness"]
    out = []
    if math.gcd(*witness) != 1:
        out.append(f"witness {witness} is not primitive")
    if conic_value(coeffs, witness) != 0:
        out.append(f"witness {witness} is not on the conic")
    return out


# ---------------------------------------------------------------------------
# case-scan: the paper's case analysis

PAPER_EXCEPTIONS = {
    "kronecker": [[3, [2, 2]]],  # m = 3, d = (2, 2)
    "loop": [[2, 2]],            # m = 2, d = 2
}


def check_scan(inp, out) -> list[str]:
    """A scan call over the m values inp["ms"] finds exactly the paper's exceptions there."""
    want = [x for x in PAPER_EXCEPTIONS[inp["family"]] if x[0] in inp["ms"]]
    problems = []
    if out["exceptions"] != want:
        problems.append(f"{inp['family']} exceptions {out['exceptions']} != {want}")
    if out["scanned"] != inp["cells"]:
        problems.append(f"scanned {out['scanned']} cells, expected {inp['cells']}")
    return problems


# ---------------------------------------------------------------------------
# strata: brute force over integers, slopes compared by cross-multiplication


def euler(arrows, d, e) -> int:
    n = len(d)
    total = sum(d[i] * e[i] for i in range(n))
    for i in range(n):
        for j in range(n):
            total -= arrows[i][j] * d[i] * e[j]
    return total


def _proper_splits(d):
    zero, full = tuple(0 for _ in d), tuple(d)
    for e in product(*(range(x + 1) for x in d)):
        if e != zero and e != full:
            yield e, tuple(a - b for a, b in zip(d, e))


def _slope_sign(theta, e, f) -> int:
    """Sign of slope(e) - slope(f) for nonzero e, f."""
    lhs = sum(t * x for t, x in zip(theta, e)) * sum(f)
    rhs = sum(t * x for t, x in zip(theta, f)) * sum(e)
    return (lhs > rhs) - (lhs < rhs)


def criterion(arrows, theta, d):
    """(verdict, witness, max_pairing) of the codimension-2 criterion."""
    witness, best = None, None
    for e, f in _proper_splits(d):
        if _slope_sign(theta, e, f) < 0:
            continue
        pairing = euler(arrows, e, f)
        best = pairing if best is None else max(best, pairing)
        if pairing >= -1 and witness is None:
            witness = (e, f)
    return witness is None, witness, best


def hn_types(theta, d) -> list[tuple]:
    """Every tuple of nonzero parts summing to d with strictly falling slopes, sorted."""
    memo: dict = {}

    def tails(remaining, prev):  # prev: the last slope as a reduced (num, den), or None
        key = (remaining, prev)
        if key not in memo:
            out = []
            for e in product(*(range(x + 1) for x in remaining)):
                num, den = sum(t * x for t, x in zip(theta, e)), sum(e)
                if den == 0 or (prev is not None and num * prev[1] >= prev[0] * den):
                    continue
                rest = tuple(a - b for a, b in zip(remaining, e))
                if not any(rest):
                    out.append((e,))
                    continue
                g = math.gcd(num, den)
                out.extend((e,) + t for t in tails(rest, (num // g, den // g)))
            memo[key] = out
        return memo[key]

    return sorted(tails(tuple(d), None))


def wall_codim(arrows, theta, d):
    best = None
    for e, f in _proper_splits(d):
        if _slope_sign(theta, e, f) == 0:
            codim = -euler(arrows, e, f)
            best = codim if best is None else min(best, codim)
    return best


# the paper's two exceptional cells: loop m = 2, d = 2 and Kronecker m = 3, d = (2, 2)
_SPECIAL = ((((2,),), (2,)), (((0, 3), (0, 0)), (2, 2)))


def strata_answer(arrows, theta, d) -> dict:
    """The full expected answer of one strata query (weights are checked, not fixed)."""
    arrows = tuple(tuple(row) for row in arrows)
    d = tuple(d)
    types = hn_types(theta, d)
    codims = [-sum(euler(arrows, t[k], t[l]) for k in range(len(t)) for l in range(k + 1, len(t)))
              for t in types]
    verdict = criterion(arrows, theta, d)[0]
    status = "theorem" if verdict else (
        "special-case" if (arrows, d) in _SPECIAL else "conjectural")
    return {
        "types": [[list(p) for p in t] for t in types],
        "codims": codims,
        "wall": wall_codim(arrows, theta, d),
        "brauer": [math.gcd(*d), status],
        "dim": 1 - euler(arrows, d, d),
    }


def check_strata(inp, out, expected: dict) -> list[str]:
    problems = [f"{key}: got {str(out[key])[:120]}, expected {str(want)[:120]}"
                for key, want in expected.items() if out[key] != want]
    d, w = inp["d"], out["weights"]
    if math.gcd(*d) == 1:
        if not (isinstance(w, list) and len(w) == len(d) and all(isinstance(x, int) for x in w)
                and sum(a * b for a, b in zip(w, d)) == 1):
            problems.append(f"invalid linearization weights {w} for d = {d}")
    elif w is not None:
        problems.append("weights returned although gcd(d) > 1")
    return problems


# ---------------------------------------------------------------------------
# fiber-split: model points and forms


def _det_cols(u, w):
    return u[0] * w[1] - u[1] * w[0]


def _apply(m, v):
    return (m[0][0] * v[0] + m[0][1] * v[1], m[1][0] * v[0] + m[1][1] * v[1])


def _traceless(m):
    """Entries (p, q, r) of the traceless part [[p, q], [r, -p]]."""
    return (Fraction(m[0][0] - m[1][1], 2), Fraction(m[0][1]), Fraction(m[1][0]))


def pair_point(a_mat, b_mat, vs):
    """Invariants (a, b, c, d, e), the fiber conic, and semi-invariants at each v."""
    pa, qa, ra = _traceless(a_mat)
    pb, qb, rb = _traceless(b_mat)
    a = 2 * (pa * pa + qa * ra)
    b = 2 * pa * pb + qa * rb + ra * qb
    c = 2 * (pb * pb + qb * rb)
    inv = [a, b, c, Fraction(a_mat[0][0] + a_mat[1][1]), Fraction(b_mat[0][0] + b_mat[1][1])]
    conic = [c, Fraction(-2), a, 0, -2 * b, 0]
    ap = ((pa, qa), (ra, -pa))
    bp = ((pb, qb), (rb, -pb))
    semis = [(_det_cols(v, _apply(a_mat, v)), _det_cols(_apply(ap, v), _apply(bp, v)),
              _det_cols(v, _apply(b_mat, v))) for v in vs]
    return inv, conic, semis


def triple_point(a_mat, b_mat, c_mat, vs):
    """Coefficients of det(alpha A + beta B + gamma C), the fiber conic, semi-invariants."""
    def mixed(x, y):  # coefficient of st in det(s X + t Y)
        return x[0][0] * y[1][1] + y[0][0] * x[1][1] - x[0][1] * y[1][0] - y[0][1] * x[1][0]

    def det(x):
        return x[0][0] * x[1][1] - x[0][1] * x[1][0]

    a, b, c = det(a_mat), mixed(a_mat, b_mat), mixed(a_mat, c_mat)
    d, e, f = det(b_mat), mixed(b_mat, c_mat), det(c_mat)
    inv = [Fraction(x) for x in (a, b, c, d, e, f)]
    conic = [f, d, a, -e, c, -b]
    semis = []
    for v in vs:
        av, bv, cv = _apply(a_mat, v), _apply(b_mat, v), _apply(c_mat, v)
        semis.append((_det_cols(av, bv), _det_cols(av, cv), _det_cols(bv, cv)))
    return inv, conic, semis


def burnside(mats) -> int:
    """Dimension of the span of all words of length <= 3 in the matrices."""
    ident = ((1, 0), (0, 1))
    words, layer = [ident], [ident]
    for _ in range(3):
        layer = [tuple(tuple(sum(w[i][k] * m[k][j] for k in range(2)) for j in range(2))
                       for i in range(2)) for w in layer for m in mats]
        words.extend(layer)
    return rank_q([[w[0][0], w[0][1], w[1][0], w[1][1]] for w in words])


def _poly_gcd(p1, p2) -> list[Fraction]:
    """gcd of two univariate polynomials (ascending coefficients), up to a unit."""
    def trim(p):
        while p and p[-1] == 0:
            p.pop()
        return p

    a, b = trim([Fraction(x) for x in p1]), trim([Fraction(x) for x in p2])
    while b:
        r = list(a)
        while len(r) >= len(b) and trim(r):
            f = r[-1] / b[-1]
            shift = len(r) - len(b)
            for i, coef in enumerate(b):
                r[shift + i] -= f * coef
            trim(r)
        a, b = b, r
    return a


def destabilizer_is_valid(kind, mats) -> bool:
    """Is `kind` the dimension type of a theta-destabilizing subrepresentation?"""
    a_m, b_m, c_m = mats
    entries = [x for m in mats for row in m for x in row]
    if kind == [2, 0]:
        return not any(entries)
    if kind == [1, 0]:  # a common kernel line
        return rank_q([list(m[i]) for m in mats for i in range(2)]) <= 1
    if kind == [2, 1]:  # all images in one line
        return rank_q([[m[i][0] for m in mats] + [m[i][1] for m in mats] for i in range(2)]) <= 1
    if kind == [1, 1]:  # some v with Av, Bv, Cv collinear
        forms = []
        for x, y in ((a_m, b_m), (a_m, c_m), (b_m, c_m)):
            s2 = _det_cols(_apply(x, (1, 0)), _apply(y, (1, 0)))
            t2 = _det_cols(_apply(x, (0, 1)), _apply(y, (0, 1)))
            st = _det_cols(_apply(x, (1, 1)), _apply(y, (1, 1))) - s2 - t2
            if s2 or st or t2:
                forms.append((s2, st, t2))
        if not forms or all(f[0] == 0 for f in forms):
            return True  # a common root at (1 : 0)
        g = None
        for s2, st, t2 in forms:  # finite roots (s : 1) of s2 s^2 + st s + t2
            g = [t2, st, s2] if g is None else _poly_gcd(g, [t2, st, s2])
        return len(g) > 1
    return False


def _frac_list(xs):
    return [Fraction(x) for x in xs]


def check_point(inp, out) -> list[str]:
    mats, vs = inp["mats"], inp["vs"]
    if inp["kind"] == "pair":
        inv, conic, semis = pair_point(mats[0], mats[1], vs)
    else:
        inv, conic, semis = triple_point(*mats, vs)
    (m00, m01, m02), (_, m11, m12), (_, _, m22) = conic_matrix(conic)
    gram = m00 * (m11 * m22 - m12 * m12) - m01 * (m01 * m22 - m12 * m02) + m02 * (m01 * m12 - m11 * m02)
    stable = gram != 0  # the fiber conic is smooth exactly over stable points
    problems = []
    if _frac_list(out["inv"]) != inv:
        problems.append(f"invariants {out['inv']} != {[str(x) for x in inv]}")
    if out["stable"] != stable:
        problems.append(f"stable = {out['stable']}, Gram determinant says {stable}")
    if inp["kind"] == "pair":
        if out["burnside"] != burnside(mats):
            problems.append(f"burnside dimension {out['burnside']} != {burnside(mats)}")
    elif stable != (out["destab"] is None):
        problems.append(f"destabilizer {out['destab']} for a point with stable = {stable}")
    elif out["destab"] is not None and not destabilizer_is_valid(out["destab"], mats):
        problems.append(f"destabilizer type {out['destab']} is not realized")
    got_semis = [_frac_list(s) for s in out["semis"]]
    if got_semis != [list(s) for s in semis]:
        problems.append("semi-invariants differ from direct evaluation")
    for s in got_semis:
        if conic_value(conic, s) != 0:
            problems.append(f"semi-invariants {[str(x) for x in s]} violate the conic identity")
    if not stable:
        if out["quat"] is not None or out["point"] is not None:
            problems.append("conic answers returned for an unstable point")
        return problems
    if out["quat"] is None or out["point"] is None:
        return problems + ["missing conic answers for a stable point"]
    solvable = conic_solvable(conic)
    u, v = _frac_list(out["quat"])
    if u == 0 or v == 0 or legendre_solvable(u.numerator * u.denominator,
                                             v.numerator * v.denominator, -1) != solvable:
        problems.append(f"quaternion ({u}, {v}) does not match the fiber conic")
    if out["split"] != solvable:
        problems.append(f"split = {out['split']}, Legendre says {solvable}")
    problems += _check_conic_point(conic, solvable, out["point"])
    return problems


def _check_conic_point(coeffs, solvable: bool, point) -> list[str]:
    if point["solvable"] != solvable:
        return [f"solvable = {point['solvable']}, Legendre says {solvable}"]
    if not solvable:
        return [] if point["witness"] is None else ["witness returned for an unsolvable conic"]
    return _witness_problems(coeffs, point["witness"])


def form_is_smooth(b, p: int) -> bool:
    """Nonzero Gram determinant over Q (p = 0) or over GF(p), p odd."""
    n = len(b)
    det = bareiss_det([[b[i][j] if i != j else 2 * b[i][i] for j in range(n)] for i in range(n)])
    return det != 0 if p == 0 else det % p != 0


def check_form(inp, out) -> list[str]:
    b, size = inp["b"], len(inp["b"])
    problems = []
    for key, p in (("q", 0), ("p", inp["p"])):
        dim, verdict = out[key]
        if dim != 2 ** (size - 1):
            problems.append(f"even part over {key} has dimension {dim}")
        if verdict != form_is_smooth(b, p):
            problems.append(f"Azumaya = {verdict} over {'Q' if p == 0 else f'GF({p})'}, "
                            f"Gram determinant says {not verdict}")
    return problems


# ---------------------------------------------------------------------------
# conic-height


def check_conic(inp, out) -> list[str]:
    return _check_conic_point(inp["coeffs"], legendre_solvable(*inp["primes"]), out)


# ---------------------------------------------------------------------------


class Checker:
    """Checks worker records; memoises the expensive strata answers by query."""

    def __init__(self):
        self._strata: dict = {}

    def check(self, rec) -> list[str]:
        """Problems with one record; an exception in the library is one."""
        if rec["err"] is not None:
            return [f"raised {rec['err']}"]
        inp, out = rec["in"], rec["out"]
        kind = inp["kind"]
        if kind == "scan":
            return check_scan(inp, out)
        if kind in ("kronecker", "acyclic3"):
            key = json.dumps([inp["arrows"], inp["theta"], inp["d"]])
            if key not in self._strata:
                self._strata[key] = strata_answer(inp["arrows"], inp["theta"], inp["d"])
            return check_strata(inp, out, self._strata[key])
        if kind in ("pair", "triple"):
            return check_point(inp, out)
        if kind == "form":
            return check_form(inp, out)
        if kind == "conic":
            return check_conic(inp, out)
        return [f"unknown operation kind {kind!r}"]
