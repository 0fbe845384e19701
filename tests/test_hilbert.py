import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from conic_oracle import conic_has_rational_point_oracle, holzer_search, squarefree_decompose
from hypothesis import assume, given, settings, strategies as st
from sympy import factorint, multiplicity
from sympy.ntheory import is_quad_residue

import quivermod.hilbert as hilbert_module
from quivermod.clifford import (
    QuadraticFormB,
    QuaternionAlgebra,
    form_from_conic,
    quaternion_from_ternary,
)
from quivermod.hilbert import (
    REAL_PLACE,
    ConicPointResult,
    _lattice_zero,
    _legendre_reduce,
    _lll,
    _reduced_lattice,
    _small_zero,
    _sqrt_mod,
    _varying_exponents,
    clifford_invariant_of_model_point,
    conic_has_rational_point,
    hilbert_symbol,
    quaternion_is_split,
    relevant_places,
    symbol_profile,
)
from quivermod.linalg import factor
from quivermod.models import ConicFiber, K3Point, L2Point, k3_conic, l2_conic

PLACES = (REAL_PLACE, 2, 3, 5, 7)

nonzero_int = st.integers(-30, 30).filter(lambda x: x != 0)
nonzero_rat = st.builds(
    Fraction, st.integers(-30, 30).filter(lambda x: x != 0), st.integers(1, 12)
)

# numerators and denominators from a few primes, so that they share factors
shared_prime_part = st.lists(st.sampled_from((2, 3, 5, 9973, 10007)), max_size=4).map(math.prod)
shared_prime_rat = st.builds(
    lambda sign, n, d: Fraction(sign * n, d),
    st.sampled_from((1, -1)), shared_prime_part, shared_prime_part,
)


def diag_conic(a, b, c):
    zero = Fraction(0)
    return ConicFiber(
        xx=Fraction(a), yy=Fraction(b), zz=Fraction(c), xy=zero, xz=zero, yz=zero
    )


def brute_local_solvable(u: int, v: int, p: int) -> bool:
    """Does u x^2 + v y^2 = z^2 have a nontrivial p-adic solution?

    Searches primitive solutions modulo p^k; for squarefree u, v a primitive
    solution mod p^3 (p odd) or mod 2^6 lifts by the quadratic Hensel bound, so
    the modular search is equivalent to p-adic solvability.
    """
    k = 6 if p == 2 else 3
    q = p ** k
    squares = set()
    unit_squares = set()
    for t in range(q):
        sq = t * t % q
        squares.add(sq)
        if t % p:
            unit_squares.add(sq)
    for x in range(q):
        ux2 = u * x * x
        x_unit = x % p != 0
        for y in range(q):
            t = (ux2 + v * y * y) % q
            if x_unit or y % p != 0:
                if t in squares:
                    return True
            elif t in unit_squares:
                return True
    return False


class TestHilbertSymbol:
    def test_frozen_values(self):
        assert hilbert_symbol(-1, -1, REAL_PLACE) == -1
        assert hilbert_symbol(-1, -1, 2) == -1
        assert hilbert_symbol(-1, -1, 3) == 1
        assert hilbert_symbol(2, 3, 2) == -1
        assert hilbert_symbol(3, 3, 3) == -1
        assert hilbert_symbol(2, 5, 5) == -1
        assert hilbert_symbol(5, 5, 5) == 1
        assert hilbert_symbol(1, -7, 7) == 1
        assert hilbert_symbol(Fraction(1, 2), Fraction(1, 2), 2) == 1

    def test_one_is_always_trivial(self):
        for place in PLACES:
            for v in (-5, -1, 2, 3, 30):
                assert hilbert_symbol(1, v, place) == 1

    def test_rejects_zero_arguments(self):
        with pytest.raises(ValueError):
            hilbert_symbol(0, 1, 2)
        with pytest.raises(ValueError):
            hilbert_symbol(1, Fraction(0), 2)

    def test_rejects_bad_place(self):
        with pytest.raises(ValueError):
            hilbert_symbol(1, 1, 1)
        with pytest.raises(ValueError):
            hilbert_symbol(1, 1, "nowhere")

    @pytest.mark.parametrize("place", [4, 9, 15, 1001])
    def test_rejects_composite_place(self, place):
        with pytest.raises(ValueError, match="prime"):
            hilbert_symbol(3, 5, place)

    def test_accepts_large_prime_place(self):
        assert hilbert_symbol(3, 5, 2**31 - 1) == 1

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_against_brute_padic_search(self, p):
        units = [1, -1, 2, 3, -3, 5]
        divisible = [p, -p, 2 * p, -3 * p]
        pairs = []
        for u in units[:4]:
            for v in units:
                pairs.append((u, v))
        for u in divisible:
            for v in units[:3] + divisible[:2]:
                pairs.append((u, v))
        for u, v in pairs:
            u0 = squarefree_decompose(u)[1]
            v0 = squarefree_decompose(v)[1]
            expected = brute_local_solvable(u0, v0, p)
            assert (hilbert_symbol(u, v, p) == 1) == expected, (u, v, p)

    @given(nonzero_rat, nonzero_rat)
    @settings(max_examples=200)
    def test_product_formula(self, u, v):
        values = [ev.value for ev in symbol_profile(u, v)]
        assert math.prod(values) == 1

    @given(nonzero_rat, nonzero_rat)
    def test_symmetry(self, u, v):
        for place in PLACES:
            assert hilbert_symbol(u, v, place) == hilbert_symbol(v, u, place)

    @given(nonzero_int, nonzero_int, nonzero_int)
    def test_bilinearity(self, u1, u2, v):
        for place in PLACES:
            assert hilbert_symbol(u1 * u2, v, place) == hilbert_symbol(
                u1, v, place
            ) * hilbert_symbol(u2, v, place)

    @given(nonzero_rat, nonzero_rat, nonzero_int)
    def test_square_scaling(self, u, v, s):
        for place in PLACES:
            assert hilbert_symbol(u * s * s, v, place) == hilbert_symbol(u, v, place)

    @given(nonzero_rat)
    def test_u_with_minus_u_splits(self, u):
        for place in PLACES:
            assert hilbert_symbol(u, -u, place) == 1


class TestRelevantPlaces:
    def test_frozen(self):
        assert relevant_places(-6, Fraction(10, 3)) == (REAL_PLACE, 2, 3, 5)
        assert relevant_places(1, 1) == (REAL_PLACE, 2)
        assert relevant_places(0.5, 2.5) == (REAL_PLACE, 2, 5)

    def test_rejects_zero(self):
        for u, v in ((0, 1), (1, 0), (Fraction(0), Fraction(1, 3))):
            with pytest.raises(ValueError, match="must be nonzero"):
                relevant_places(u, v)

    @given(st.lists(shared_prime_rat, min_size=1, max_size=4))
    @settings(max_examples=150)
    def test_varying_exponents(self, xs):
        squares = [abs(x.numerator) * x.denominator for x in xs]
        expected = {}
        for p in set().union(*map(factorint, squares)):
            e = [multiplicity(p, s) for s in squares]
            if len(set(e)) > 1:
                expected[p] = [k - min(e) for k in e]
        assert _varying_exponents(*xs) == expected

    @given(nonzero_rat, nonzero_rat)
    @settings(max_examples=60)
    def test_symbol_is_trivial_off_the_list(self, u, v):
        places = relevant_places(u, v)
        for p in (3, 5, 7, 11, 13):
            if p not in places:
                assert hilbert_symbol(u, v, p) == 1


class TestQuaternionSplitting:
    def test_frozen(self):
        assert quaternion_is_split(QuaternionAlgebra(Fraction(1), Fraction(1)))
        assert not quaternion_is_split(QuaternionAlgebra(Fraction(-1), Fraction(-1)))
        assert not quaternion_is_split(QuaternionAlgebra(Fraction(2), Fraction(3)))

    @given(nonzero_rat)
    def test_u_minus_u_always_splits(self, u):
        assert quaternion_is_split(QuaternionAlgebra(u, -u))

    @given(nonzero_rat)
    def test_norm_of_square_splits(self, u):
        assert quaternion_is_split(QuaternionAlgebra(u * u, Fraction(-3)))

    @given(st.one_of(nonzero_rat, st.integers(-10 ** 6, 10 ** 6).filter(lambda x: x != 0)),
           st.one_of(nonzero_rat, st.integers(-10 ** 6, 10 ** 6).filter(lambda x: x != 0)))
    @settings(max_examples=300)
    def test_split_iff_every_symbol_is_one(self, u, v):
        # symbol_profile, the CLI's per-place display, is the oracle
        expected = all(ev.value == 1 for ev in symbol_profile(u, v))
        assert quaternion_is_split(QuaternionAlgebra(Fraction(u), Fraction(v))) == expected


class TestConicPoints:
    def test_pythagorean(self):
        result = conic_has_rational_point(diag_conic(1, 1, -1))
        assert result.solvable
        assert result.witness == (1, 0, 1)

    def test_unsolvable_at_three(self):
        result = conic_has_rational_point(diag_conic(1, 1, -3))
        assert not result.solvable and result.witness is None

    def test_unsolvable_definite(self):
        result = conic_has_rational_point(diag_conic(1, 1, 1))
        assert not result.solvable

    def test_cross_term_conic(self):
        conic = ConicFiber(
            xx=Fraction(0), yy=Fraction(-2), zz=Fraction(0),
            xy=Fraction(0), xz=Fraction(-2), yz=Fraction(0),
        )
        result = conic_has_rational_point(conic)
        assert result.solvable
        assert result.witness == (1, -1, -1)
        assert conic.evaluate(*result.witness) == 0
        assert math.gcd(*result.witness) == 1
        # (1, 0, 0) is another obvious zero of -2y^2 - 2xz
        assert conic.evaluate(1, 0, 0) == 0

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            conic_has_rational_point(ConicFiber(
                xx=Fraction(1), yy=Fraction(0), zz=Fraction(0),
                xy=Fraction(0), xz=Fraction(0), yz=Fraction(0),
            ))

    @given(st.integers(-12, 12).filter(lambda x: x != 0),
           st.integers(-12, 12).filter(lambda x: x != 0))
    @settings(max_examples=120, deadline=None)
    def test_split_iff_norm_conic_solvable(self, u, v):
        quat = QuaternionAlgebra(Fraction(u), Fraction(v))
        split = quaternion_is_split(quat)
        conic = quat.norm_form_conic()
        result = conic_has_rational_point(conic)
        assert result.solvable == split
        if split:
            x, y, z = result.witness
            assert conic.evaluate(x, y, z) == 0
            assert math.gcd(x, math.gcd(y, z)) == 1
        else:
            a, b, c, _, _ = _legendre_reduce(u, v, -1)
            assert holzer_search(a, b, c) is None

    @given(st.integers(-40, 40).filter(lambda x: x != 0),
           st.integers(-40, 40).filter(lambda x: x != 0),
           st.integers(-40, 40).filter(lambda x: x != 0))
    @settings(max_examples=80)
    def test_legendre_reduce_postconditions(self, a, b, c):
        ra, rb, rc, m, primes = _legendre_reduce(a, b, c)
        for x, ps in zip((ra, rb, rc), primes):
            assert x != 0
            assert squarefree_decompose(x)[0] == 1
            assert ps == tuple(sorted(factor(x)))
        assert math.gcd(ra, rb) == 1
        assert math.gcd(ra, rc) == 1
        assert math.gcd(rb, rc) == 1
        # original form composed with M is proportional to the reduced form
        samples = [(1, 2, 3), (1, 0, 1), (2, 1, 1), (0, 1, 4)]
        pairs = []
        for v in samples:
            mv = [m[i] * v[i] for i in range(3)]
            orig = a * mv[0] ** 2 + b * mv[1] ** 2 + c * mv[2] ** 2
            red = ra * v[0] ** 2 + rb * v[1] ** 2 + rc * v[2] ** 2
            pairs.append((orig, red))
        for o1, r1 in pairs:
            for o2, r2 in pairs:
                assert o1 * r2 == o2 * r1

    @given(nonzero_rat, nonzero_rat, nonzero_rat)
    @settings(max_examples=80)
    def test_legendre_reduce_scale_solves_the_rational_form(self, a, b, c):
        # m takes in each denominator, so it maps the reduced form to a
        # multiple of the form it was given, not of its cleared square classes
        ra, rb, rc, m, _ = _legendre_reduce(a, b, c)
        assert all(isinstance(x, int) and x > 0 for x in m)
        ratios = {x * mi * mi / r for x, mi, r in zip((a, b, c), m, (ra, rb, rc))}
        assert len(ratios) == 1

    def test_squarefree_decompose(self):
        assert squarefree_decompose(72) == (6, 2)
        assert squarefree_decompose(-18) == (3, -2)
        assert squarefree_decompose(1) == (1, 1)
        assert squarefree_decompose(7) == (1, 7)


def _reduced(a, b, c):
    """The squarefree coprime triple of diag(a, b, c), its primes, and the
    local verdict."""
    ra, rb, rc, _, primes = _legendre_reduce(a, b, c)
    split = quaternion_is_split(QuaternionAlgebra(Fraction(-ra * rc), Fraction(-rb * rc)))
    return ra, rb, rc, primes, split


def _five_digit_primes():
    return [p for p in range(10007, 100000, 2) if factor(p) == {p: 1}]


class TestLatticeSolver:
    nonzero_100 = st.integers(-100, 100).filter(lambda x: x != 0)

    @given(nonzero_100, nonzero_100, nonzero_100)
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_holzer_oracle(self, a, b, c):
        ra, rb, rc, primes, split = _reduced(a, b, c)
        assert (holzer_search(ra, rb, rc) is not None) == split
        result = conic_has_rational_point(diag_conic(a, b, c))
        assert result.solvable == split
        if split:
            x, y, z = result.witness
            assert a * x * x + b * y * y + c * z * z == 0
            assert math.gcd(x, math.gcd(y, z)) == 1

    def test_random_rational_conics_match_symbol_decision(self):
        rng = random.Random(20031)
        checked = 0
        while checked < 2000:
            conic = ConicFiber(*(
                Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 6, 9)))
                for _ in range(6)
            ))
            if not conic.is_nondegenerate:
                continue
            checked += 1
            (al, be, ga), _ = form_from_conic(conic).diagonalize()
            split = quaternion_is_split(QuaternionAlgebra(-al * ga, -be * ga))
            result = conic_has_rational_point(conic)
            assert result.solvable == split, conic
            if split:
                assert conic.evaluate(*result.witness) == 0
                assert math.gcd(*result.witness) == 1

    @given(nonzero_100, nonzero_100, st.integers(0, 12), st.integers(0, 12))
    @settings(max_examples=300, deadline=None)
    def test_reduced_gram_is_unimodular_and_small(self, a, b, x, y):
        # (x, y, 1) is a zero of a x^2 + b y^2 + c z^2, so the form is solvable
        c = -(a * x * x + b * y * y)
        assume(c != 0)
        ra, rb, rc, primes, split = _reduced(a, b, c)
        assert split
        basis, g = _reduced_lattice(ra, rb, rc, primes)
        abc = ra * rb * rc
        for u, row in zip(basis, g):
            for v, gij in zip(basis, row):
                assert ra * u[0] * v[0] + rb * u[1] * v[1] + rc * u[2] * v[2] == gij * abc
        assert abs(
            g[0][0] * (g[1][1] * g[2][2] - g[1][2] * g[2][1])
            - g[0][1] * (g[1][0] * g[2][2] - g[1][2] * g[2][0])
            + g[0][2] * (g[1][0] * g[2][1] - g[1][1] * g[2][0])
        ) == 1
        if all(g[i][i] != 0 for i in range(3)):
            assert max(abs(x) for row in g for x in row) <= 8

    def test_gram_bound_on_five_digit_primes(self):
        rng = random.Random(5)
        primes = _five_digit_primes()
        seen = 0
        while seen < 20:
            a, b, c = (p * rng.choice((-1, 1)) for p in rng.sample(primes, 3))
            ra, rb, rc, ps, split = _reduced(a, b, c)
            if not split:
                continue
            seen += 1
            _, g = _reduced_lattice(ra, rb, rc, ps)
            assert max(abs(x) for row in g for x in row) <= 8

    def test_lll_output_is_reduced(self):
        weights = (3, 5, 7)

        def dot(u, v):
            return sum(w * x * y for w, x, y in zip(weights, u, v))

        basis = _lll([[105, 0, 0], [40, 3, 0], [71, 2, 1]], dot)
        # same lattice: unimodular change of basis (determinant preserved)
        (a, b, c), (d, e, f), (g, h, i) = basis
        assert abs(a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) == 315
        star, mu = [], {}
        for k, v in enumerate(basis):
            w = [Fraction(x) for x in v]
            for j in range(k):
                mu[k, j] = Fraction(dot(v, star[j])) / dot(star[j], star[j])
                w = [x - mu[k, j] * y for x, y in zip(w, star[j])]
            star.append(w)
        for (k, j), m in mu.items():
            assert abs(m) <= Fraction(1, 2)
        for k in range(1, 3):
            lhs = dot(star[k], star[k])
            rhs = (Fraction(3, 4) - mu[k, k - 1] ** 2) * dot(star[k - 1], star[k - 1])
            assert lhs >= rhs

    def test_sqrt_mod(self):
        for p in (2, 3, 5, 13, 17, 97, 10009, 65537):
            for r in range(1, min(p, 200)):
                if p == 2 or pow(r, (p - 1) // 2, p) == 1:
                    assert _sqrt_mod(r, p) ** 2 % p == r
        with pytest.raises(RuntimeError):
            _sqrt_mod(2, 5)

    def test_small_zero_is_bounded_on_anisotropic_input(self):
        # x^2 + y^2 + z^2 has no zero: the search stops at Cassels' bound
        with pytest.raises(RuntimeError, match="Cassels"):
            _small_zero([[1, 0, 0], [0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("g", [
        [[1, 0, 0], [0, 1, 0], [0, 0, -1]],
        # the first zeros, (4, 3, 1) and (3, 4, 1), lie in shell 4
        [[1, 0, 0], [0, 1, 0], [0, 0, -25]],
        # the zero (1, 0, 1) comes from the second root of the quadratic in t_2
        [[1, 0, 2], [0, 1, 0], [2, 0, -5]],
    ])
    def test_small_zero_comes_from_the_first_shell(self, g):
        def value(t):
            return sum(g[i][j] * t[i] * t[j] for i in range(3) for j in range(3))

        t = _small_zero(g)
        assert value(t) == 0 and any(t)
        first = min(
            max(abs(t0), abs(t1))
            for t0 in range(-6, 7) for t1 in range(-6, 7) for t2 in range(-60, 61)
            if (t0, t1) != (0, 0) and value((t0, t1, t2)) == 0
        )
        assert max(abs(t[0]), abs(t[1])) == first

    def test_lattice_zero_five_digit(self):
        z = _lattice_zero(9973, 9511, -6737, ((9973,), (9511,), (6737,)))
        assert 9973 * z[0] ** 2 + 9511 * z[1] ** 2 - 6737 * z[2] ** 2 == 0 and any(z)

    def test_timing_regression(self):
        conics = [
            ConicFiber(*(Fraction(x) for x in c)) for c in (
                ("-25", "-47/9", "-17/9", "-27/4", "46/9", "-20/3"),
                ("29/6", "52/3", "29/3", "27", "47/4", "-43/4"),
                ("9973", "9511", "-6737", "0", "0", "0"),
            )
        ]
        rng = random.Random(11)
        primes = _five_digit_primes()
        while len(conics) < 23:
            a, b, c = (p * rng.choice((-1, 1)) for p in rng.sample(primes, 3))
            if quaternion_is_split(QuaternionAlgebra(Fraction(-a * c), Fraction(-b * c))):
                conics.append(diag_conic(a, b, c))
        start = time.perf_counter()
        for conic in conics:
            result = conic_has_rational_point(conic)
            assert result.solvable
            assert conic.evaluate(*result.witness) == 0
        assert time.perf_counter() - start < 2.0

    def test_factors_each_reduced_coefficient_once(self, monkeypatch):
        # every integer factored divides a numerator or a denominator of the
        # diagonal, and no two share a prime: no product of them is factored,
        # and no prime is found twice
        calls = []
        real_factor = hilbert_module.factor

        def spy(n):
            calls.append(n)
            return real_factor(n)

        monkeypatch.setattr(hilbert_module, "factor", spy)
        rng = random.Random(8)
        for _ in range(200):
            coeffs = [Fraction(rng.randint(-60, 60), rng.choice((1, 2, 3, 4, 6, 9)))
                      for _ in range(6)]
            conic = ConicFiber(*coeffs)
            if not conic.is_nondegenerate:
                continue
            diagonal, _ = form_from_conic(conic).diagonalize()
            parts = [abs(y) for x in diagonal for y in (x.numerator, x.denominator)]
            calls.clear()
            conic_has_rational_point(conic)
            assert all(n > 1 and any(y % n == 0 for y in parts) for n in calls)
            assert all(math.gcd(n, k) == 1 for n, k in itertools.combinations(calls, 2))

    @pytest.mark.parametrize("a, b, c", [
        (8388617, 8389651, -8390623),
        (8391623, -8392619, -8393629),
    ])
    def test_seven_digit_primes_match_legendre(self, a, b, c):
        # Legendre: squarefree, pairwise coprime, mixed signs; solvable iff
        # -bc, -ca, -ab are squares modulo |a|, |b|, |c| respectively.
        legendre = all(
            is_quad_residue(-u * v, abs(w))
            for u, v, w in ((b, c, a), (c, a, b), (a, b, c))
        )
        result = conic_has_rational_point(diag_conic(a, b, c))
        assert result.solvable == legendre
        if legendre:
            x, y, z = result.witness
            assert a * x * x + b * y * y + c * z * z == 0 and any(result.witness)


# a quarter of the coefficients 0; numerators up to 10^4, spread over their
# number of digits; denominators from a few small and composite values
corpus_coefficient = st.builds(
    lambda zero, n, d: Fraction(0) if zero else Fraction(n, d),
    st.sampled_from((True, False, False, False)),
    st.integers(0, 4).flatmap(lambda k: st.integers(-10 ** k, 10 ** k)),
    st.sampled_from((1, 2, 3, 4, 7, 10, 97, 1000)),
)


def outcome(solve, conic):
    try:
        return solve(conic)
    except (ValueError, AssertionError, RuntimeError) as exc:
        return type(exc), str(exc)


class TestConicAgainstFractionOracle:
    """The integer diagonalisation against the former Fraction path."""

    @given(st.tuples(*[corpus_coefficient] * 6))
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle(self, coeffs):
        conic = ConicFiber(*coeffs)
        assert outcome(conic_has_rational_point, conic) == outcome(
            conic_has_rational_point_oracle, conic)

    @pytest.mark.parametrize("coeffs, expected", [
        # column scales of both signs: the witness keeps each s_k's sign
        ("-5/2 0 0 -1312 -1205 33", ConicPointResult(True, (0, 1, 0))),
        # a zero diagonal, merged before the elimination
        ("0 1 0 0 1 0", ConicPointResult(True, (1, -1, -1))),
        ("-25 -47/9 -17/9 -27/4 46/9 -20/3", ConicPointResult(True, (1259, -1680, 3915))),
        ("29/6 52/3 29/3 27 47/4 -43/4", ConicPointResult(True, (1316418, -366667, 113440))),
        ("9973 9511 -6737 0 0 0", ConicPointResult(True, (1699, 170, 2077))),
        ("1 1 3 0 0 0", ConicPointResult(False, None)),
        ("1 2 1 2 2 2", (ValueError, "conic is degenerate")),
        ("2/5 104 141/4 -2/97 -146 -23/1000",
         (ValueError, "capacity: factoring 52008211850107361 needs trial divisors beyond 2^22")),
    ])
    def test_frozen_cases(self, coeffs, expected):
        conic = ConicFiber(*map(Fraction, coeffs.split()))
        assert outcome(conic_has_rational_point, conic) == expected
        assert outcome(conic_has_rational_point_oracle, conic) == expected

    @given(st.tuples(*[st.integers(-2000, 2000)] * 6))
    @settings(max_examples=100, deadline=None)
    def test_int_and_float_coefficients(self, nums):
        for coeffs in (nums, [n / 4 for n in nums]):  # quarters are exact as floats
            expected = outcome(conic_has_rational_point, ConicFiber(*map(Fraction, coeffs)))
            assert outcome(conic_has_rational_point, ConicFiber(*coeffs)) == expected


class TestModelPointInvariant:
    def test_nonsplit_pair_point(self):
        point = L2Point(Fraction(-1), Fraction(0), Fraction(-1), Fraction(0), Fraction(0))
        quat, split = clifford_invariant_of_model_point(point)
        assert (quat.u, quat.v) == (-2, -2)
        assert not split

    def test_split_pair_point(self):
        point = L2Point(Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0))
        quat, split = clifford_invariant_of_model_point(point)
        assert (quat.u, quat.v) == (-4, 1)
        assert split

    def test_split_triple_point(self):
        point = K3Point(
            Fraction(1), Fraction(0), Fraction(0),
            Fraction(-1), Fraction(0), Fraction(-1),
        )
        quat, split = clifford_invariant_of_model_point(point)
        assert split
        assert quaternion_is_split(quat)

    def test_verdict_factors_the_diagonal_not_u(self):
        # the fibre <8388593, 8388617, -1> is unsolvable; u = -alpha beta is
        # -70368693845881, beyond what factor decides, while each diagonal
        # coefficient factors at once
        start = time.perf_counter()
        quat, split = clifford_invariant_of_model_point(K3Point(-1, 0, 0, 8388617, 0, 8388593))
        assert time.perf_counter() - start < 0.1
        assert (quat.u, quat.v, split) == (-70368693845881, 8388617, False)

    @given(st.one_of(
        st.tuples(*[nonzero_rat | st.just(Fraction(0))] * 5).map(lambda c: L2Point(*c)),
        st.tuples(*[nonzero_rat | st.just(Fraction(0))] * 6).map(lambda c: K3Point(*c)),
    ))
    @settings(max_examples=150, deadline=None)
    def test_quaternion_matches_clifford_extraction(self, point):
        # quaternion_from_ternary builds the even Clifford algebra of the fibre
        # and checks its structure constants: the oracle of the one-diagonal path
        assume(point.h != 0)
        conic = l2_conic(point) if isinstance(point, L2Point) else k3_conic(point)
        quat, _ = clifford_invariant_of_model_point(point)
        assert quat == quaternion_from_ternary(form_from_conic(conic))

    def test_diagonalizes_once(self, monkeypatch):
        calls = []
        real = QuadraticFormB.diagonalize

        def spy(form):
            calls.append(form)
            return real(form)

        monkeypatch.setattr(QuadraticFormB, "diagonalize", spy)
        points = [
            L2Point(Fraction(-1), Fraction(0), Fraction(-1), Fraction(0), Fraction(0)),
            L2Point(Fraction(1, 2), Fraction(2, 3), Fraction(-5), Fraction(1, 7), Fraction(3)),
            K3Point(Fraction(1), Fraction(0), Fraction(0),
                    Fraction(-1), Fraction(0), Fraction(-1)),
            K3Point(-1, 0, 0, 8388617, 0, 8388593),
        ]
        for point in points:
            calls.clear()
            clifford_invariant_of_model_point(point)
            assert len(calls) == 1

    def test_rejects_unstable_point(self):
        point = L2Point(Fraction(1), Fraction(1), Fraction(1), Fraction(0), Fraction(0))
        with pytest.raises(ValueError):
            clifford_invariant_of_model_point(point)

    def test_rejects_non_model_input(self):
        with pytest.raises(TypeError):
            clifford_invariant_of_model_point(diag_conic(1, 1, -1))

    @given(st.tuples(*[st.integers(-5, 5) for _ in range(5)]))
    @settings(max_examples=60, deadline=None)
    def test_verdict_matches_conic_solvability(self, coords):
        point = L2Point(*[Fraction(c) for c in coords])
        assume(point.h != 0)
        quat, split = clifford_invariant_of_model_point(point)
        assert conic_has_rational_point(l2_conic(point)).solvable == split
