import math
from fractions import Fraction

import field_oracle
import pytest
from field_oracle import GFElement, rref
from hypothesis import given, settings, strategies as st
from sympy import factorint

from quivermod.cli import main
from quivermod.linalg import (
    FACTOR_BOUND,
    PRIME_BOUND,
    _diagonalize_ints,
    clear_denominators,
    factor,
    is_prime,
    nullspace,
    primitive_int_vector,
    rank,
)

SEMIPRIME = 1000000016000000063  # 1000000007 * 1000000009, both above FACTOR_BOUND


class TestElimination:
    def test_integer_input_is_exact(self):
        # float division would round 10**17 + 1 to 10**17 and report rank 1
        assert rank([[10**17, 1], [10**17 + 1, 1]]) == 2
        mat, pivots = rref([[2, 1], [4, 3]])
        assert pivots == [0, 1]
        assert all(isinstance(x, Fraction) for row in mat for x in row)

    def test_nullspace_takes_the_unit_from_the_entries(self):
        assert nullspace([[1, 2], [2, 4]]) == [[2, -1]]
        assert nullspace([[Fraction(1, 2), Fraction(1, 3)]]) == [[2, -3]]

    def test_nullspace_of_injective_map_is_empty(self):
        assert nullspace([[1, 0], [0, 1]]) == []
        assert nullspace([]) == []


@st.composite
def rational_matrices(draw):
    """Rational matrices of 0 to 8 rows and columns. Rows are drawn plain, as
    copies or multiples of earlier rows, or zero, with entries up to 10^17 in
    absolute value and optional denominators."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    big = draw(st.booleans())
    entry = st.builds(
        Fraction,
        st.integers(-10**17, 10**17) if big else st.integers(-3, 3),
        st.sampled_from([1, 1, 1, 2, 3, 7, 10**17 + 3]),
    )
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(["plain", "plain", "copy", "multiple", "zero"]))
        if kind == "zero":
            rows.append([Fraction(0)] * ncols)
        elif kind == "plain" or not rows:
            rows.append(draw(st.lists(entry, min_size=ncols, max_size=ncols)))
        else:
            src = draw(st.sampled_from(rows))
            scale = Fraction(1) if kind == "copy" else draw(entry)
            rows.append([scale * x for x in src])
    if draw(st.booleans()):
        rows = [[x.numerator if x.denominator == 1 else x for x in row] for row in rows]
    return rows


class TestBareissAgainstFractionOracle:
    @given(rational_matrices())
    @settings(max_examples=300, deadline=None)
    def test_rank_and_nullspace(self, rows):
        expected = field_oracle.nullspace(rows)
        assert rank(rows) == field_oracle.rank(rows)
        kernel = nullspace(rows)
        # both normalise each basis vector to 0 at the other free columns, so
        # each is the oracle's vector made primitive
        assert kernel == [list(primitive_int_vector(v)) for v in expected]
        for vec in kernel:
            assert all(type(x) is int for x in vec)
            assert math.gcd(*vec) == 1
            assert next(x for x in vec if x) > 0
            assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)

    def test_oracle_nullspace_takes_the_unit_from_the_entries(self):
        one, zero = GFElement(2, 1), GFElement(2, 0)
        kernel = field_oracle.nullspace([[one, one, zero]])
        assert kernel == [[one, one, zero], [zero, zero, one]]
        assert all(isinstance(x, GFElement) for vec in kernel for x in vec)


class TestDiagonalizeInts:
    @given(st.integers(1, 5), st.sampled_from([0, 3, 7]), st.data())
    @settings(max_examples=100, deadline=None)
    def test_columns_diagonalise_the_gram_matrix(self, size, p, data):
        entry = st.sampled_from([0, 0, 1, -1, 2, -3, 10, 97])
        upper = data.draw(st.lists(entry, min_size=size * size, max_size=size * size))
        g = [[upper[min(i, j) * size + max(i, j)] for j in range(size)] for i in range(size)]
        pivots, vs, s = _diagonalize_ints(g, p)
        # V^T G V = diag(pivots), and V is invertible with nonzero scales
        vtgv = [[sum(vs[a][i] * g[a][b] * vs[b][j] for a in range(size) for b in range(size))
                 for j in range(size)] for i in range(size)]
        red = (lambda x: x % p) if p else (lambda x: x)
        assert [[red(x) for x in row] for row in vtgv] == [
            [pivots[i] if i == j else 0 for j in range(size)] for i in range(size)]
        assert all(red(x) for x in s)
        assert rank([[red(x) for x in row] for row in vs]) == size

    @given(st.integers(1, 5), st.integers(1, 10 ** 6), st.data())
    @settings(max_examples=100, deadline=None)
    def test_scaling_scales_only_the_pivots(self, size, k, data):
        # _diagonalize_ints(k G) = (k pivots, V, s): so V, s and pivots / (2 L s^2)
        # do not depend on which common multiple L clears a rational form
        entry = st.sampled_from([0, 0, 1, -1, 2, -3, 10, 97])
        upper = data.draw(st.lists(entry, min_size=size * size, max_size=size * size))
        zero_diagonal = data.draw(st.sets(st.integers(0, size - 1)))  # forces the merge step
        g = [[0 if i == j and i in zero_diagonal else upper[min(i, j) * size + max(i, j)]
              for j in range(size)] for i in range(size)]
        pivots, vs, s = _diagonalize_ints(g)
        assert _diagonalize_ints([[k * x for x in row] for row in g]) == (
            [k * h for h in pivots], vs, s)


class TestFactor:
    @given(st.integers(1, 10**12), st.sampled_from((1, -1)))
    @settings(max_examples=60, deadline=None)
    def test_matches_sympy(self, n, sign):
        assert factor(sign * n) == factorint(n)

    def test_small_values(self):
        assert factor(1) == {}
        assert factor(-2) == {2: 1}
        assert factor(-360) == {2: 3, 3: 2, 5: 1}
        assert factor(2**31 - 1) == {2**31 - 1: 1}

    def test_largest_prime_above_the_bound_is_found(self):
        p = 1000000007
        assert p > FACTOR_BOUND
        assert factor(6 * p) == {2: 1, 3: 1, p: 1}

    @pytest.mark.parametrize("n", [0, SEMIPRIME, -SEMIPRIME])
    def test_rejects_zero_and_beyond_the_bound(self, n):
        with pytest.raises(ValueError):
            factor(n)


def prime_by_factor(n):
    return n >= 2 and factor(n) == {n: 1}


class TestIsPrime:
    def test_matches_factor_below_1e5(self):
        assert [n for n in range(10**5) if is_prime(n) != prime_by_factor(n)] == []

    @pytest.mark.parametrize("n", [2047, 1373653, 25326001])
    def test_strong_pseudoprimes(self, n):
        # the least strong pseudoprimes to the bases 2; 2, 3; and 2, 3, 5
        assert not is_prime(n) and not prime_by_factor(n)

    @given(st.integers(0, 2**31))
    @settings(max_examples=200, deadline=None)
    def test_matches_factor(self, n):
        assert is_prime(n) == prime_by_factor(n)

    def test_bound(self):
        # PRIME_BOUND is the least strong pseudoprime to the bases 2, 3, 5, 7
        assert factor(PRIME_BOUND) != {PRIME_BOUND: 1}
        assert is_prime(PRIME_BOUND - 2) and prime_by_factor(PRIME_BOUND - 2)
        with pytest.raises(ValueError, match="capacity"):
            is_prime(PRIME_BOUND)

    @pytest.mark.parametrize("char", ["2047", "25326001", "1", "4", "2147483646"])
    def test_composite_characteristic_on_the_command_line(self, capsys, char):
        assert main(["clifford", "--b", "1", "--char", char]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: characteristic must be 0 or a prime below 2^31, got {char}\n"


rationals = st.fractions(max_denominator=50).filter(lambda x: abs(x) < 10**6)


class TestClearDenominators:
    @given(st.lists(rationals, min_size=1, max_size=6))
    def test_fractions_scale_to_proportional_integers(self, vec):
        ints = clear_denominators(vec)
        assert all(type(x) is int for x in ints)
        scale = next((Fraction(i, x) for i, x in zip(ints, vec) if x != 0), None)
        if scale is not None:
            assert scale > 0
            assert all(i == scale * x for i, x in zip(ints, vec))
        else:
            assert ints == [0] * len(vec)

    @given(st.lists(st.integers(-1000, 1000), min_size=1, max_size=6))
    def test_integers_stay_as_they_are(self, vec):
        assert clear_denominators(vec) == vec

    def test_mixed_entries(self):
        assert clear_denominators([Fraction(1, 2), 3, Fraction(-5, 6)]) == [3, 18, -5]

    @given(st.lists(st.integers(-10 ** 30, 10 ** 30), min_size=1, max_size=6))
    def test_integers_come_back_as_a_new_list(self, vec):
        out = clear_denominators(vec)
        assert out == vec and out is not vec
        assert all(type(x) is int for x in out)
        rows = [list(vec), [x + 1 for x in vec]]
        copy = [list(row) for row in rows]
        rank(rows)  # the elimination works on its own rows
        assert rows == copy

    @given(st.lists(st.one_of(st.integers(-1000, 1000), rationals, st.booleans()),
                    min_size=1, max_size=6))
    def test_other_input_is_scaled_by_the_lcm(self, vec):
        scale = math.lcm(*(Fraction(x).denominator for x in vec))
        out = clear_denominators(vec)
        assert out == [int(x * scale) for x in vec]
        assert all(type(x) is int for x in out)


class TestFactorBoundOnTheCommandLine:
    def test_semiprime_beyond_the_bound_exits_two(self, capsys):
        assert main(["hilbert", "--", str(SEMIPRIME), "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error:")

    def test_large_prime_below_the_bound(self, capsys):
        assert main(["hilbert", "--", "1000000000039", "1"]) == 0
        assert capsys.readouterr().out == (
            "place\treal\t1\nplace\t2\t1\nplace\t1000000000039\t1\nsplit\ttrue\n"
        )
