from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from sympy import factorint

from quivermod.cli import main
from quivermod.linalg import (
    FACTOR_BOUND,
    GFElement,
    clear_denominators,
    factor,
    nullspace,
    rank,
    rref,
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
        assert nullspace([[1, 2], [2, 4]]) == [[Fraction(-2), Fraction(1)]]
        one, zero = GFElement(2, 1), GFElement(2, 0)
        kernel = nullspace([[one, one, zero]])
        assert kernel == [[one, one, zero], [zero, zero, one]]
        assert all(isinstance(x, GFElement) for vec in kernel for x in vec)

    def test_nullspace_of_injective_map_is_empty(self):
        assert nullspace([[1, 0], [0, 1]]) == []
        assert nullspace([]) == []


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
