"""The split walks against the enumerate-and-filter oracles.

`stability._slope_splits` solves each slope condition for the last entry of e
and visits only the kept interval. These tests compare it, and the criterion,
wall and HN recursion built on it, with the walks that visit every
decomposition (tests/criterion_oracle.py, tests/hn_oracle.py).
"""
import criterion_oracle as oracle
import pytest
from hn_oracle import hn_types as reference_hn_types
from hypothesis import given, settings, strategies as st

from quivermod.quiver import Quiver, euler_form, kronecker_quiver, loop_quiver
from quivermod.stability import (
    HNType,
    _slope_splits,
    _slope_weights,
    check_ample_stability_criterion,
    enumerate_decompositions,
    hn_codimension,
    hn_types,
    strictly_semistable_wall_codim,
)

K3 = kronecker_quiver(3)


def _matrices(k, mult=3):
    return st.lists(st.lists(st.integers(0, mult), min_size=k, max_size=k),
                    min_size=k, max_size=k)


@st.composite
def small_quiver_inputs(draw):
    """A quiver on 1-2 vertices with 0-3 loops at each vertex and 0-3 arrows
    either way, a nonzero d with entries <= 8 and theta in [-4, 4]; the bounds
    on the last entry then come from numerators of both signs."""
    k = draw(st.integers(1, 2))
    rows = draw(_matrices(k))
    d = draw(st.tuples(*[st.integers(0, 8)] * k).filter(any))
    theta = draw(st.tuples(*[st.integers(-4, 4)] * k))
    return Quiver.from_matrix(rows), theta, d


def _agrees_with_oracles(q, theta, d, max_parts=None):
    assert check_ample_stability_criterion(q, theta, d) == \
        oracle.check_ample_stability_criterion(q, theta, d)
    assert strictly_semistable_wall_codim(q, theta, d) == \
        oracle.strictly_semistable_wall_codim(q, theta, d)
    if sum(d) <= 8:
        assert hn_types(q, theta, d, max_parts) == reference_hn_types(q, theta, d, max_parts)


class TestSlopeSplits:
    @given(
        st.integers(1, 3).flatmap(lambda k: st.tuples(
            st.tuples(*[st.integers(0, 5)] * k),
            st.lists(st.tuples(st.tuples(*[st.integers(-5, 5)] * k), st.integers(-6, 6)),
                     max_size=3),
        )),
    )
    @settings(max_examples=300)
    def test_keeps_exactly_the_rows_solutions_in_product_order(self, inp):
        d, rows = inp
        expected = [
            (e, f) for e, f in enumerate_decompositions(d)
            if all(sum(ci * ei for ci, ei in zip(c, e)) >= t for c, t in rows)
        ]
        assert list(_slope_splits(d, rows)) == expected


class TestAgainstOracles:
    @given(small_quiver_inputs())
    @settings(max_examples=300, deadline=None)
    def test_criterion_report_matches(self, inp):
        q, theta, d = inp
        assert check_ample_stability_criterion(q, theta, d) == \
            oracle.check_ample_stability_criterion(q, theta, d)

    @given(small_quiver_inputs())
    @settings(max_examples=300, deadline=None)
    def test_wall_codim_matches(self, inp):
        q, theta, d = inp
        assert strictly_semistable_wall_codim(q, theta, d) == \
            oracle.strictly_semistable_wall_codim(q, theta, d)

    @pytest.mark.parametrize("rows", [[[0, 3], [0, 0]], [[2, 1], [1, 3]], [[0, 0], [0, 0]]])
    def test_theta_zero(self, rows):
        # w = 0: every row has c_last == 0 and keeps every split
        q = Quiver.from_matrix(rows)
        for d in [(1, 0), (0, 3), (2, 2), (3, 5), (8, 1)]:
            _agrees_with_oracles(q, (0, 0), d)

    @pytest.mark.parametrize("m", [0, 1, 2, 3])
    def test_one_vertex(self, m):
        q = loop_quiver(m)
        for d in range(1, 9):
            for theta in (-2, 0, 3):
                _agrees_with_oracles(q, (theta,), (d,))
                _agrees_with_oracles(q, (theta,), (d,), max_parts=2)

    @pytest.mark.parametrize("q, theta, d", [
        (K3, (1, 0), (0, 5)),
        (kronecker_quiver(2), (3, -1), (0, 4)),
        (Quiver.from_matrix([[1, 2, 0], [0, 0, 1], [1, 0, 2]]), (2, 0, 1), (1, 1, 1)),
        (Quiver.from_matrix([[0, 1, 1], [0, 0, 2], [0, 0, 0]]), (2, 0, 1), (2, 2, 2)),
        (Quiver.from_matrix([[0, 1, 1], [0, 0, 2], [0, 0, 0]]), (3, -1, 1), (1, 1, 1)),
    ])
    def test_last_weight_zero_with_theta_nonzero(self, q, theta, d):
        w = _slope_weights(theta, d)
        assert w[-1] == 0 and any(w)
        _agrees_with_oracles(q, theta, d)
        _agrees_with_oracles(q, theta, d, max_parts=2)


class TestHNCodimension:
    @given(
        st.integers(1, 3).flatmap(lambda k: st.tuples(
            _matrices(k),
            st.lists(st.tuples(*[st.integers(0, 4)] * k), max_size=6),
        )),
    )
    @settings(max_examples=200)
    def test_matches_the_pairwise_sum(self, inp):
        # any tuple of parts, HN type or not
        rows, parts = inp
        q = Quiver.from_matrix(rows)
        expected = -sum(
            euler_form(q, parts[k], parts[l])
            for k in range(len(parts))
            for l in range(k + 1, len(parts))
        )
        assert hn_codimension(q, HNType(tuple(parts))) == expected

    def test_rejects_wrong_length_parts(self):
        for parts in [((1, 0), (1,)), ((1, 0, 0),), ((2, 1), (0, 1), (1, 1, 1)), ((1, -1),)]:
            with pytest.raises(ValueError):
                hn_codimension(K3, HNType(parts))
