import math

import pytest
import quivermod.kronecker as kronecker_module
from hypothesis import assume, given, settings, strategies as st
from kronecker_oracle import normalize_kronecker as normalize_kronecker_with_seen

from quivermod.kronecker import (
    expected_kronecker_exceptions,
    expected_loop_exceptions,
    grid_box,
    kronecker_criterion_exceptions,
    kronecker_dualize,
    kronecker_inequality_trace,
    kronecker_reflect_sink,
    kronecker_reflect_source,
    loop_criterion_exceptions,
    normalize_kronecker,
)
from quivermod.quiver import euler_form, kronecker_quiver, slope
from quivermod.stability import check_ample_stability_criterion


def euler_self(m, d):
    return euler_form(kronecker_quiver(m), d, d)


def in_window(m, d):
    return 0 < d[0] <= d[1] and 2 * d[1] <= m * d[0]


class TestInstance:
    """The checks `kronecker_inequality_trace` makes on (m, d) itself."""

    def test_reduction(self):
        t = kronecker_inequality_trace(3, (4, 6), (1, 0))
        assert t.n == 2
        assert (t.p, t.q) == (2, 3)

    def test_normalized_window(self):
        assert kronecker_inequality_trace(3, (2, 2), (1, 0)).d == (2, 2)
        assert kronecker_inequality_trace(3, (2, 3), (1, 0)).d == (2, 3)
        for m, d in [(3, (3, 2)), (3, (1, 2)), (4, (0, 1))]:  # 2*2 > 3*1 in (1, 2)
            with pytest.raises(ValueError, match="not normalized"):
                kronecker_inequality_trace(m, d, (1, 0))

    def test_validation(self):
        # the former KroneckerInstance refused m < 1, negative entries and the
        # zero vector, and the trace then required its window; the window check
        # alone must refuse exactly the same (m, d), e.g. (0, (1, 1)),
        # (3, (0, 0)) and (3, (1, -1))
        for m in range(-1, 8):
            for d in ((d1, d2) for d1 in range(-2, 8) for d2 in range(-2, 8)):
                rejected = m < 1 or min(d) < 0 or d == (0, 0) or not in_window(m, d)
                if rejected:
                    with pytest.raises(ValueError, match="not normalized"):
                        kronecker_inequality_trace(m, d, (1, 0))
                else:
                    assert kronecker_inequality_trace(m, d, (1, 0)).d == d


class TestReflections:
    def test_frozen(self):
        assert kronecker_reflect_source(3, (1, 2)) == (5, 2)
        assert kronecker_reflect_sink(3, (2, 4)) == (2, 2)
        assert kronecker_dualize((3, 5)) == (5, 3)

    def test_cone_errors(self):
        with pytest.raises(ValueError):
            kronecker_reflect_sink(3, (1, 4))
        with pytest.raises(ValueError):
            kronecker_reflect_source(3, (7, 2))

    @given(st.integers(1, 6), st.integers(0, 9), st.integers(0, 9))
    def test_preserve_euler_value_and_gcd(self, m, d1, d2):
        assume((d1, d2) != (0, 0))
        d = (d1, d2)
        assert euler_self(m, kronecker_dualize(d)) == euler_self(m, d)
        assert math.gcd(*kronecker_dualize(d)) == math.gcd(d1, d2)
        if m * d1 - d2 >= 0:
            r = kronecker_reflect_sink(m, d)
            assert euler_self(m, r) == euler_self(m, d)
            assert math.gcd(*r) == math.gcd(d1, d2)
        if m * d2 - d1 >= 0:
            r = kronecker_reflect_source(m, d)
            assert euler_self(m, r) == euler_self(m, d)
            assert math.gcd(*r) == math.gcd(d1, d2)

    @given(st.integers(1, 6), st.integers(0, 9), st.integers(0, 9))
    def test_reflections_are_involutions(self, m, d1, d2):
        d = (d1, d2)
        if m * d1 - d2 >= 0:
            assert kronecker_reflect_sink(m, kronecker_reflect_sink(m, d)) == d
        if m * d2 - d1 >= 0:
            assert kronecker_reflect_source(m, kronecker_reflect_source(m, d)) == d


class TestNormalization:
    def test_frozen_cases(self):
        r = normalize_kronecker(3, (3, 2))
        assert (r.normalized, r.moves) == ((2, 3), ("dualize",))
        r = normalize_kronecker(3, (2, 4))
        assert (r.normalized, r.moves) == ((2, 2), ("sink",))
        r = normalize_kronecker(3, (2, 2))
        assert (r.normalized, r.moves) == ((2, 2), ())
        assert normalize_kronecker(3, (1, 5)).degenerate

    def test_requires_m_at_least_3(self):
        with pytest.raises(ValueError):
            normalize_kronecker(2, (1, 1))

    def test_cells_sharing_a_representative(self):
        """Several grid cells normalize to (2,2) at m = 3, which is why the scan
        deduplicates exceptions by normalized vector."""
        hits = sorted(
            cell
            for cell in grid_box(10, 10)
            if normalize_kronecker(3, cell).normalized == (2, 2)
        )
        assert hits == [(2, 2), (2, 4), (4, 2), (4, 10), (10, 4)]

    @given(st.integers(3, 6), st.integers(1, 12), st.integers(1, 12))
    def test_normalized_output_is_in_window(self, m, d1, d2):
        r = normalize_kronecker(m, (d1, d2))
        if not r.degenerate:
            assert in_window(m, r.normalized)
            assert euler_self(m, r.normalized) == euler_self(m, (d1, d2))
            assert math.gcd(*r.normalized) == math.gcd(d1, d2)

    @given(st.integers(3, 40), st.integers(0, 10**4), st.integers(0, 10**4))
    @settings(max_examples=500)
    def test_agrees_with_the_visited_state_oracle(self, m, d1, d2):
        assert normalize_kronecker(m, (d1, d2)) == normalize_kronecker_with_seen(m, (d1, d2))

    def test_criterion_verdict_is_constant_on_each_orbit(self):
        # the scans run the criterion only on the normalized vector of a cell
        checked = 0
        for m in range(3, 9):
            q = kronecker_quiver(m)
            for d in grid_box(24, 24):
                rep = normalize_kronecker(m, d).normalized
                if rep is None:
                    continue
                checked += 1
                assert (check_ample_stability_criterion(q, (1, 0), d).verdict
                        == check_ample_stability_criterion(q, (1, 0), rep).verdict), (m, d, rep)
        assert checked == 2810

    def test_empty_moduli_normalize_to_degenerate(self):
        # the scan has no emptiness skip: a cell whose coprime part (p, q) has
        # m p q - p^2 - q^2 < 0 has a positive Tits form, which the window excludes
        skipped = 0
        for m in range(3, 13):
            for cell in grid_box(60, 60):
                n = math.gcd(*cell)
                p, q = cell[0] // n, cell[1] // n
                if m * p * q - p * p - q * q < 0:
                    skipped += 1
                    assert normalize_kronecker(m, cell).degenerate, (m, cell)
        assert skipped > 0


class TestScans:
    def test_loop_scan_frozen(self):
        result = loop_criterion_exceptions(range(2, 9), range(2, 13))
        assert result.exceptions == ((2, 2),)
        assert result.scanned == 7 * 11

    @pytest.mark.parametrize("m_max, d_max", [(2, 2), (3, 5)])
    def test_loop_scan_reports_expected(self, m_max, d_max):
        result = loop_criterion_exceptions(range(2, m_max + 1), range(2, d_max + 1))
        assert result.exceptions == expected_loop_exceptions(m_max, d_max)

    @pytest.mark.parametrize("m_max, d_max", [(3, 1), (3, 2), (4, 5)])
    def test_kronecker_scan_reports_expected(self, m_max, d_max):
        result = kronecker_criterion_exceptions(range(3, m_max + 1), grid_box(d_max, d_max))
        assert result.exceptions == expected_kronecker_exceptions(m_max, d_max)

    def test_loop_scan_validation(self):
        with pytest.raises(ValueError):
            loop_criterion_exceptions(range(1, 3), range(2, 4))
        with pytest.raises(ValueError):
            loop_criterion_exceptions(range(2, 3), range(1, 4))

    def test_kronecker_scan_frozen(self):
        result = kronecker_criterion_exceptions(range(3, 9), grid_box(10, 10))
        assert result.exceptions == ((3, (2, 2)),)
        assert result.scanned == 6 * 100

    def test_kronecker_scan_validation(self):
        with pytest.raises(ValueError):
            kronecker_criterion_exceptions(range(2, 4), grid_box(2, 2))
        with pytest.raises(ValueError):
            kronecker_criterion_exceptions(range(3, 4), [(0, 1)])

    def test_worker_count_independence(self):
        a = kronecker_criterion_exceptions(range(3, 6), grid_box(6, 6), workers=1)
        b = kronecker_criterion_exceptions(range(3, 6), grid_box(6, 6), workers=2)
        assert a.exceptions == b.exceptions
        assert a.scanned == b.scanned
        la = loop_criterion_exceptions(range(2, 6), range(2, 8), workers=1)
        lb = loop_criterion_exceptions(range(2, 6), range(2, 8), workers=3)
        assert la.exceptions == lb.exceptions

    def test_box_duplicates_are_merged(self):
        once = kronecker_criterion_exceptions(range(3, 4), grid_box(4, 4))
        doubled = kronecker_criterion_exceptions(
            range(3, 4), grid_box(4, 4) + grid_box(4, 4)
        )
        assert once.exceptions == doubled.exceptions
        assert once.scanned == doubled.scanned

    def test_empty_ranges_rejected(self):
        with pytest.raises(ValueError, match="nonempty"):
            kronecker_criterion_exceptions(range(3, 3), grid_box(4, 4))
        with pytest.raises(ValueError, match="nonempty"):
            kronecker_criterion_exceptions(range(3, 6), grid_box(0, 0))
        with pytest.raises(ValueError, match="nonempty"):
            loop_criterion_exceptions(range(2, 2), range(2, 6))
        with pytest.raises(ValueError, match="nonempty"):
            loop_criterion_exceptions(range(2, 6), range(2, 2))

    def test_criterion_runs_once_per_distinct_vector(self, monkeypatch):
        calls = []
        criterion = kronecker_module.check_ample_stability_criterion

        def spy(q, theta, d):
            calls.append((q, tuple(theta), tuple(d)))
            return criterion(q, theta, d)

        monkeypatch.setattr(kronecker_module, "check_ample_stability_criterion", spy)
        ms, box = range(3, 9), grid_box(10, 10)
        result = kronecker_criterion_exceptions(ms, box, workers=1)
        expected = []
        for m in ms:
            vectors = set()
            for cell in box:
                n = math.gcd(*cell)
                p, q = cell[0] // n, cell[1] // n
                norm = normalize_kronecker(m, cell)
                if m * p * q - p * p - q * q >= 0 and not norm.degenerate:
                    vectors.add(norm.normalized)
            expected += [(kronecker_quiver(m), (1, 0), d) for d in vectors]
        assert sorted(calls, key=repr) == sorted(expected, key=repr)
        assert result.scanned == 6 * 100
        assert result.exceptions == ((3, (2, 2)),)

        calls.clear()
        result = loop_criterion_exceptions(range(2, 9), range(2, 13), workers=1)
        assert len(calls) == len(set(calls)) == 7 * 11
        assert result.scanned == 7 * 11


class TestInequalityTrace:
    def test_frozen_3_2_2(self):
        t = kronecker_inequality_trace(3, (2, 2), (1, 1))
        assert (t.n, t.p, t.q) == (2, 1, 1)
        assert (t.a, t.b, t.c, t.dd) == (1, 1, 1, 1)
        assert t.k == 0
        assert (t.bound_lhs, t.bound_rhs, t.bound_holds) == (1, 1, True)
        assert t.euler_pairing == -1
        assert t.slope_holds
        assert (t.equality_lhs, t.equality_rhs) == (4, 4)

    def test_frozen_4_1_2(self):
        t = kronecker_inequality_trace(4, (1, 2), (1, 1))
        assert t.k == 1
        assert (t.bound_lhs, t.bound_rhs, t.bound_holds) == (2, 6, False)
        assert t.euler_pairing == -3
        assert t.equality_lhs is None and t.equality_rhs is None

    def test_rejects_unnormalized_and_degenerate_splits(self):
        with pytest.raises(ValueError):
            kronecker_inequality_trace(3, (3, 2), (1, 1))
        with pytest.raises(ValueError):
            kronecker_inequality_trace(3, (2, 2), (0, 1))
        with pytest.raises(ValueError):
            kronecker_inequality_trace(3, (2, 2), (2, 2))
        # a = 2, dd = 1 is a legal split even though c = 0
        t = kronecker_inequality_trace(3, (2, 2), (2, 1))
        assert (t.c, t.dd) == (0, 1)

    @given(
        st.integers(3, 6),
        st.integers(1, 6),
        st.integers(1, 6),
        st.data(),
    )
    @settings(max_examples=120)
    def test_trace_equivalences(self, m, d1, d2, data):
        r = normalize_kronecker(m, (d1, d2))
        assume(not r.degenerate)
        d = r.normalized
        a = data.draw(st.integers(1, d[0]), label="a")
        b = data.draw(st.integers(0, d[1] - 1), label="b")
        assume((a, b) != d)
        t = kronecker_inequality_trace(m, d, (a, b))
        e, f = (a, b), (t.c, t.dd)
        assert t.slope_holds == (slope((1, 0), e) >= slope((1, 0), f))
        assert t.slope_holds == (t.k >= 0)
        assert t.euler_pairing == euler_form(kronecker_quiver(m), e, f)
        assert t.bound_holds == (t.euler_pairing >= -1)
        if m == 3:
            assert (t.equality_lhs == t.equality_rhs) == (t.euler_pairing == -1)
