import pytest
from hn_oracle import hn_types as reference_hn_types
from hypothesis import given, settings, strategies as st

from quivermod.quiver import Quiver, euler_form, kronecker_quiver, loop_quiver, slope
from quivermod.stability import (
    AmpleStabilityReport,
    check_ample_stability_criterion,
    enumerate_decompositions,
    fine_moduli_predicate,
    hn_codimension,
    hn_types,
    predict_brauer,
    strictly_semistable_wall_codim,
)

K3 = kronecker_quiver(3)


@st.composite
def quiver_inputs(draw):
    """A quiver on 1-3 vertices (loops and arrows either way, up to 3 each),
    a nonzero dimension vector with entries <= 3 and a theta in [-3, 3]."""
    k = draw(st.integers(1, 3))
    rows = draw(st.lists(st.lists(st.integers(0, 3), min_size=k, max_size=k),
                         min_size=k, max_size=k))
    d = draw(st.tuples(*[st.integers(0, 3)] * k).filter(any))
    theta = draw(st.tuples(*[st.integers(-3, 3)] * k))
    return Quiver.from_matrix(rows), theta, d


class TestDecompositions:
    def test_small_case(self):
        assert list(enumerate_decompositions((1, 1))) == [
            ((0, 1), (1, 0)),
            ((1, 0), (0, 1)),
        ]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            list(enumerate_decompositions((1, -1)))

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=3))
    def test_count_and_complement(self, d):
        pairs = list(enumerate_decompositions(d))
        expected = 1
        for x in d:
            expected *= x + 1
        assert len(pairs) == max(expected - 2, 0)
        for e, f in pairs:
            assert tuple(a + b for a, b in zip(e, f)) == tuple(d)
            assert any(e) and any(f)


class TestAmpleStabilityCriterion:
    def test_kronecker_frozen_cases(self):
        r33 = check_ample_stability_criterion(K3, (1, 0), (3, 3))
        assert r33 == AmpleStabilityReport(True, None, -2)
        r22 = check_ample_stability_criterion(K3, (1, 0), (2, 2))
        assert r22 == AmpleStabilityReport(False, ((1, 1), (1, 1)), -1)
        r23 = check_ample_stability_criterion(K3, (1, 0), (2, 3))
        assert r23 == AmpleStabilityReport(True, None, -3)
        r12 = check_ample_stability_criterion(kronecker_quiver(4), (1, 0), (1, 2))
        assert r12 == AmpleStabilityReport(True, None, -3)

    def test_loop_frozen_cases(self):
        assert not check_ample_stability_criterion(loop_quiver(2), (0,), (2,)).verdict
        assert check_ample_stability_criterion(loop_quiver(3), (0,), (2,)).verdict
        assert check_ample_stability_criterion(loop_quiver(2), (0,), (3,)).verdict

    def test_qualifying_pairings_for_3_3(self):
        """Eight decompositions of (3,3) satisfy the slope condition; their
        pairings pin both the verdict and the max."""
        pairings = sorted(
            euler_form(K3, e, f)
            for e, f in enumerate_decompositions((3, 3))
            if slope((1, 0), e) >= slope((1, 0), f)
        )
        assert pairings == [-27, -16, -16, -8, -7, -7, -2, -2]

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            check_ample_stability_criterion(K3, (1, 0), (0, 0))

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ValueError):
            check_ample_stability_criterion(K3, (1, 0, 0), (1, 0, 0))
        with pytest.raises(ValueError):
            check_ample_stability_criterion(K3, (1, 0, 0), (1, 0))
        with pytest.raises(ValueError):
            check_ample_stability_criterion(loop_quiver(2), (0, 0), (1,))
        with pytest.raises(ValueError):
            check_ample_stability_criterion(K3, (1, 0), (1, -1))

    @given(quiver_inputs())
    @settings(max_examples=200)
    def test_agrees_with_direct_recomputation(self, inp):
        q, theta, d = inp
        report = check_ample_stability_criterion(q, theta, d)
        qualifying = [
            (e, f)
            for e, f in enumerate_decompositions(d)
            if slope(theta, e) >= slope(theta, f)
        ]
        if not qualifying:
            assert report == AmpleStabilityReport(True, None, None)
            return
        best = max(euler_form(q, e, f) for e, f in qualifying)
        assert report.max_pairing == best
        assert report.verdict == (best <= -2)
        if not report.verdict:
            e, f = report.witness
            assert slope(theta, e) >= slope(theta, f)
            assert euler_form(q, e, f) >= -1
            first = next(
                (e2, f2) for e2, f2 in qualifying if euler_form(q, e2, f2) >= -1
            )
            assert report.witness == first


class TestHNTypes:
    def test_k3_2_2_frozen(self):
        types = hn_types(K3, (1, 0), (2, 2))
        got = {t.parts: hn_codimension(K3, t) for t in types}
        assert got == {
            ((1, 0), (1, 1), (0, 1)): 7,
            ((1, 0), (1, 2)): 5,
            ((2, 0), (0, 2)): 12,
            ((2, 1), (0, 1)): 5,
            ((2, 2),): 0,
        }

    def test_trivial_type_always_included(self):
        types = hn_types(K3, (1, 0), (3, 1))
        assert any(t.parts == ((3, 1),) for t in types)

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ValueError):
            hn_types(K3, (1, 0, 0), (1, 0, 0))
        with pytest.raises(ValueError):
            hn_types(K3, (1, 0), (1, -1))

    def test_max_parts_truncates(self):
        types = hn_types(K3, (1, 0), (2, 2), max_parts=1)
        assert [t.parts for t in types] == [((2, 2),)]
        with pytest.raises(ValueError):
            hn_types(K3, (1, 0), (2, 2), max_parts=0)

    def test_sst_filter_restricts(self):
        allowed = {(2, 2), (1, 1), (2, 0), (0, 2), (1, 0), (0, 1), (2, 1), (1, 2)}
        full = hn_types(K3, (1, 0), (2, 2))
        filtered = hn_types(K3, (1, 0), (2, 2), sst_filter=lambda e: e in allowed)
        assert set(filtered) <= set(full)

    @given(
        st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(any),
        st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    )
    @settings(max_examples=40)
    def test_parts_sum_and_slopes_decrease(self, d, theta):
        for t in hn_types(K3, theta, d):
            total = tuple(map(sum, zip(*t.parts)))
            assert total == d
            slopes = [slope(theta, part) for part in t.parts]
            assert all(a > b for a, b in zip(slopes, slopes[1:]))

    def test_codimension_formula(self):
        t = next(
            t for t in hn_types(K3, (1, 0), (2, 2)) if t.parts == ((1, 0), (1, 2))
        )
        assert hn_codimension(K3, t) == -euler_form(K3, (1, 0), (1, 2))

    @given(
        st.integers(1, 3).flatmap(lambda k: st.tuples(
            st.lists(st.lists(st.integers(0, 2), min_size=k, max_size=k),
                     min_size=k, max_size=k),
            st.tuples(*[st.integers(-3, 3)] * k),
            st.tuples(*[st.integers(0, 4)] * k).filter(any),
        )),
        st.sampled_from([None, 1, 2, 3]),
        st.none() | st.integers(0, 2 ** 16),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_product_walk_reference(self, inp, max_parts, salt):
        rows, theta, d = inp
        q = Quiver.from_matrix(rows)
        # a deterministic filter that rejects about a third of the vectors
        sst_filter = None if salt is None else (lambda e: hash((e, salt)) % 3 != 0)
        got = hn_types(q, theta, d, max_parts, sst_filter)
        assert got == reference_hn_types(q, theta, d, max_parts, sst_filter)

    @given(quiver_inputs(), st.data())
    @settings(max_examples=200, deadline=None)
    def test_pure_filter_matches_reference_at_every_max_parts(self, inp, data):
        q, theta, d = inp
        max_parts = data.draw(st.integers(1, sum(d)))

        def even_total_or_simple(e):
            # a pure filter: every call on e gives the same answer
            return sum(e) % 2 == 0 or sum(e) == 1

        got = hn_types(q, theta, d, max_parts, even_total_or_simple)
        assert got == reference_hn_types(q, theta, d, max_parts, even_total_or_simple)

    @pytest.mark.parametrize("q, theta, d", [
        (K3, (1, 0), (5, 5)),
        (Quiver.from_matrix([[0, 1, 0], [0, 0, 1], [0, 0, 0]]), (-2, -1, 1), (2, 2, 3)),
    ])
    def test_states_reached_after_different_numbers_of_parts(self, q, theta, d):
        # one (remaining, slope) state is reached after prefixes of different lengths,
        # so a memo keyed without the parts left goes wrong
        for max_parts in (3, 4, 5):
            assert hn_types(q, theta, d, max_parts) == reference_hn_types(q, theta, d, max_parts)


class TestWall:
    def test_frozen(self):
        assert strictly_semistable_wall_codim(K3, (1, 0), (2, 2)) == 1
        assert strictly_semistable_wall_codim(K3, (1, 0), (2, 3)) is None
        assert strictly_semistable_wall_codim(K3, (1, 0), (3, 3)) == 2

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ValueError):
            strictly_semistable_wall_codim(K3, (1, 0, 0), (1, 0, 0))

    @given(quiver_inputs())
    @settings(max_examples=150)
    def test_matches_direct_minimum(self, inp):
        q, theta, d = inp
        codims = [
            -euler_form(q, e, f)
            for e, f in enumerate_decompositions(d)
            if slope(theta, e) == slope(theta, f)
        ]
        expected = min(codims) if codims else None
        assert strictly_semistable_wall_codim(q, theta, d) == expected


class TestBrauerPrediction:
    def test_special_cases(self):
        p1 = predict_brauer(loop_quiver(2), (0,), (2,))
        assert (p1.order, p1.status) == (2, "special-case")
        p2 = predict_brauer(K3, (1, 0), (2, 2))
        assert (p2.order, p2.status) == (2, "special-case")

    def test_theorem_cases(self):
        assert predict_brauer(K3, (1, 0), (3, 3)).status == "theorem"
        assert predict_brauer(K3, (1, 0), (3, 3)).order == 3
        assert predict_brauer(K3, (1, 0), (2, 3)).order == 1
        assert predict_brauer(K3, (1, 0), (2, 3)).status == "theorem"
        assert predict_brauer(loop_quiver(2), (0,), (3,)).status == "theorem"

    def test_wrong_lengths_rejected(self):
        with pytest.raises(ValueError):
            predict_brauer(K3, (1, 0, 0), (1, 0, 0))

    def test_conjectural_case(self):
        p = predict_brauer(kronecker_quiver(2), (1, 0), (2, 2))
        assert (p.order, p.status) == (2, "conjectural")

    def test_generator_note(self):
        note = predict_brauer(K3, (1, 0), (2, 2)).generator_note
        assert "P_n" in note
        assert "stable locus is nonempty" in note
        trivial = predict_brauer(K3, (1, 0), (2, 3)).generator_note
        assert "trivial" in trivial

    def test_order_is_gcd(self):
        from quivermod.quiver import gcd_of

        for d in [(2, 4), (3, 6), (5, 5), (1, 7)]:
            assert predict_brauer(K3, (1, 0), d).order == gcd_of(d)


class TestFineModuli:
    def test_frozen(self):
        ok, note = fine_moduli_predicate((2, 3))
        assert ok and "fine" in note
        no, note2 = fine_moduli_predicate((2, 2))
        assert not no and "gcd(d) = 2" in note2

    @given(st.lists(st.integers(0, 9), min_size=1, max_size=4).filter(any))
    def test_matches_gcd(self, d):
        from quivermod.quiver import gcd_of

        assert fine_moduli_predicate(d)[0] == (gcd_of(d) == 1)
