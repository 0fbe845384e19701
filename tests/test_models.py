import math
from fractions import Fraction

import pytest
from field_oracle import common_root_by_euclid
from hypothesis import assume, given, settings, strategies as st
from models_oracle import fit_conic, fit_conic_through_semiinvariants

from quivermod.models import (
    ConicFiber,
    burnside_dimension,
    binary_forms_common_root,
    k3_conic,
    k3_destabilizer,
    k3_invariants,
    k3_is_stable,
    k3_semiinvariants,
    l2_conic,
    l2_invariants,
    l2_is_stable,
    l2_semiinvariants,
    mat2,
    vec2,
)

ints = st.integers(-6, 6)
mat_st = st.tuples(st.tuples(ints, ints), st.tuples(ints, ints))
vec_st = st.tuples(ints, ints)
# ints and rationals with denominators 1-6, so that inputs share a common
# denominator s > 1
entries = st.one_of(ints, st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))
rat_mat_st = st.tuples(st.tuples(entries, entries), st.tuples(entries, entries))
rat_vec_st = st.tuples(entries, entries)


def all_fractions(values):
    return all(isinstance(x, Fraction) for x in values)


SWAP = ((0, 1), (1, 0))
DIAG = ((1, 0), (0, -1))
E12 = ((0, 1), (0, 0))
E11 = ((1, 0), (0, 0))
ZERO = ((0, 0), (0, 0))
IDENT = ((1, 0), (0, 1))


def primitive(coeffs):
    """Scale rational coefficients to coprime integers, first nonzero positive."""
    fracs = [Fraction(c) for c in coeffs]
    denom = math.lcm(*(c.denominator for c in fracs))
    nums = [int(c * denom) for c in fracs]
    g = math.gcd(*nums)
    if g:
        nums = [c // g for c in nums]
    lead = next((c for c in nums if c != 0), 1)
    if lead < 0:
        nums = [-c for c in nums]
    return tuple(nums)


class TestMatrixHelpers:
    def test_validation(self):
        with pytest.raises(ValueError):
            mat2([[1, 2, 3], [4, 5, 6]])
        with pytest.raises(ValueError):
            mat2([[1, 2]])
        with pytest.raises(ValueError):
            vec2([1, 2, 3])

    def test_fraction_coercion(self):
        m = mat2([["1/2", 0], [0, 1]])
        assert m[0][0] == Fraction(1, 2)


class TestPairsModel:
    def test_frozen_example(self):
        p = l2_invariants(SWAP, DIAG)
        assert p.coordinates() == (2, 0, 2, 0, 0)
        assert p.h == -4
        assert l2_is_stable(SWAP, DIAG)
        conic = l2_conic(p)
        assert conic.coefficients() == (2, -2, 2, 0, 0, 0)
        assert l2_semiinvariants(SWAP, DIAG, (1, 0)) == (1, -1, 0)
        assert conic.evaluate(1, -1, 0) == 0

    def test_commuting_diagonal_pair_is_unstable(self):
        a, b = ((1, 0), (0, 2)), ((3, 0), (0, 4))
        assert not l2_is_stable(a, b)
        assert burnside_dimension([a, b]) == 2

    def test_scalar_pair(self):
        assert burnside_dimension([IDENT, ((2, 0), (0, 2))]) == 1

    @given(rat_mat_st, rat_mat_st, rat_vec_st)
    def test_conic_identity(self, a, b, v):
        p = l2_invariants(a, b)
        conic = l2_conic(p)
        x, y, z = l2_semiinvariants(a, b, v)
        assert conic.evaluate(x, y, z) == 0
        assert all_fractions(p.coordinates() + (x, y, z) + conic.coefficients())

    @given(mat_st, mat_st)
    def test_gram_determinant_is_twice_h(self, a, b):
        p = l2_invariants(a, b)
        assert l2_conic(p).gram_determinant() == 2 * p.h

    @given(mat_st, mat_st)
    @settings(max_examples=150)
    def test_stable_iff_burnside_full(self, a, b):
        assert l2_is_stable(a, b) == (burnside_dimension([a, b]) == 4)

    @given(rat_mat_st, rat_mat_st, mat_st, rat_vec_st)
    def test_conjugation_equivariance(self, a, b, g, v):
        det_g = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        assume(det_g != 0)
        ginv = (
            (Fraction(g[1][1], det_g), Fraction(-g[0][1], det_g)),
            (Fraction(-g[1][0], det_g), Fraction(g[0][0], det_g)),
        )

        def conj(m):
            rows = []
            for i in range(2):
                row = []
                for j in range(2):
                    row.append(
                        sum(
                            Fraction(g[i][k]) * Fraction(m[k][l]) * ginv[l][j]
                            for k in range(2)
                            for l in range(2)
                        )
                    )
                rows.append(tuple(row))
            return tuple(rows)

        gv = (
            g[0][0] * v[0] + g[0][1] * v[1],
            g[1][0] * v[0] + g[1][1] * v[1],
        )
        assert l2_invariants(conj(a), conj(b)) == l2_invariants(a, b)
        orig = l2_semiinvariants(a, b, v)
        moved = l2_semiinvariants(conj(a), conj(b), gv)
        assert moved == tuple(det_g * t for t in orig)
        assert all_fractions(moved + l2_invariants(conj(a), conj(b)).coordinates())


class TestTriplesModel:
    def test_frozen_degenerate_example(self):
        p = k3_invariants(IDENT, DIAG, E12)
        assert p.coordinates() == (1, 0, 0, -1, 0, 0)
        assert p.h == 0
        assert not k3_is_stable(IDENT, DIAG, E12)
        assert k3_destabilizer(IDENT, DIAG, E12) == (1, 1)

    def test_frozen_stable_example(self):
        p = k3_invariants(IDENT, DIAG, SWAP)
        assert p.coordinates() == (1, 0, 0, -1, 0, -1)
        assert p.h == 4
        assert k3_is_stable(IDENT, DIAG, SWAP)
        assert k3_destabilizer(IDENT, DIAG, SWAP) is None
        conic = k3_conic(p)
        assert conic.coefficients() == (-1, -1, 1, 0, 0, 0)
        assert conic.evaluate(*k3_semiinvariants(IDENT, DIAG, SWAP, (1, 0))) == 0

    def test_conic_rejects_degenerate_point(self):
        with pytest.raises(ValueError):
            k3_conic(k3_invariants(ZERO, ZERO, ZERO))

    def test_destabilizer_branches(self):
        assert k3_destabilizer(ZERO, ZERO, ZERO) == (2, 0)
        assert k3_destabilizer(E11, E11, E11) == (1, 0)
        assert k3_destabilizer(E11, E12, ZERO) == (2, 1)

    @given(rat_mat_st, rat_mat_st, rat_mat_st, rat_vec_st)
    def test_conic_identity(self, a, b, c, v):
        p = k3_invariants(a, b, c)
        assume(not p.is_degenerate)
        conic = k3_conic(p)
        x, y, z = k3_semiinvariants(a, b, c, v)
        assert conic.evaluate(x, y, z) == 0
        assert all_fractions(p.coordinates() + (x, y, z) + conic.coefficients())

    @given(mat_st, mat_st, mat_st)
    def test_gram_determinant_is_quarter_h(self, a, b, c):
        p = k3_invariants(a, b, c)
        assume(not p.is_degenerate)
        assert k3_conic(p).gram_determinant() == p.h / 4

    @given(mat_st, mat_st, mat_st)
    @settings(max_examples=150, deadline=None)
    def test_stable_iff_no_destabilizer(self, a, b, c):
        assert k3_is_stable(a, b, c) == (k3_destabilizer(a, b, c) is None)

    @given(ints, ints, ints, ints, ints, ints, ints, ints, ints)
    def test_upper_triangular_triples_destabilize(self, a1, a2, a3, b1, b2, b3, c1, c2, c3):
        a = ((a1, a2), (0, a3))
        b = ((b1, b2), (0, b3))
        c = ((c1, c2), (0, c3))
        assert k3_destabilizer(a, b, c) is not None
        assert not k3_is_stable(a, b, c)

    @given(ints, ints, ints, ints, ints, ints)
    def test_common_kernel_triples_destabilize(self, a1, a2, b1, b2, c1, c2):
        def with_kernel(top, bottom):
            # kernel contains (1, 1)
            return ((top, -top), (bottom, -bottom))

        a, b, c = with_kernel(a1, a2), with_kernel(b1, b2), with_kernel(c1, c2)
        d = k3_destabilizer(a, b, c)
        assert d in ((1, 0), (2, 0))
        assert not k3_is_stable(a, b, c)

    @given(rat_mat_st, rat_mat_st, rat_mat_st, mat_st, rat_vec_st)
    @settings(max_examples=60)
    def test_conjugation_equivariance(self, a, b, c, g, v):
        det_g = g[0][0] * g[1][1] - g[0][1] * g[1][0]
        assume(det_g != 0)
        ginv = (
            (Fraction(g[1][1], det_g), Fraction(-g[0][1], det_g)),
            (Fraction(-g[1][0], det_g), Fraction(g[0][0], det_g)),
        )

        def conj(m):
            return tuple(
                tuple(
                    sum(
                        Fraction(g[i][k]) * Fraction(m[k][l]) * ginv[l][j]
                        for k in range(2)
                        for l in range(2)
                    )
                    for j in range(2)
                )
                for i in range(2)
            )

        gv = (
            g[0][0] * v[0] + g[0][1] * v[1],
            g[1][0] * v[0] + g[1][1] * v[1],
        )
        assert k3_invariants(conj(a), conj(b), conj(c)) == k3_invariants(a, b, c)
        orig = k3_semiinvariants(a, b, c, v)
        moved = k3_semiinvariants(conj(a), conj(b), conj(c), gv)
        assert moved == tuple(det_g * t for t in orig)
        assert all_fractions(moved + k3_invariants(conj(a), conj(b), conj(c)).coordinates())


class TestBinaryFormRoots:
    def test_edges(self):
        zero = (Fraction(0), Fraction(0), Fraction(0))
        assert binary_forms_common_root([zero, zero])
        # both divisible by t: shared root at infinity
        at_inf = (Fraction(0), Fraction(1), Fraction(0))
        also_inf = (Fraction(0), Fraction(0), Fraction(1))
        assert binary_forms_common_root([at_inf, also_inf])
        # s^2 - t^2 and s^2 - s t share (1 : 1); s^2 + t^2 and s^2 - t^2 do not
        assert binary_forms_common_root(
            [(Fraction(1), Fraction(0), Fraction(-1)), (Fraction(1), Fraction(-1), Fraction(0))]
        )
        assert not binary_forms_common_root(
            [(Fraction(1), Fraction(0), Fraction(1)), (Fraction(1), Fraction(0), Fraction(-1))]
        )
        # single irreducible form still has roots over the closure
        assert binary_forms_common_root([(Fraction(1), Fraction(0), Fraction(1))])

    def test_int_coefficients_stay_exact(self):
        # the gcd must stay exact on int input: in floats the first pair loops
        # forever and the second misses the shared root (1 : 1)
        assert not binary_forms_common_root([(8, -9, 3), (7, -5, 7)])
        assert binary_forms_common_root([(6, 3, -9), (7, -1, -6)])

    @given(st.lists(st.tuples(ints, ints, ints), min_size=1, max_size=3))
    @settings(max_examples=300)
    def test_int_and_fraction_input_agree(self, forms):
        as_fractions = [tuple(Fraction(c) for c in f) for f in forms]
        assert binary_forms_common_root(forms) == binary_forms_common_root(as_fractions)

    @given(st.lists(st.tuples(entries, entries, entries), max_size=4), st.booleans(), rat_vec_st)
    @settings(max_examples=300)
    def test_rank_test_matches_euclid_oracle(self, forms, plant, root):
        if plant:
            # (r1 s - r0 t)(p s + q t): every form vanishes at (r0 : r1)
            r0, r1 = root
            forms = [(r1 * p, r1 * q - r0 * p, -r0 * q) for p, q, _ in forms]
        assert binary_forms_common_root(forms) == common_root_by_euclid(forms)
        if plant:
            assert binary_forms_common_root(forms)


class TestConicFitting:
    def test_circle_through_five_points(self):
        pts = [(1, 0, 1), (0, 1, 1), (3, 4, 5), (4, 3, 5), (5, 12, 13)]
        conic = fit_conic([(Fraction(x), Fraction(y), Fraction(z)) for x, y, z in pts])
        assert conic is not None
        assert conic.coefficients() == (1, 1, -1, 0, 0, 0)

    def test_four_points_are_not_enough(self):
        pts = [(1, 0, 1), (0, 1, 1), (3, 4, 5), (4, 3, 5)]
        assert fit_conic([(Fraction(x), Fraction(y), Fraction(z)) for x, y, z in pts]) is None

    def test_fitted_conic_matches_closed_form(self):
        fitted = fit_conic_through_semiinvariants(IDENT, DIAG, SWAP)
        assert fitted is not None
        closed = k3_conic(k3_invariants(IDENT, DIAG, SWAP))
        assert primitive(fitted.coefficients()) == primitive(closed.coefficients())

    @given(mat_st, mat_st, mat_st)
    @settings(max_examples=60, deadline=None)
    def test_fit_agrees_at_stable_triples(self, a, b, c):
        assume(k3_is_stable(a, b, c))
        fitted = fit_conic_through_semiinvariants(a, b, c)
        assume(fitted is not None)  # sample vectors can be non-generic
        closed = k3_conic(k3_invariants(a, b, c))
        assert primitive(fitted.coefficients()) == primitive(closed.coefficients())


class TestConicFiber:
    def test_symmetric_matrix_and_gram(self):
        conic = ConicFiber(
            xx=Fraction(2), yy=Fraction(-2), zz=Fraction(2),
            xy=Fraction(0), xz=Fraction(0), yz=Fraction(0),
        )
        assert conic.gram_determinant() == -8
        assert conic.is_nondegenerate

    def test_degenerate(self):
        conic = ConicFiber(
            xx=Fraction(1), yy=Fraction(0), zz=Fraction(0),
            xy=Fraction(0), xz=Fraction(0), yz=Fraction(0),
        )
        assert conic.gram_determinant() == 0
        assert not conic.is_nondegenerate
