import itertools
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import field_oracle
import pytest
from field_oracle import FieldForm, lifted
from hypothesis import assume, given, settings, strategies as st

import quivermod.clifford as clifford_module
from quivermod import linalg
from quivermod.clifford import (
    QuadraticFormB,
    QuaternionAlgebra,
    StructureConstantAlgebra,
    azumaya_certificate,
    build_clifford,
    form_from_conic,
    hilbert_polynomial_quadric,
    is_azumaya_over_field,
    is_smooth_quadric,
    quaternion_from_ternary,
    standard_form,
)
from quivermod.models import ConicFiber


def diag_form(entries, char=0):
    size = len(entries)
    b = [[entries[i] if i == j else 0 for j in range(size)] for i in range(size)]
    return QuadraticFormB(b, char=char)


small = st.integers(-4, 4)


def symmetric_b(size, lo=-4, hi=4):
    entry = st.integers(lo, hi)
    upper = st.tuples(*[entry for _ in range(size * (size + 1) // 2)])

    def build(vals):
        b = [[0] * size for _ in range(size)]
        it = iter(vals)
        for i in range(size):
            for j in range(i, size):
                v = next(it)
                b[i][j] = v
                b[j][i] = v
        return b

    return upper.map(build)


class TestQuadraticFormB:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadraticFormB([])
        with pytest.raises(ValueError):
            QuadraticFormB([[1, 2], [3]])
        with pytest.raises(ValueError):
            QuadraticFormB([[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            QuadraticFormB([[1]], char=4)
        with pytest.raises(ValueError):
            QuadraticFormB([[1]], char=1)

    def test_characteristic_bound(self):
        assert QuadraticFormB([[1]], char=2 ** 31 - 1).char == 2 ** 31 - 1
        for char in (4294967311, 18446744073709551629):  # primes above the bound
            with pytest.raises(ValueError, match="below 2\\^31"):
                QuadraticFormB([[1]], char=char)

    def test_value_and_polar_frozen(self):
        q = QuadraticFormB([[1, 2], [2, 3]])
        # Q(x, y) = x^2 + 2 x y + 3 y^2
        assert q.value((1, 0)) == 1
        assert q.value((0, 1)) == 3
        assert q.value((1, 1)) == 6
        assert q.polar((1, 0), (0, 1)) == 2
        assert q.polar((1, 0), (1, 0)) == 2

    def test_char_p_value(self):
        q = QuadraticFormB([[1, 2], [2, 3]], char=5)
        assert q.value((1, 1)) == 1

    def test_fraction_entries_in_char_p(self):
        q = QuadraticFormB([[Fraction(1, 2)]], char=5)
        # 1/2 = 3 mod 5
        assert q.b[0][0] == 3

    @given(symmetric_b(3), st.tuples(small, small, small), st.tuples(small, small, small))
    def test_polarization_identity(self, b, u, v):
        q = QuadraticFormB(b)
        uv = tuple(x + y for x, y in zip(u, v))
        assert q.polar(u, v) == q.value(uv) - q.value(u) - q.value(v)

    @given(symmetric_b(3, 0, 4), st.tuples(small, small, small), st.tuples(small, small, small))
    def test_polarization_identity_char_p(self, b, u, v):
        q = QuadraticFormB(b, char=5)
        uv = tuple(x + y for x, y in zip(u, v))
        assert q.polar(u, v) == (q.value(uv) - q.value(u) - q.value(v)) % 5


class TestStandardForm:
    def test_n1(self):
        q = standard_form(1)
        assert q.size == 3 and q.n == 1
        assert q.b[0][1] == 1 and q.b[2][2] == 1
        assert q.value((1, 1, 0)) == 1  # lambda0 lambda1
        assert q.value((0, 0, 1)) == 1
        assert q.gram() == ((0, 1, 0), (1, 0, 0), (0, 0, 2))

    def test_n3(self):
        q = standard_form(3)
        assert q.size == 5
        assert q.b[0][2] == 1 and q.b[1][3] == 1 and q.b[4][4] == 1

    def test_char2(self):
        q = standard_form(1, char=2)
        assert q.char == 2
        assert q.b[0][1] == 1

    def test_negative_n(self):
        with pytest.raises(ValueError):
            standard_form(-1)


class TestSmoothness:
    def test_frozen(self):
        assert is_smooth_quadric(standard_form(1))
        assert is_smooth_quadric(standard_form(1, char=2))
        assert is_smooth_quadric(standard_form(1, char=3))
        assert is_smooth_quadric(standard_form(1, char=5))
        assert not is_smooth_quadric(diag_form([1, 0, 0]))
        assert not is_smooth_quadric(diag_form([1, 0, 0], char=3))

    def test_char2_odd_size_needs_value_on_radical(self):
        # lambda0 lambda1 in three variables: radical is e2, Q(e2) = 0
        q = QuadraticFormB([[0, 1, 0], [1, 0, 0], [0, 0, 0]], char=2)
        assert not is_smooth_quadric(q)
        # adding lambda2^2 makes Q nonzero on the radical
        assert is_smooth_quadric(QuadraticFormB([[0, 1, 0], [1, 0, 0], [0, 0, 1]], char=2))

    def test_char2_even_size(self):
        assert is_smooth_quadric(QuadraticFormB([[0, 1], [1, 0]], char=2))
        assert not is_smooth_quadric(QuadraticFormB([[1, 0], [0, 1]], char=2))


class TestDiagonalize:
    def test_rejects_char2(self):
        with pytest.raises(ValueError):
            QuadraticFormB([[0, 1], [1, 0]], char=2).diagonalize()

    def check_diagonalization(self, q, ws):
        coeffs, p = q.diagonalize()
        size = q.size
        for w in ws:
            pw = [sum(p[r][c] * w[c] for c in range(size)) for r in range(size)]
            expected = q.scalar(sum(coeffs[i] * w[i] * w[i] for i in range(size)))
            assert q.value(pw) == expected

    @given(symmetric_b(3))
    def test_rational(self, b):
        q = QuadraticFormB(b)
        self.check_diagonalization(q, itertools.product((-2, 0, 1, 3), repeat=3))

    def test_hyperbolic_zero_diagonal(self):
        q = QuadraticFormB([[0, 1], [1, 0]])
        self.check_diagonalization(q, itertools.product((-1, 0, 1, 2), repeat=2))

    @given(symmetric_b(3, 0, 4))
    @settings(max_examples=50)
    def test_char5(self, b):
        q = QuadraticFormB(b, char=5)
        self.check_diagonalization(q, itertools.product((0, 1, 2, 3, 4), repeat=3))

    def test_standard_form_signature(self):
        coeffs, _ = standard_form(1).diagonalize()
        nonzero = [c for c in coeffs if c != 0]
        assert len(nonzero) == 3
        assert sum(1 for c in nonzero if c < 0) == 1  # hyperbolic plane splits

    @given(st.integers(1, 6), st.sampled_from([0, 3, 5, 7, 65537, 2 ** 31 - 1]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_fraction_oracle(self, size, p, data):
        # about a third of the entries are 0 and some diagonals are forced to 0,
        # so that swaps, merges and zero blocks all occur
        entry = st.one_of(st.just(Fraction(0)), st.builds(
            Fraction, st.integers(-10 ** 4, 10 ** 4), st.sampled_from([1, 2, 4, 10, 97, 1000])))
        count = size * (size + 1) // 2
        upper = iter(data.draw(st.lists(entry, min_size=count, max_size=count)))
        zeros = data.draw(st.sets(st.integers(0, size - 1)))
        b = [[Fraction(0)] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                b[i][j] = b[j][i] = Fraction(0) if i == j and i in zeros else next(upper)
        if p and any(x.denominator % p == 0 for row in b for x in row):
            b = [[x.numerator for x in row] for row in b]
        q = QuadraticFormB(b, char=p)
        coeffs, mat = q.diagonalize()
        expected_coeffs, expected_mat = field_oracle.diagonalize_oracle(q)
        assert (coeffs, [list(row) for row in mat]) == (expected_coeffs, expected_mat)
        kind = int if p else Fraction
        assert all(type(x) is kind for x in coeffs + [x for row in mat for x in row])

    @pytest.mark.parametrize("b", [[[0, 1], [1, 0]], [[1, 0], [0, 1]], [[0]]])
    def test_char2_raises_like_the_oracle(self, b):
        q = QuadraticFormB(b, char=2)
        for diagonalize in (QuadraticFormB.diagonalize, field_oracle.diagonalize_oracle):
            with pytest.raises(ValueError, match="characteristic != 2"):
                diagonalize(q)


class TestCliffordAlgebra:
    def test_dimensions(self):
        assert build_clifford(standard_form(1)).dim == 8
        assert build_clifford(standard_form(3)).dim == 32
        assert len(build_clifford(standard_form(1)).even_masks()) == 4
        assert len(build_clifford(standard_form(3)).even_masks()) == 16

    def test_rank_one_form(self):
        u = Fraction(7)
        cl = build_clifford(QuadraticFormB([[u]]))
        assert cl.dim == 2
        assert cl.mul_basis(1, 1) == {0: u}

    def test_generator_relations(self):
        q = QuadraticFormB([[1, 2, 0], [2, -1, 1], [0, 1, 3]])
        cl = build_clifford(q)
        gram = q.gram()
        for i in range(3):
            assert cl.mul_basis(1 << i, 1 << i) == {0: q.b[i][i]}
            for j in range(i + 1, 3):
                anti = cl.multiply(
                    cl.mul_basis(1 << i, 1 << j), {0: q.one()}
                )
                ji = cl.mul_basis(1 << j, 1 << i)
                total = dict(anti)
                for m, c in ji.items():
                    total[m] = total.get(m, q.zero()) + c
                    if total[m] == 0:
                        del total[m]
                expected = {} if gram[i][j] == 0 else {0: gram[i][j]}
                assert total == expected

    def test_diagonal_binary_relations(self):
        s, t = Fraction(2), Fraction(-3)
        cl = build_clifford(diag_form([s, t]))
        assert cl.mul_basis(0b01, 0b01) == {0: s}
        assert cl.mul_basis(0b10, 0b10) == {0: t}
        ij = cl.mul_basis(0b01, 0b10)
        ji = cl.mul_basis(0b10, 0b01)
        assert ij == {0b11: Fraction(1)}
        assert ji == {0b11: Fraction(-1)}
        assert cl.mul_basis(0b11, 0b11) == {0: -s * t}

    def test_hyperbolic_binary_relation(self):
        cl = build_clifford(QuadraticFormB([[0, 1], [1, 0]]))
        ij = cl.mul_basis(0b01, 0b10)
        ji = cl.mul_basis(0b10, 0b01)
        total = dict(ij)
        for m, c in ji.items():
            total[m] = total.get(m, Fraction(0)) + c
            if total[m] == 0:
                del total[m]
        assert total == {0: Fraction(1)}

    @pytest.mark.parametrize("char", [0, 5])
    def test_associativity_exhaustive_size3(self, char):
        q = QuadraticFormB([[1, 2, 0], [2, 3, 1], [0, 1, 1]], char=char)
        cl = build_clifford(q)
        one = q.one()
        for s in range(cl.dim):
            for t in range(cl.dim):
                st_prod = cl.mul_basis(s, t)
                for u in range(cl.dim):
                    left = cl.multiply(st_prod, {u: one})
                    right = cl.multiply({s: one}, cl.mul_basis(t, u))
                    assert left == right

    def test_even_part_closure_and_unit(self):
        q = standard_form(1)
        cl = build_clifford(q)
        masks = cl.even_masks()
        for s in masks:
            for t in masks:
                for m in cl.mul_basis(s, t):
                    assert bin(m).count("1") % 2 == 0
        even = cl.even_part()
        assert even.dim == 4
        for i in range(4):
            assert even.table[0][i][i] == 1
            assert even.table[i][0][i] == 1


def enveloping_rank_oracle(alg):
    """Rank of the enveloping matrix by plain loops over the table's field:
    GFElement over GF(alg.char), Fraction over Q, eliminated by the oracle rref.

    Entry (k_out, k_in), (i, j) is the e_k_out coefficient of (e_i e_k_in) e_j;
    the library brackets the product the other way, e_i (e_k_in e_j).
    """
    d, p = alg.dim, alg.char
    t = [[[lifted(x, p) for x in cell] for cell in row] for row in alg.table]
    zero = t[0][0][0] * 0
    rows = []
    for k_out in range(d):
        for k_in in range(d):
            row = []
            for i in range(d):
                for j in range(d):
                    total = zero
                    for m in range(d):
                        if t[i][k_in][m] != 0:
                            total = total + t[i][k_in][m] * t[m][j][k_out]
                    row.append(total)
            rows.append(row)
    return field_oracle.rank(rows)


def enveloping_rank_mod(alg, q):
    """Rank mod a prime q of the enveloping matrix, built by plain loops as in
    enveloping_rank_oracle and eliminated in Python ints.

    Exact for a table over GF(q); for a rational table whose denominators q
    does not divide, a lower bound of the rank over Q, so d^2 proves full rank.
    """
    d = alg.dim
    t = [[[x % q if alg.char else x.numerator * pow(x.denominator, -1, q) % q
           for x in cell] for cell in row] for row in alg.table]
    rows = []
    for k_out in range(d):
        for k_in in range(d):
            row = []
            for i in range(d):
                nonzero = [(m, a) for m, a in enumerate(t[i][k_in]) if a]
                row += [sum(a * t[m][j][k_out] for m, a in nonzero) % q for j in range(d)]
            rows.append(row)
    r = 0
    for col in range(d * d):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], -1, q)
        prow = [x * inv % q for x in rows[r][col:]]
        for i in range(r + 1, len(rows)):
            f = rows[i][col]
            if f:
                rows[i][col:] = [(a - f * b) % q for a, b in zip(rows[i][col:], prow)]
        r += 1
    return r


def rational_reconstruct(a, m):
    """n/d with n == a d mod m and |n|, d <= sqrt(m/2), by half extended Euclid."""
    bound = math.isqrt(m // 2)
    r0, r1, t0, t1 = m, a % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if t1 != 0 and abs(t1) <= bound and math.gcd(r1, abs(t1)) == 1:
        return Fraction(r1, t1)
    return None


def kernel_witness(alg, primes):
    """A nonzero integer vector that the exact enveloping matrix of a table over
    Q annihilates, which proves the map not injective, or None.

    Kernel vectors mod each prime are joined by CRT and rationally
    reconstructed. A vector with an earlier free column than the one so far
    comes from a bad prime and is skipped; a later one restarts the
    accumulation. Full rank mod a prime proves that no witness exists.
    """
    import numpy as np

    d, n = alg.dim, alg.dim ** 2
    flat = linalg.clear_denominators([x for row in alg.table for cell in row for x in cell])
    c = np.array(flat, dtype=object).reshape(d, d, d)
    exact = clifford_module._envelope(c)
    modulus, acc, free = 1, [0] * n, None
    for p in primes:
        vec = linalg._echelon_mod_p(clifford_module._envelope(c, p), p)[1]
        if vec is None:
            return None
        col = max(i for i, x in enumerate(vec) if x)
        if free is not None and col < free:
            continue
        if col != free:
            modulus, acc, free = 1, [0] * n, col
        inv = pow(modulus, -1, p)
        acc = [a + modulus * ((v - a) * inv % p) for a, v in zip(acc, vec)]
        modulus *= p
        fracs = [rational_reconstruct(a, modulus) for a in acc]
        if None not in fracs:
            witness = linalg.clear_denominators(fracs)
            if not any(exact.dot(witness)):
                return witness
    return None


def add_to_constant(alg, index, delta):
    """The table of alg with delta added to one structure constant (mod char)."""
    t = [[list(cell) for cell in row] for row in alg.table]
    i, j, k = index
    t[i][j][k] = (t[i][j][k] + delta) % alg.char if alg.char else t[i][j][k] + delta
    return StructureConstantAlgebra(
        dim=alg.dim, table=tuple(tuple(tuple(cell) for cell in row) for row in t), char=alg.char)


@st.composite
def azumaya_inputs(draw, max_size=3, sizes=None, chars=(0, 0, 2, 3, 5, 2 ** 31 - 1)):
    """(b, char) over Q, integral or not, and over GF(p) for the primes p in chars."""
    size = draw(st.sampled_from(sizes) if sizes else st.integers(1, max_size))
    char = draw(st.sampled_from(chars))
    b = draw(symmetric_b(size, -4, 4))
    if char == 0 and draw(st.booleans()):
        dens = draw(st.lists(st.sampled_from([1, 2, 3, 6]), min_size=size, max_size=size))
        b = [[Fraction(x, dens[min(i, j)]) for j, x in enumerate(row)] for i, row in enumerate(b)]
    return b, char


CERTIFICATES = ("central-simple", "centre", "trace-radical", "full-rank", "kernel", "exact")


class TestAzumaya:
    def test_trivial_algebra(self):
        cl = build_clifford(QuadraticFormB([[1]]))
        even = cl.even_part()
        assert even.dim == 1
        assert is_azumaya_over_field(even)

    def test_standard_even_is_azumaya(self):
        assert is_azumaya_over_field(build_clifford(standard_form(1)).even_part())

    def test_degenerate_even_is_not(self):
        assert not is_azumaya_over_field(build_clifford(diag_form([1, 0, 0])).even_part())

    def test_finite_fields(self):
        for p in (2, 3, 5):
            even = build_clifford(standard_form(1, char=p)).even_part()
            assert is_azumaya_over_field(even)
        bad = build_clifford(diag_form([1, 0, 0], char=3)).even_part()
        assert not is_azumaya_over_field(bad)
        bad2 = build_clifford(
            QuadraticFormB([[0, 1, 0], [1, 0, 0], [0, 0, 0]], char=2)
        ).even_part()
        assert not is_azumaya_over_field(bad2)

    def test_non_integral_constants_use_exact_path(self):
        even = build_clifford(diag_form([Fraction(1, 2), 1, 1])).even_part()
        assert is_azumaya_over_field(even)

    def test_capacity_guard(self):
        dummy = StructureConstantAlgebra(dim=65, table=(), char=0)
        with pytest.raises(ValueError):
            is_azumaya_over_field(dummy)

    def test_characteristic_guard(self):
        big_char = StructureConstantAlgebra(dim=1, table=(((1,),),), char=2 ** 31 + 11)
        with pytest.raises(ValueError, match="2\\^31"):
            is_azumaya_over_field(big_char)

    @given(azumaya_inputs())
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_enveloping_rank(self, inp):
        b, char = inp
        even = build_clifford(QuadraticFormB(b, char=char)).even_part()
        assert is_azumaya_over_field(even) == (enveloping_rank_oracle(even) == even.dim ** 2)

    def test_modular_envelope_has_no_overflow(self):
        # the negative constants reduce to residues near 2^31, so each entry is
        # a sum of 16 products near 2^62: plain int64 arithmetic wraps, and
        # _envelope stays exact only through _matmul_mod's limb split
        p = 2 ** 31 - 1
        b = [[-1, 3, -2, 0, 1], [3, -4, 1, -3, 2], [-2, 1, 2, -1, -4],
             [0, -3, -1, -2, 3], [1, 2, -4, 3, -3]]
        even = build_clifford(QuadraticFormB(b, char=p)).even_part()
        c = [[list(cell) for cell in row] for row in even.table]
        d = even.dim
        assert d == 16 and max(x for row in c for cell in row for x in cell) > 2 ** 30
        exact = [
            [sum(c[t][j][m] * c[i][m][s] for m in range(d)) for i in range(d) for j in range(d)]
            for s in range(d) for t in range(d)
        ]
        import numpy as np
        from quivermod.clifford import _envelope

        tensor = np.array(c, dtype=object)
        assert _envelope(tensor).tolist() == exact
        assert _envelope(tensor, p).tolist() == [[x % p for x in row] for row in exact]

    def spy(self, monkeypatch):
        """Record the primes the enveloping matrix is built for, and the shapes
        of the matrices the Azumaya test eliminates mod p and over Q."""
        calls = {"envelope": [], "mod_p": [], "exact": []}
        envelope, echelon, exact_rank = (
            clifford_module._envelope, clifford_module._echelon_mod_p, clifford_module.rank)

        def envelope_spy(c, p=None):
            calls["envelope"].append(p)
            return envelope(c, p)

        def echelon_spy(a, p):
            calls["mod_p"].append(a.shape)
            return echelon(a, p)

        def rank_spy(rows):
            calls["exact"].append((len(rows), len(rows[0])))
            return exact_rank(rows)

        monkeypatch.setattr(clifford_module, "_envelope", envelope_spy)
        monkeypatch.setattr(clifford_module, "_echelon_mod_p", echelon_spy)
        monkeypatch.setattr(clifford_module, "rank", rank_spy)
        return calls

    def test_certificate_full_rank_mod_p(self, monkeypatch):
        # one prime, and only d-dimensional eliminations: the centre system
        # and the trace form
        even = build_clifford(standard_form(3)).even_part()
        calls = self.spy(monkeypatch)
        assert azumaya_certificate(even) == (True, "central-simple")
        assert calls == {"envelope": [clifford_module._AZUMAYA_PRIME],
                         "mod_p": [(256, 16), (16, 16)], "exact": []}
        assert enveloping_rank_mod(even, 2 ** 31 - 1) == 256

    def assert_trace_radical(self, monkeypatch, even):
        """The trace form decides False over Q: the d^2 x d^2 matrix is built
        exactly only to prove associativity, and nothing larger than the d x d
        trace form is eliminated over Q."""
        d = even.dim
        calls = self.spy(monkeypatch)
        assert azumaya_certificate(even) == (False, "trace-radical")
        assert calls["envelope"] == [clifford_module._AZUMAYA_PRIME, None]
        assert (d * d, d * d) not in calls["mod_p"] and calls["exact"] == [(d, d)]

    @pytest.mark.parametrize("b", [
        [[1, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[Fraction(1, 2), 0, 0], [0, 0, 0], [0, 0, Fraction(3, 4)]],
        [[-3, 4, -4], [4, -4, 8], [-4, 8, -4]],
        # rank 128 of 256; its kernel vector has 68 nonzero entries in ninths
        [[1, -2, -2, -1, 2], [-2, -1, 1, 2, 1], [-2, 1, 2, 2, 1], [-1, 2, 2, 2, -1],
         [2, 1, 1, -1, 1]],
    ])
    def test_certificate_reconstructed_kernel(self, monkeypatch, b):
        # the oracle rebuilds a kernel vector from one prime near 2^31
        even = build_clifford(QuadraticFormB(b)).even_part()
        self.assert_trace_radical(monkeypatch, even)
        assert kernel_witness(even, (clifford_module._AZUMAYA_PRIME,)) is not None

    def test_certificate_kernel_needs_two_primes(self, monkeypatch):
        # kernel entries in ninths reconstruct modulo 101 * 103 but not modulo 101
        b = [[1, -2, -2, -1, 2], [-2, -1, 1, 2, 1], [-2, 1, 2, 2, 1], [-1, 2, 2, 2, -1],
             [2, 1, 1, -1, 1]]
        even = build_clifford(QuadraticFormB(b)).even_part()
        self.assert_trace_radical(monkeypatch, even)
        assert kernel_witness(even, (101,)) is None
        assert kernel_witness(even, (101, 103, 107)) is not None

    @pytest.mark.parametrize("b", [
        [[1, 0, 0], [0, 3, 0], [0, 0, 0]],
        [[3, 0, 0], [0, 3, 0], [0, 0, 0]],
    ])
    def test_certificate_kernel_after_bad_first_prime(self, monkeypatch, b):
        # modulo 3 the form loses a further rank: the certificate falls back to
        # the exact trace form, and the oracle restarts its accumulation at 101
        even = build_clifford(QuadraticFormB(b)).even_part()
        monkeypatch.setattr(clifford_module, "_AZUMAYA_PRIME", 3)
        self.assert_trace_radical(monkeypatch, even)
        assert kernel_witness(even, (3, 101, 103)) is not None

    def test_certificate_kernel_skips_bad_middle_prime(self, monkeypatch):
        # kernel entries in ninths need 101 * 103; the oracle skips the bad
        # prime 3 between them, and the certificate at 3 still decides exactly
        b = [[1, -2, -2, -1, 2], [-2, -1, 1, 2, 1], [-2, 1, 2, 2, 1], [-1, 2, 2, 2, -1],
             [2, 1, 1, -1, 1]]
        even = build_clifford(QuadraticFormB(b)).even_part()
        monkeypatch.setattr(clifford_module, "_AZUMAYA_PRIME", 3)
        self.assert_trace_radical(monkeypatch, even)
        assert kernel_witness(even, (101, 3, 103)) is not None

    def test_certificate_exact_fallback(self, monkeypatch):
        # adding 3 to one constant keeps the table mod 3, where the form is
        # degenerate, but breaks associativity over Q: the rank over Q decides
        alg = add_to_constant(build_clifford(diag_form([1, 1, 3])).even_part(), (1, 2, 0), 3)
        calls = self.spy(monkeypatch)
        monkeypatch.setattr(clifford_module, "_AZUMAYA_PRIME", 3)
        assert azumaya_certificate(alg) == (True, "exact")
        assert calls["envelope"] == [3, None] and calls["exact"] == [(16, 16)]
        assert enveloping_rank_oracle(alg) == 16

    def test_certificate_exact_fallback_quinary(self, monkeypatch):
        # the same for a quinary form: the rank over Q of the 256 x 256 matrix
        # decides, and a kernel vector rebuilt near 2^31 confirms the deficit
        b = [[0, 0, 0, -1, -2], [0, 0, 0, 0, -2], [0, 0, 0, -2, 2], [-1, 0, -2, -2, 0],
             [-2, -2, 2, 0, 0]]
        alg = add_to_constant(build_clifford(QuadraticFormB(b)).even_part(), (1, 2, 0), 3)
        monkeypatch.setattr(clifford_module, "_AZUMAYA_PRIME", 3)
        start = time.perf_counter()
        verdict, name = azumaya_certificate(alg)
        elapsed = time.perf_counter() - start
        assert (verdict, name) == (False, "exact") and elapsed < 3.0
        assert kernel_witness(alg, (2 ** 31 - 1, 2147483587)) is not None

    @given(azumaya_inputs(max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_central_simple_verdict_is_sound(self, inp):
        b, char = inp
        even = build_clifford(QuadraticFormB(b, char=char)).even_part()
        verdict, name = azumaya_certificate(even)
        # over Q the rank mod 2^31 - 1, a prime the test does not visit, is a
        # lower bound of the rank, and no form drawn here has it as a bad prime
        assert verdict == (enveloping_rank_mod(even, char or 2 ** 31 - 1) == even.dim ** 2)
        assert name in CERTIFICATES

    def test_certificate_needs_associativity(self):
        # Hamilton's quaternions with one unit term added to i j: the centre
        # stays the scalars and the trace form stays nondegenerate, but the
        # product is no longer associative
        even = build_clifford(diag_form([1, 1, 1])).even_part()
        d = even.dim
        t = [[list(cell) for cell in row] for row in even.table]
        t[1][2][0] += 1
        alg = StructureConstantAlgebra(
            dim=d, table=tuple(tuple(tuple(cell) for cell in row) for row in t), char=0)
        assert linalg.rank([[t[k][x][s] - t[x][k][s] for k in range(d)]
                            for x in range(d) for s in range(d)]) == d - 1
        trace = [sum(t[m][s][s] for s in range(d)) for m in range(d)]
        assert linalg.rank([[sum(t[x][y][m] * trace[m] for m in range(d)) for y in range(d)]
                            for x in range(d)]) == d
        assert any(sum(t[i][k][m] * t[m][j][s] - t[k][j][m] * t[i][m][s] for m in range(d))
                   for i, k, j, s in itertools.product(range(d), repeat=4))
        verdict, name = azumaya_certificate(alg)
        assert name != "central-simple"
        assert verdict == (enveloping_rank_oracle(alg) == d ** 2)

    def test_char2_quinary_needs_the_elimination(self):
        # M_4(GF(2)) has the trace form 4 trd = 0
        even = build_clifford(standard_form(3, char=2)).even_part()
        assert azumaya_certificate(even) == (True, "full-rank")

    @given(azumaya_inputs(max_size=5), st.one_of(st.none(), st.tuples(
        st.integers(0, 3), st.integers(0, 3), st.integers(0, 3), st.integers(1, 2))))
    @settings(max_examples=60, deadline=None)
    def test_d_dimensional_certificates_only_decide_false(self, inp, change):
        # a changed constant usually breaks associativity
        b, char = inp
        alg = build_clifford(QuadraticFormB(b, char=char)).even_part()
        if change and max(change[:3]) < alg.dim:
            alg = add_to_constant(alg, change[:3], change[3])
        verdict, name = azumaya_certificate(alg)
        assert name in CERTIFICATES
        assert not (verdict and name in ("trace-radical", "centre"))

    @given(azumaya_inputs(sizes=[3, 5], chars=(0, 0, 2, 3, 5, 65537, 2 ** 31 - 1)))
    @settings(max_examples=60, deadline=None)
    def test_azumaya_iff_smooth_odd_sizes(self, inp):
        # an independent oracle: the even Clifford algebra of an odd-size form is
        # central simple exactly when the quadric is smooth
        b, char = inp
        q = QuadraticFormB(b, char=char)
        assert is_azumaya_over_field(build_clifford(q).even_part()) == is_smooth_quadric(q)

    @given(azumaya_inputs(sizes=[2, 4], chars=(0, 0, 2, 3, 5, 65537, 2 ** 31 - 1)))
    @settings(max_examples=60, deadline=None)
    def test_even_sizes_are_never_azumaya(self, inp):
        # the even Clifford algebra of an even-size form has a centre of dimension
        # at least 2: the discriminant algebra when the quadric is smooth
        b, char = inp
        q = QuadraticFormB(b, char=char)
        verdict, name = azumaya_certificate(build_clifford(q).even_part())
        assert not verdict
        if is_smooth_quadric(q):
            assert name == "centre"

    @pytest.mark.parametrize("char", [0, 5])
    def test_zero_dimensional_algebra(self, char):
        assert azumaya_certificate(StructureConstantAlgebra(dim=0, table=(), char=char)) == (
            True, "full-rank")

    @pytest.mark.parametrize("char", [0, 5])
    def test_one_dimensional_zero_table(self, char):
        # associative, all of it central, trace form 0
        zero = StructureConstantAlgebra(dim=1, table=(((0,),),), char=char)
        assert azumaya_certificate(zero) == (False, "trace-radical")
        assert enveloping_rank_oracle(zero) == 0

    @pytest.mark.parametrize("char", [0, 2 ** 31 - 1])
    @pytest.mark.parametrize("singular", [False, True])
    def test_large_entries_leave_the_plain_product(self, char, singular):
        # entries up to 10^6 push d max|c|^2 past 2^63: over Q the exact steps
        # run on Python ints, and mod p the products take the limb split
        rnd = random.Random(3)
        b = [[0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i, 5):
                b[i][j] = b[j][i] = 0 if singular and j == 4 else rnd.randint(-10 ** 6, 10 ** 6)
        q = QuadraticFormB(b, char=char)
        even = build_clifford(q).even_part()
        top = max(min(x % (char or 2 ** 31), -x % (char or 2 ** 31)) if char else abs(x)
                  for row in even.table for cell in row for x in cell)
        assert 16 * top ** 2 >= 2 ** 63
        start = time.perf_counter()
        verdict, name = azumaya_certificate(even)
        assert time.perf_counter() - start < 2.0
        assert verdict == (not singular) == is_smooth_quadric(q)
        assert name == ("trace-radical" if singular else "central-simple")

    @given(azumaya_inputs(max_size=5))
    @settings(max_examples=30, deadline=None)
    def test_even_part_matches_mul_basis(self, inp):
        b, char = inp
        cl = build_clifford(QuadraticFormB(b, char=char))
        masks = cl.even_masks()
        zero = cl.q.zero()
        expected = []
        for s in masks:
            cells = []
            for t in masks:
                prod = cl.mul_basis(s, t)
                cells.append(tuple(prod.get(m, zero) for m in masks))
            expected.append(tuple(cells))
        table = cl.even_part().table
        assert table == tuple(expected)
        # the format StructureConstantAlgebra states: residues in [0, p) over
        # GF(p); over Q ints when b is integral, ints or Fractions otherwise
        flat = [x for row in table for cell in row for x in cell]
        if char:
            assert all(type(x) is int and 0 <= x < char for x in flat)
        elif all(x.denominator == 1 for row in cl.q.b for x in row):
            assert all(type(x) is int for x in flat)
        else:
            assert all(type(x) in (int, Fraction) for x in flat)

    @given(st.integers(1, 9), st.integers(1, 9), st.sampled_from([2, 3, 5, 2 ** 31 - 1]),
           st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_echelon_mod_p_any_shape(self, rows, cols, p, rnd):
        import numpy as np

        # a low-rank product plus sparse noise gives every rank a chance
        k = rnd.randint(0, min(rows, cols))
        left = [[rnd.randrange(p) for _ in range(k)] for _ in range(rows)]
        right = [[rnd.randrange(p) for _ in range(cols)] for _ in range(k)]
        a = [[(sum(x * y for x, y in zip(row, col)) + (rnd.random() < 0.1)) % p
              for col in zip(*right)] if k else [int(rnd.random() < 0.1) for _ in range(cols)]
             for row in left]
        r, vec = linalg._echelon_mod_p(np.array(a, dtype=np.int64), p)
        assert r == field_oracle.rank([[lifted(x, p) for x in row] for row in a])
        assert (vec is None) == (r == cols)
        if vec is not None:
            assert all(sum(x * v for x, v in zip(row, vec)) % p == 0 for row in a)

    @pytest.mark.parametrize("near", [True, False])
    def test_matmul_mod_is_exact(self, near):
        # residues near p overflow a plain int64 product; small signed entries
        # reduce to residues near 0 and near p
        import random

        import numpy as np

        p, rnd = 2 ** 31 - 1, random.Random(7)
        draw = (lambda: p - 1 - rnd.randrange(2 ** 20)) if near else (lambda: rnd.randint(-9, 9))
        x = [[draw() for _ in range(64)] for _ in range(5)]
        y = [[draw() for _ in range(7)] for _ in range(64)]
        out = clifford_module._matmul_mod(np.array(x, dtype=object), np.array(y, dtype=object), p)
        assert out.tolist() == [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*y)]
                                for row in x]

    def test_import_leaves_numpy_unloaded(self):
        code = ("import sys, quivermod\n"
                "print(sorted(m for m in sys.modules if m.startswith('numpy.')))")
        env = dict(os.environ, PYTHONPATH=str(Path(clifford_module.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, env=env)
        assert out.stdout.strip() == "[]"

    @given(symmetric_b(3, -3, 3))
    @settings(max_examples=25, deadline=None)
    def test_azumaya_iff_smooth(self, b):
        q = QuadraticFormB(b)
        even = build_clifford(q).even_part()
        assert is_azumaya_over_field(even) == is_smooth_quadric(q)

    @given(symmetric_b(3, 0, 4))
    @settings(max_examples=15, deadline=None)
    def test_azumaya_iff_smooth_char5(self, b):
        q = QuadraticFormB(b, char=5)
        even = build_clifford(q).even_part()
        assert is_azumaya_over_field(even) == is_smooth_quadric(q)


ORACLE_PRIMES = [2, 3, 5, 65537, 2 ** 31 - 1]


class TestFormAgainstFieldOracle:
    """The int residues of QuadraticFormB against the same computation on
    GFElement scalars."""

    @given(st.integers(1, 5), st.sampled_from(ORACLE_PRIMES), st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_gfelement(self, size, p, data):
        b = data.draw(symmetric_b(size))
        den = data.draw(st.sampled_from([1, 1, 2, 3]))
        b = [[Fraction(x, den) for x in row] for row in b]
        if any(x.denominator % p == 0 for row in b for x in row):
            for make in (QuadraticFormB, FieldForm):
                with pytest.raises(ZeroDivisionError, match=f"^denominator divisible by {p}$"):
                    make(b, char=p)
            return
        q, oracle = QuadraticFormB(b, char=p), FieldForm(b, char=p)
        vec = st.lists(st.integers(-10 ** 12, 10 ** 12), min_size=size, max_size=size)
        u, v = data.draw(vec), data.draw(vec)

        def residues(xs):
            return [x.v for x in xs]

        assert [list(row) for row in q.b] == [residues(row) for row in oracle.b]
        assert q.value(u) == oracle.value(u).v
        assert q.polar(u, v) == oracle.polar(u, v).v
        assert is_smooth_quadric(q) == oracle.is_smooth()
        out = [q.value(u), q.polar(u, v)] + [x for row in q.gram() for x in row]
        if p != 2:
            coeffs, mat = q.diagonalize()
            expected_coeffs, expected_mat = oracle.diagonalize()
            assert coeffs == residues(expected_coeffs)
            assert [list(row) for row in mat] == [residues(row) for row in expected_mat]
            out += coeffs + [x for row in mat for x in row]
            if size == 3 and 0 not in coeffs:
                c0, c1, c2 = expected_coeffs
                quat = quaternion_from_ternary(q)
                assert (quat.u, quat.v) == ((-c0 * c1).v, (-c1 * c2).v)
                out += [quat.u, quat.v]
        assert all(type(x) is int and 0 <= x < p for x in out)


class TestQuaternionExtraction:
    def test_frozen_sum_of_squares(self):
        quat = quaternion_from_ternary(diag_form([1, 1, 1]))
        assert (quat.u, quat.v) == (-1, -1)

    def test_rejects(self):
        with pytest.raises(ValueError):
            quaternion_from_ternary(diag_form([1, 0, 0]))
        with pytest.raises(ValueError):
            quaternion_from_ternary(standard_form(1, char=2))
        with pytest.raises(ValueError):
            quaternion_from_ternary(standard_form(2))
        with pytest.raises(ValueError):
            QuaternionAlgebra(Fraction(0), Fraction(1))

    @given(symmetric_b(3, -3, 3))
    @settings(max_examples=40)
    def test_parameters_are_nonzero_products(self, b):
        q = QuadraticFormB(b)
        assume(is_smooth_quadric(q))
        quat = quaternion_from_ternary(q)
        assert quat.u != 0 and quat.v != 0
        coeffs, _ = q.diagonalize()
        assert quat.u == -coeffs[0] * coeffs[1]
        assert quat.v == -coeffs[1] * coeffs[2]

    @given(symmetric_b(3, -3, 3), st.sampled_from([0, 3, 5]))
    @settings(max_examples=80, deadline=None)
    def test_raises_exactly_on_degenerate_forms(self, b, char):
        q = QuadraticFormB(b, char=char)
        if is_smooth_quadric(q):
            quaternion_from_ternary(q)
        else:
            with pytest.raises(ValueError, match="form is degenerate"):
                quaternion_from_ternary(q)

    def test_norm_form_conic(self):
        quat = quaternion_from_ternary(diag_form([1, 1, 1]))
        conic = quat.norm_form_conic()
        assert conic.coefficients() == (-1, -1, -1, 0, 0, 0)


class TestFormFromConic:
    @given(st.tuples(small, small, small, small, small, small), st.tuples(small, small, small))
    def test_evaluate_matches(self, coeffs, v):
        conic = ConicFiber(*[Fraction(c) for c in coeffs])
        form = form_from_conic(conic)
        assert form.value(v) == conic.evaluate(*v)


def binom_product(top: int, k: int) -> int:
    """binom(top, k) as top (top-1) ... (top-k+1) / k!: the product formula,
    kept here as the oracle for clifford._binom_poly."""
    num = 1
    for i in range(k):
        num *= top - i
    q, r = divmod(num, math.factorial(k))
    assert r == 0
    return q


class TestHilbertPolynomial:
    def test_binom_matches_product_formula(self):
        for top in range(-60, 61):
            for k in range(41):
                assert clifford_module._binom_poly(top, k) == binom_product(top, k)

    def test_line_counts(self):
        for t in range(11):
            assert hilbert_polynomial_quadric(1, t) == 2 * t + 1

    def test_point_pair(self):
        for t in range(0, 6):
            assert hilbert_polynomial_quadric(0, t) == 2

    def test_unit_value_at_zero(self):
        for n in range(1, 6):
            assert hilbert_polynomial_quadric(n, 0) == 1

    def test_smooth_conic_in_plane(self):
        for t in range(6):
            assert hilbert_polynomial_quadric(2, t) == (t + 1) ** 2

    def test_negative_twist(self):
        assert hilbert_polynomial_quadric(1, -1) == -1

    def test_rejects_negative_n(self):
        with pytest.raises(ValueError):
            hilbert_polynomial_quadric(-1, 0)
