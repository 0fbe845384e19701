"""Acceptance suite: eleven exact criteria, one pass/fail line each.

Every check is exact (integer or rational equality, zero tolerance). Seeded
generators make each run reproducible. Timed criteria assert their wall-clock
budget on top of correctness.
"""
import functools
import itertools
import math
import random
import time
from fractions import Fraction

import sympy
from models_oracle import fit_conic_through_semiinvariants

from quivermod.clifford import (
    QuadraticFormB,
    QuaternionAlgebra,
    build_clifford,
    form_from_conic,
    hilbert_polynomial_quadric,
    is_azumaya_over_field,
    is_smooth_quadric,
    quaternion_from_ternary,
    standard_form,
)
from quivermod.hilbert import (
    clifford_invariant_of_model_point,
    conic_has_rational_point,
    quaternion_is_split,
    symbol_profile,
)
from quivermod.kronecker import (
    grid_box,
    kronecker_criterion_exceptions,
    loop_criterion_exceptions,
)
from quivermod.models import (
    ConicFiber,
    burnside_dimension,
    k3_conic,
    k3_destabilizer,
    k3_invariants,
    k3_is_stable,
    k3_semiinvariants,
    l2_conic,
    l2_invariants,
    l2_is_stable,
    l2_semiinvariants,
    L2Point,
)
from quivermod.quiver import (
    gcd_of,
    kronecker_quiver,
    loop_quiver,
    moduli_dimension,
)
from quivermod.stability import check_ample_stability_criterion, predict_brauer


def criterion(number, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {number:02d}] {name}: FAIL")
                raise
            print(f"[criterion {number:02d}] {name}: PASS")
        return wrapper
    return decorate


def rand_mat2(rng, lo=-10, hi=10):
    return ((rng.randint(lo, hi), rng.randint(lo, hi)),
            (rng.randint(lo, hi), rng.randint(lo, hi)))


def primitive(coeffs):
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


@criterion(1, "Kronecker exception scan")
def test_kronecker_exception_scan():
    start = time.perf_counter()
    result = kronecker_criterion_exceptions(
        range(3, 9), grid_box(10, 10), workers=1
    )
    elapsed = time.perf_counter() - start
    assert result.exceptions == ((3, (2, 2)),)
    assert result.scanned == 6 * 100
    assert elapsed < 30.0


@criterion(2, "loop exception scan")
def test_loop_exception_scan():
    start = time.perf_counter()
    result = loop_criterion_exceptions(range(2, 9), range(2, 13), workers=1)
    elapsed = time.perf_counter() - start
    assert result.exceptions == ((2, 2),)
    assert elapsed < 1.0


@criterion(3, "moduli dimensions of the two reference models")
def test_reference_dimensions():
    assert moduli_dimension(loop_quiver(2), (2,)) == 5
    assert moduli_dimension(kronecker_quiver(3), (2, 2)) == 5


@criterion(4, "Brauer-order predictions")
def test_brauer_order_predictions():
    pair_model = predict_brauer(loop_quiver(2), (0,), (2,))
    assert (pair_model.order, pair_model.status) == (2, "special-case")
    triple_model = predict_brauer(kronecker_quiver(3), (1, 0), (2, 2))
    assert (triple_model.order, triple_model.status) == (2, "special-case")
    # wherever the criterion passes, the predicted order is g(d) with theorem status
    checked = 0
    for m in (3, 4, 5):
        q = kronecker_quiver(m)
        for d in grid_box(6, 6):
            if not check_ample_stability_criterion(q, (1, 0), d).verdict:
                continue
            pred = predict_brauer(q, (1, 0), d)
            assert pred.order == gcd_of(d)
            assert pred.status == "theorem"
            checked += 1
    for m in (2, 3, 4):
        q = loop_quiver(m)
        for d0 in range(2, 7):
            if not check_ample_stability_criterion(q, (0,), (d0,)).verdict:
                continue
            pred = predict_brauer(q, (0,), (d0,))
            assert pred.order == d0
            assert pred.status == "theorem"
            checked += 1
    assert checked > 50


@criterion(5, "pair-model conic identity, sampled and symbolic")
def test_l2_conic_identity():
    start = time.perf_counter()
    rng = random.Random(1105)
    for _ in range(1000):
        a_mat = rand_mat2(rng)
        b_mat = rand_mat2(rng)
        v = (rng.randint(-10, 10), rng.randint(-10, 10))
        point = l2_invariants(a_mat, b_mat)
        x, y, z = l2_semiinvariants(a_mat, b_mat, v)
        residual = point.c * x * x + point.a * z * z - 2 * (y * y + point.b * x * z)
        assert residual == 0
        assert l2_conic(point).evaluate(x, y, z) == 0

    # independent symbolic rederivation over the matrix and vector entries
    entries = sympy.symbols("a11 a12 a21 a22 b11 b12 b21 b22 v1 v2")
    a11, a12, a21, a22, b11, b12, b21, b22, v1, v2 = entries
    A = sympy.Matrix([[a11, a12], [a21, a22]])
    B = sympy.Matrix([[b11, b12], [b21, b22]])
    v = sympy.Matrix([v1, v2])
    Ap = A - (A.trace() / 2) * sympy.eye(2)
    Bp = B - (B.trace() / 2) * sympy.eye(2)
    a = (Ap * Ap).trace()
    b = (Ap * Bp).trace()
    c = (Bp * Bp).trace()
    x = sympy.Matrix.hstack(v, A * v).det()
    y = sympy.Matrix.hstack(Ap * v, Bp * v).det()
    z = sympy.Matrix.hstack(v, B * v).det()
    residual = c * x ** 2 + a * z ** 2 - 2 * (y ** 2 + b * x * z)
    assert sympy.expand(residual) == 0
    assert time.perf_counter() - start < 5.0


@criterion(6, "triple-model conic recovered by fitting")
def test_k3_conic_correspondence():
    start = time.perf_counter()
    rng = random.Random(2211)

    def pattern_conic(p):
        # documented coefficient pattern on (x^2, xy, xz, y^2, yz, z^2):
        # (f, -e, c, d, -b, a), which is the printed pattern (f, -e, d, c, -b, a)
        # with the xz and y^2 slots exchanged
        return ConicFiber(xx=p.f, yy=p.d, zz=p.a, xy=-p.e, xz=p.c, yz=-p.b)

    fitted_count = 0
    attempts = 0
    while fitted_count < 20 and attempts < 400:
        attempts += 1
        mats = [rand_mat2(rng, -5, 5) for _ in range(3)]
        if not k3_is_stable(*mats):
            continue
        point = k3_invariants(*mats)
        fitted = fit_conic_through_semiinvariants(*mats)
        if fitted is None:
            continue
        expected = pattern_conic(point)
        # equality up to one global sign
        assert primitive(fitted.coefficients()) == primitive(expected.coefficients())
        assert expected.coefficients() == k3_conic(point).coefficients()
        fitted_count += 1
    assert fitted_count == 20

    checked = 0
    for _ in range(1000):
        mats = [rand_mat2(rng) for _ in range(3)]
        v = (rng.randint(-10, 10), rng.randint(-10, 10))
        point = k3_invariants(*mats)
        if point.is_degenerate:
            continue
        conic = k3_conic(point)
        assert conic.evaluate(*k3_semiinvariants(*mats, v)) == 0
        checked += 1
    assert checked >= 990
    assert time.perf_counter() - start < 10.0


@criterion(7, "stability oracle agreement for both models")
def test_stability_oracles():
    start = time.perf_counter()
    for entries in itertools.product((-1, 0, 1), repeat=8):
        a_mat = ((entries[0], entries[1]), (entries[2], entries[3]))
        b_mat = ((entries[4], entries[5]), (entries[6], entries[7]))
        assert l2_is_stable(a_mat, b_mat) == (burnside_dimension([a_mat, b_mat]) == 4)

    rng = random.Random(3307)
    for _ in range(500):
        mats = [rand_mat2(rng, -4, 4) for _ in range(3)]
        assert k3_is_stable(*mats) == (k3_destabilizer(*mats) is None)
    for _ in range(300):
        mats = [
            ((rng.randint(-3, 3), rng.randint(-3, 3)), (0, rng.randint(-3, 3)))
            for _ in range(3)
        ]
        assert k3_destabilizer(*mats) is not None
        assert not k3_is_stable(*mats)
    for _ in range(300):
        kernel_choice = rng.choice([(1, 1), (1, -1), (0, 1), (1, 2)])
        k1, k2 = kernel_choice

        def kernel_mat():
            # columns satisfy col1 * k1 + col2 * k2 = 0
            t, u = rng.randint(-3, 3), rng.randint(-3, 3)
            if k1 == 0:
                return ((t, 0), (u, 0))
            return ((t * k2, -t * k1), (u * k2, -u * k1))

        mats = [kernel_mat() for _ in range(3)]
        assert k3_destabilizer(*mats) is not None
        assert not k3_is_stable(*mats)
    assert time.perf_counter() - start < 60.0


@criterion(8, "Clifford suite: rank, associativity, Azumaya")
def test_clifford_suite():
    start = time.perf_counter()
    for n in (1, 3):
        even = build_clifford(standard_form(n)).even_part()
        assert even.dim == 2 ** (n + 1)

    generic = {
        0: [[1, 2], [2, -1]],
        1: [[1, 2, 0], [2, 3, 1], [0, 1, 1]],
        2: [[1, 2, 0, 1], [2, 3, 1, 0], [0, 1, 1, 2], [1, 0, 2, -1]],
    }
    for n in (0, 1, 2):
        for q in (standard_form(n), QuadraticFormB(generic[n])):
            cl = build_clifford(q)
            one = q.one()
            for s in range(cl.dim):
                for t in range(cl.dim):
                    st_prod = cl.mul_basis(s, t)
                    for u in range(cl.dim):
                        left = cl.multiply(st_prod, {u: one})
                        right = cl.multiply({s: one}, cl.mul_basis(t, u))
                        assert left == right

    rng = random.Random(4403)
    for n in (1, 3):
        size = n + 2
        for _ in range(50):
            b = [[0] * size for _ in range(size)]
            for i in range(size):
                for j in range(i, size):
                    val = rng.randint(-5, 5)
                    b[i][j] = val
                    b[j][i] = val
            q = QuadraticFormB(b)
            even = build_clifford(q).even_part()
            assert is_azumaya_over_field(even) == is_smooth_quadric(q)
    assert time.perf_counter() - start < 60.0


@criterion(9, "number theory suite: symbols, splitting, conic points")
def test_number_theory_suite():
    start = time.perf_counter()
    rng = random.Random(5501)
    for _ in range(200):
        u = Fraction(rng.choice([x for x in range(-50, 51) if x]), rng.randint(1, 20))
        v = Fraction(rng.choice([x for x in range(-50, 51) if x]), rng.randint(1, 20))
        assert math.prod(ev.value for ev in symbol_profile(u, v)) == 1

    assert not quaternion_is_split(QuaternionAlgebra(Fraction(-1), Fraction(-1)))
    assert quaternion_is_split(QuaternionAlgebra(Fraction(1), Fraction(1)))

    checked = 0
    while checked < 100:
        coeffs = [rng.randint(-8, 8) for _ in range(6)]
        conic = ConicFiber(*[Fraction(c) for c in coeffs])
        if not conic.is_nondegenerate:
            continue
        quat = quaternion_from_ternary(form_from_conic(conic))
        split = quaternion_is_split(quat)
        result = conic_has_rational_point(conic)
        assert result.solvable == split
        if split:
            x, y, z = result.witness
            assert (x, y, z) != (0, 0, 0)
            assert conic.evaluate(x, y, z) == 0
            assert math.gcd(x, math.gcd(y, z)) == 1
        else:
            assert result.witness is None
        checked += 1
    assert time.perf_counter() - start < 30.0


@criterion(10, "Hilbert polynomial of quadrics")
def test_hilbert_polynomial():
    for t in range(11):
        assert hilbert_polynomial_quadric(1, t) == 2 * t + 1
    for n in range(1, 6):
        assert hilbert_polynomial_quadric(n, 0) == 1
    # n = 0 is the disconnected two-point quadric: chi(O) = 2, not 1
    assert hilbert_polynomial_quadric(0, 0) == 2


@criterion(11, "Clifford invariant separates model points")
def test_model_point_invariants():
    nonsplit_point = L2Point(
        Fraction(-1), Fraction(0), Fraction(-1), Fraction(0), Fraction(0)
    )
    quat1, split1 = clifford_invariant_of_model_point(nonsplit_point)
    assert not split1

    split_point = L2Point(
        Fraction(0), Fraction(1), Fraction(0), Fraction(0), Fraction(0)
    )
    quat2, split2 = clifford_invariant_of_model_point(split_point)
    assert split2
    assert split1 != split2
