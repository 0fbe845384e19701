"""The integer gate of `quiver`, `stability` and `kronecker`.

Every public entry that takes an integer input accepts ints, bools and numpy
integers and returns exactly what ints give; a float, Fraction or string entry
raises ValueError naming the argument, even when it is integral-valued.
"""
from fractions import Fraction

import numpy as np
import pytest

from quivermod.kronecker import (
    kronecker_criterion_exceptions,
    kronecker_dualize,
    kronecker_inequality_trace,
    kronecker_reflect_sink,
    kronecker_reflect_source,
    loop_criterion_exceptions,
    normalize_kronecker,
)
from quivermod.quiver import (
    Quiver,
    euler_form,
    framed_bundle_relative_dimension,
    gcd_of,
    kronecker_quiver,
    linearization_weights,
    loop_quiver,
    moduli_dimension,
    slope,
)
from quivermod.stability import (
    HNType,
    check_ample_stability_criterion,
    enumerate_decompositions,
    fine_moduli_predicate,
    hn_codimension,
    hn_types,
    predict_brauer,
    strictly_semistable_wall_codim,
)

K3 = kronecker_quiver(3)


def _scan(result):
    return result.exceptions, result.scanned  # elapsed is a time


# (entry and argument, the name the error must start with, the slot's int value,
# the call with x in that slot)
CASES = [
    ("Quiver.vertex_count", "vertex_count", 1, lambda x: Quiver(x, ((2,),))),
    ("Quiver.arrows", "arrows", 1, lambda x: Quiver(1, ((x,),))),
    ("from_matrix", "arrows", 1, lambda x: Quiver.from_matrix([[0, x], [0, 0]])),
    ("loop_quiver", "m", 1, loop_quiver),
    ("kronecker_quiver", "m", 1, kronecker_quiver),
    ("euler_form.d", "d", 1, lambda x: euler_form(K3, (x, 2), (2, 1))),
    ("euler_form.e", "e", 1, lambda x: euler_form(K3, (1, 2), (2, x))),
    ("slope.theta", "theta", 1, lambda x: slope((x, 0), (1, 2))),
    ("slope.d", "d", 1, lambda x: slope((1, 0), (x, 2))),
    ("gcd_of", "d", 1, lambda x: gcd_of((x, 2))),
    ("linearization_weights", "d", 1, lambda x: linearization_weights((2, x))),
    ("moduli_dimension", "d", 1, lambda x: moduli_dimension(K3, (x, 2))),
    ("framed.d", "d", 1, lambda x: framed_bundle_relative_dimension((2, x), (1, 0))),
    ("framed.n", "n", 1, lambda x: framed_bundle_relative_dimension((2, 2), (x, 0))),
    ("enumerate_decompositions", "d", 1, lambda x: list(enumerate_decompositions((x, 2)))),
    ("criterion.theta", "theta", 1, lambda x: check_ample_stability_criterion(K3, (x, 0), (2, 2))),
    ("criterion.d", "d", 2, lambda x: check_ample_stability_criterion(K3, (1, 0), (x, 2))),
    ("hn_types.max_parts", "max_parts", 1, lambda x: hn_types(K3, (1, 0), (2, 2), max_parts=x)),
    ("hn_types.d", "d", 1, lambda x: hn_types(K3, (1, 0), (x, 2))),
    ("hn_codimension", "d", 1, lambda x: hn_codimension(K3, HNType(((x, 0), (1, 2))))),
    ("wall.theta", "theta", 1, lambda x: strictly_semistable_wall_codim(K3, (x, 0), (2, 2))),
    ("predict_brauer.d", "d", 2, lambda x: predict_brauer(K3, (1, 0), (x, 2))),
    ("predict_brauer.theta", "theta", 1, lambda x: predict_brauer(K3, (x, 0), (2, 2))),
    ("fine_moduli_predicate", "d", 1, lambda x: fine_moduli_predicate((x, 2))),
    ("reflect_source.m", "m", 1, lambda x: kronecker_reflect_source(x, (1, 2))),
    ("reflect_source.d", "d", 1, lambda x: kronecker_reflect_source(3, (x, 2))),
    ("reflect_sink.m", "m", 3, lambda x: kronecker_reflect_sink(x, (1, 2))),
    ("reflect_sink.d", "d", 1, lambda x: kronecker_reflect_sink(3, (x, 2))),
    ("dualize", "d", 1, lambda x: kronecker_dualize((x, 2))),
    ("normalize.m", "m", 3, lambda x: normalize_kronecker(x, (3, 5))),
    ("normalize.d", "d", 1, lambda x: normalize_kronecker(3, (x, 2))),
    ("loop_scan.m_range", "m_range", 2, lambda x: _scan(loop_criterion_exceptions([x, 3], [2, 3]))),
    ("loop_scan.d_range", "d_range", 2, lambda x: _scan(loop_criterion_exceptions([2, 3], [x, 3]))),
    ("kronecker_scan.m_range", "m_range", 3,
     lambda x: _scan(kronecker_criterion_exceptions([x, 4], [(2, 2), (1, 3)]))),
    ("kronecker_scan.box", "box cell", 1,
     lambda x: _scan(kronecker_criterion_exceptions([3, 4], [(2, 2), (x, 3)]))),
    ("trace.m", "m", 3, lambda x: kronecker_inequality_trace(x, (2, 2), (1, 1))),
    ("trace.d", "d", 2, lambda x: kronecker_inequality_trace(3, (x, 2), (1, 1))),
    ("trace.e", "e", 1, lambda x: kronecker_inequality_trace(3, (2, 2), (x, 1))),
]
IDS = [case[0] for case in CASES]


@pytest.mark.parametrize("entry, name, value, call", CASES, ids=IDS)
def test_integer_gate(entry, name, value, call):
    expected = repr(call(value))
    assert repr(call(np.int64(value))) == expected
    if value in (0, 1):
        assert repr(call(bool(value))) == expected
    for bad in (float(value), Fraction(value), str(value), value + 0.5, Fraction(2 * value + 1, 2)):
        with pytest.raises(ValueError) as err:
            call(bad)
        assert str(err.value).startswith(f"{name}: expected an integer, got ")


@pytest.mark.parametrize("call, name", [
    (lambda: check_ample_stability_criterion(kronecker_quiver(3), (1, 0), (2.5, 2)), "d"),
    (lambda: euler_form(loop_quiver(2.5), (2,), (2,)), "m"),
    (lambda: hn_types(kronecker_quiver(3), (1, 0), (3, 3), max_parts=2.5), "max_parts"),
    (lambda: normalize_kronecker(3.5, (3, 5)), "m"),
    (lambda: Quiver(1, ((1.5,),)), "arrows"),
], ids=["criterion", "euler_form", "hn_types", "normalize", "Quiver"])
def test_non_integers_are_refused_not_truncated(call, name):
    with pytest.raises(ValueError, match=f"^{name}: expected an integer, got "):
        call()


def test_kronecker_pair_of_wrong_length_is_a_value_error():
    with pytest.raises(ValueError, match="^d has 1 entries"):
        normalize_kronecker(3, (1,))


@pytest.mark.parametrize("q, theta, d", [
    (kronecker_quiver(3), [1, 0], [2, 2]),
    (kronecker_quiver(3), np.array([1, 0]), np.array([2, 2])),
    (loop_quiver(2), [0], [2]),
    (loop_quiver(2), np.array([0]), np.array([2])),
], ids=["kronecker-list", "kronecker-numpy", "loop-list", "loop-numpy"])
def test_predict_brauer_special_cases_from_lists_and_arrays(q, theta, d):
    prediction = predict_brauer(q, theta, d)
    assert (prediction.order, prediction.status) == (2, "special-case")
