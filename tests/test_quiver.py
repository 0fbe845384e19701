import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from quivermod.cli import main
from quivermod.quiver import (
    Quiver,
    _bezout_min,
    euler_form,
    framed_bundle_relative_dimension,
    gcd_of,
    kronecker_quiver,
    linearization_weights,
    load_quiver,
    loop_quiver,
    moduli_dimension,
    parse_quiver,
    slope,
)


def small_quivers(max_vertices=3, max_mult=3):
    def build(k, flat):
        rows = [flat[i * k:(i + 1) * k] for i in range(k)]
        return Quiver.from_matrix(rows)

    return st.integers(1, max_vertices).flatmap(
        lambda k: st.lists(
            st.integers(0, max_mult), min_size=k * k, max_size=k * k
        ).map(lambda flat: build(k, flat))
    )


def dim_vectors(q, max_entry=5, min_total=0):
    return st.lists(
        st.integers(0, max_entry), min_size=q.vertex_count, max_size=q.vertex_count
    ).map(tuple).filter(lambda d: sum(d) >= min_total)


class TestQuiverConstruction:
    def test_loop_and_kronecker_shapes(self):
        assert loop_quiver(2).arrows == ((2,),)
        assert kronecker_quiver(3).arrows == ((0, 3), (0, 0))
        assert loop_quiver(0).arrows == ((0,),)

    def test_validation(self):
        with pytest.raises(ValueError):
            Quiver(0, ())
        with pytest.raises(ValueError):
            Quiver(2, ((0, 1),))
        with pytest.raises(ValueError):
            Quiver(1, ((-1,),))
        with pytest.raises(ValueError):
            loop_quiver(-1)
        with pytest.raises(ValueError):
            kronecker_quiver(-2)


class TestQuiverTextFormat:
    def test_parse_basic(self):
        q = parse_quiver("vertices 2\narrow 0 1 3\n")
        assert q == kronecker_quiver(3)

    def test_comments_blank_lines_and_accumulation(self):
        text = """
        # a two vertex quiver
        vertices 2

        arrow 0 1 1
        arrow 0 1 2
        """
        assert parse_quiver(text) == kronecker_quiver(3)

    @pytest.mark.parametrize(
        "text",
        [
            "arrow 0 0 1\n",                      # missing vertices line
            "vertices 1\nvertices 1\n",           # duplicate
            "vertices 1\nedge 0 0 1\n",           # unknown directive
            "vertices 1\narrow 0 1 1\n",          # out of range
            "vertices 1\narrow 0 0 -1\n",         # negative multiplicity
            "vertices 0\n",                       # no vertices
            "vertices 1\narrow 0 0\n",            # malformed arrow
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_quiver(text)

    @pytest.mark.parametrize("text, message", [
        ("vertices 2\narrow 0 1 x\n", "line 2: expected an integer, got 'x'"),
        ("# header\nvertices two\n", "line 2: expected an integer, got 'two'"),
        ("vertices 2\n\narrow 0 1.5 1\n", "line 3: expected an integer, got '1.5'"),
    ])
    def test_parse_error_names_the_line(self, text, message):
        with pytest.raises(ValueError) as exc:
            parse_quiver(text)
        assert str(exc.value) == message

    def test_parse_error_exits_two_on_the_command_line(self, capsys, tmp_path):
        path = tmp_path / "bad.q"
        path.write_text("vertices 2\narrow 0 1 x\n")
        assert main(["dim", "--quiver", str(path), "--d", "1,1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 2: expected an integer, got 'x'\n"

    @given(small_quivers())
    def test_round_trip(self, q):
        assert parse_quiver(q.to_text()) == q

    def test_load_shorthands_and_file(self, tmp_path):
        assert load_quiver("loop:4") == loop_quiver(4)
        assert load_quiver("kronecker:5") == kronecker_quiver(5)
        path = tmp_path / "k3.q"
        path.write_text(kronecker_quiver(3).to_text())
        assert load_quiver(str(path)) == kronecker_quiver(3)


class TestEulerForm:
    def test_frozen_values(self):
        k3 = kronecker_quiver(3)
        assert euler_form(k3, (2, 2), (2, 2)) == -4
        assert euler_form(k3, (1, 0), (0, 1)) == -3
        assert euler_form(k3, (0, 1), (1, 0)) == 0
        # loop with m arrows: <d, e> = (1 - m) d e
        assert euler_form(loop_quiver(2), (2,), (2,)) == -4
        assert euler_form(loop_quiver(1), (5,), (7,)) == 0

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            euler_form(kronecker_quiver(3), (1,), (1, 1))
        with pytest.raises(ValueError):
            euler_form(kronecker_quiver(3), (1, -1), (1, 1))

    @pytest.mark.parametrize("d, e, message", [
        ((1,), (1, 1), "d has 1 entries, quiver has 2 vertices"),
        ((1, 1), (1, 1, 0), "e has 3 entries, quiver has 2 vertices"),
        ((1, -1), (1, 1), "d entries must be nonnegative"),
        ((1, 1), (-2, 0), "e entries must be nonnegative"),
        (("1", "x"), (1, 1), "d: expected an integer, got '1'"),
    ])
    def test_dimension_errors_name_the_vector(self, d, e, message):
        with pytest.raises(ValueError) as err:
            euler_form(kronecker_quiver(3), d, e)
        assert str(err.value) == message

    @given(st.data())
    def test_bilinearity(self, data):
        q = data.draw(small_quivers())
        d1 = data.draw(dim_vectors(q))
        d2 = data.draw(dim_vectors(q))
        e = data.draw(dim_vectors(q))
        lhs = euler_form(q, tuple(a + b for a, b in zip(d1, d2)), e)
        assert lhs == euler_form(q, d1, e) + euler_form(q, d2, e)
        rhs = euler_form(q, e, tuple(a + b for a, b in zip(d1, d2)))
        assert rhs == euler_form(q, e, d1) + euler_form(q, e, d2)


class TestSlopeAndGcd:
    def test_frozen_values(self):
        assert slope((1, 0), (2, 2)) == Fraction(1, 2)
        assert slope((0,), (5,)) == 0
        assert slope((-2, 3), (1, 1)) == Fraction(1, 2)

    def test_zero_vector_errors(self):
        with pytest.raises(ValueError):
            slope((1, 0), (0, 0))
        with pytest.raises(ValueError):
            gcd_of((0, 0))
        with pytest.raises(ValueError):
            gcd_of(())

    @given(
        st.lists(st.integers(-5, 5), min_size=1, max_size=4),
        st.integers(-4, 4),
        st.integers(1, 4),
    )
    def test_slope_shift_and_scale(self, theta, c, k):
        d = tuple(abs(t) + 1 for t in theta)  # nonzero, matching length
        base = slope(theta, d)
        shifted = slope(tuple(t + c for t in theta), d)
        assert shifted == base + c
        assert slope(tuple(k * t for t in theta), d) == k * base

    def test_gcd(self):
        assert gcd_of((4, 6)) == 2
        assert gcd_of((5,)) == 5
        assert gcd_of((0, 7)) == 7


class TestLinearizationWeights:
    @pytest.mark.parametrize(
        "d, expected",
        [
            ((2, 3), (-1, 1)),
            ((1, 0), (1, 0)),
            ((0, 3, 2), (0, 1, -1)),
            ((6, 10, 15), (-14, 7, 1)),
            ((1,), (1,)),
        ],
    )
    def test_frozen_values(self, d, expected):
        assert linearization_weights(d) == expected

    def test_requires_coprimality(self):
        with pytest.raises(ValueError):
            linearization_weights((2, 4))
        with pytest.raises(ValueError):
            linearization_weights((0, 0))

    @given(st.lists(st.integers(0, 30), min_size=1, max_size=5))
    def test_dot_product_is_one(self, d):
        if all(x == 0 for x in d) or gcd_of(d) != 1:
            return
        w = linearization_weights(d)
        assert sum(a * b for a, b in zip(w, d)) == 1

    @given(st.integers(1, 300), st.integers(0, 300))
    def test_bezout_min_matches_brute_force(self, g, di):
        g2 = gcd_of((g, di))
        candidates = [y for y in range(-g, g + 1) if (g2 - y * di) % g == 0]
        best = min(candidates, key=lambda y: (abs(y), y <= 0))
        assert _bezout_min(g, di) == (g2, (g2 - best * di) // g, best)

    def test_bezout_min_ties_take_positive_y(self):
        # y = 1 and y = -1 both solve these: g / gcd(g, di) = 2
        assert _bezout_min(2, 1) == (1, 0, 1)
        assert _bezout_min(6, 3) == (3, 0, 1)
        assert _bezout_min(10, 15) == (5, -1, 1)


class TestDimensions:
    def test_moduli_dimension_frozen(self):
        assert moduli_dimension(loop_quiver(2), (2,)) == 5
        assert moduli_dimension(kronecker_quiver(3), (2, 2)) == 5
        assert moduli_dimension(kronecker_quiver(3), (1, 1)) == 2

    def test_moduli_dimension_zero_vector(self):
        with pytest.raises(ValueError):
            moduli_dimension(loop_quiver(2), (0,))

    def test_framed_relative_dimension(self):
        assert framed_bundle_relative_dimension((2, 2), (1, 0)) == 1
        assert framed_bundle_relative_dimension((2,), (3,)) == 5
        with pytest.raises(ValueError):
            framed_bundle_relative_dimension((2, 2), (0, 0))
        with pytest.raises(ValueError):
            framed_bundle_relative_dimension((2,), (1, 1))


class TestArrowList:
    @given(st.data())
    def test_euler_form_matches_the_matrix_sum(self, data):
        q = data.draw(small_quivers())
        d = data.draw(dim_vectors(q))
        e = data.draw(dim_vectors(q))
        k = q.vertex_count
        expected = sum(d[i] * e[i] for i in range(k)) - sum(
            q.arrows[i][j] * d[i] * e[j] for i in range(k) for j in range(k)
        )
        assert euler_form(q, d, e) == expected

    def test_is_not_a_field(self):
        import dataclasses
        import pickle

        q = Quiver.from_matrix([[0, 3], [1, 0]])
        assert q._arrow_list == ((0, 1, 3), (1, 0, 1))
        assert [f.name for f in dataclasses.fields(q)] == ["vertex_count", "arrows"]
        assert repr(q) == "Quiver(vertex_count=2, arrows=((0, 3), (1, 0)))"
        assert q == Quiver(2, ((0, 3), (1, 0)))
        assert hash(q) == hash(Quiver(2, ((0, 3), (1, 0))))
        assert q.to_text() == "vertices 2\narrow 0 1 3\narrow 1 0 1\n"
        copy = pickle.loads(pickle.dumps(q))
        assert copy == q and copy._arrow_list == q._arrow_list
