import math
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from quivermod.cli import _fmt, main
from quivermod.clifford import form_from_conic
from quivermod.hilbert import hilbert_symbol
from quivermod.kronecker import ScanResult
from quivermod.models import ConicFiber


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


class TestInvariantCommands:
    def test_euler(self, capsys):
        code, out, _ = run(capsys, ["euler", "--quiver", "kronecker:3", "--d", "2,2", "--e", "2,2"])
        assert code == 0
        assert out == ["-4"]

    def test_slope_prints_exact_rational(self, capsys):
        code, out, _ = run(capsys, ["slope", "--theta", "1,0", "--d", "2,2"])
        assert code == 0
        assert out == ["1/2"]
        assert Fraction(out[0]) == Fraction(1, 2)

    def test_slope_integer_prints_bare(self, capsys):
        code, out, _ = run(capsys, ["slope", "--theta", "2,0", "--d", "1,1"])
        assert code == 0
        assert out == ["1"]

    def test_gcd(self, capsys):
        code, out, _ = run(capsys, ["gcd", "--d", "6,10,15"])
        assert code == 0
        assert out == ["1"]

    def test_weights(self, capsys):
        code, out, _ = run(capsys, ["weights", "--d", "6,10,15"])
        assert code == 0
        assert out == ["-14\t7\t1"]

    def test_dim_moduli(self, capsys):
        code, out, _ = run(capsys, ["dim", "--quiver", "loop:2", "--d", "2"])
        assert code == 0
        assert out == ["5"]

    def test_dim_framed(self, capsys):
        code, out, _ = run(capsys, ["dim", "--quiver", "kronecker:3", "--d", "2,2",
                                    "--framing", "1,0"])
        assert code == 0
        assert out == ["1"]

    def test_fine(self, capsys):
        code, out, _ = run(capsys, ["fine", "--d", "2,3"])
        assert code == 0
        assert out[0] == "fine\ttrue"
        code, out, _ = run(capsys, ["fine", "--d", "2,2"])
        assert out[0] == "fine\tfalse"


class TestStabilityCommands:
    def test_amply_stable_pass(self, capsys):
        code, out, _ = run(capsys, ["amply-stable", "--quiver", "kronecker:3",
                                    "--theta", "1,0", "--d", "2,3"])
        assert code == 0
        assert out == ["verdict\tpass", "max_pairing\t-3"]

    def test_amply_stable_fail_prints_witness(self, capsys):
        code, out, _ = run(capsys, ["amply-stable", "--quiver", "kronecker:3",
                                    "--theta", "1,0", "--d", "2,2"])
        assert code == 0
        assert out == ["verdict\tfail", "witness\t1,1\t1,1", "max_pairing\t-1"]

    def test_hn(self, capsys):
        code, out, _ = run(capsys, ["hn", "--quiver", "kronecker:3",
                                    "--theta", "1,0", "--d", "2,2"])
        assert code == 0
        assert out == [
            "1,0|1,1|0,1\t7",
            "1,0|1,2\t5",
            "2,0|0,2\t12",
            "2,1|0,1\t5",
            "2,2\t0",
        ]

    def test_hn_max_parts(self, capsys):
        code, out, _ = run(capsys, ["hn", "--quiver", "kronecker:3",
                                    "--theta", "1,0", "--d", "2,2", "--max-parts", "1"])
        assert code == 0
        assert out == ["2,2\t0"]

    def test_wall(self, capsys):
        code, out, _ = run(capsys, ["wall", "--quiver", "kronecker:3",
                                    "--theta", "1,0", "--d", "2,2"])
        assert code == 0
        assert out == ["codim\t1"]

    def test_wall_none_for_coprime(self, capsys):
        code, out, _ = run(capsys, ["wall", "--quiver", "kronecker:3",
                                    "--theta", "1,0", "--d", "2,3"])
        assert code == 0
        assert out == ["codim\tnone"]

    def test_brauer_special_case(self, capsys):
        code, out, _ = run(capsys, ["brauer", "--quiver", "kronecker:3",
                                    "--theta", "1,0", "--d", "2,2"])
        assert code == 0
        assert out == ["order\t2\tstatus\tspecial-case"]

    def test_brauer_theorem_case(self, capsys):
        code, out, _ = run(capsys, ["brauer", "--quiver", "kronecker:3",
                                    "--theta", "1,0", "--d", "3,3"])
        assert code == 0
        assert out == ["order\t3\tstatus\ttheorem"]


class TestVerifyCommands:
    def test_verify_loop_match(self, capsys):
        code, out, _ = run(capsys, ["verify-loop", "--m-max", "4", "--d-max", "6"])
        assert code == 0
        assert out == ["exception\t2\t2", "exceptions\t1\texpected\t1\tMATCH"]

    def test_verify_kronecker_match(self, capsys):
        code, out, _ = run(capsys, ["verify-kronecker", "--m-max", "4", "--d-max", "5"])
        assert code == 0
        assert out == ["exception\t3\t2,2", "exceptions\t1\texpected\t1\tMATCH"]

    @pytest.mark.parametrize("command", ["verify-loop", "verify-kronecker"])
    def test_workers_flag_is_a_usage_error(self, capsys, command):
        code, out, err = run(capsys, [command, "--workers", "1"])
        assert code == 2
        assert out == [] and "unrecognized arguments: --workers 1" in err

    def test_verify_loop_mismatch_exits_one(self, capsys, monkeypatch):
        def fake(m_range, d_range, workers=None):
            return ScanResult(exceptions=((2, 2), (3, 5)), scanned=0, elapsed=0.0)

        monkeypatch.setattr("quivermod.cli.loop_criterion_exceptions", fake)
        code, out, _ = run(capsys, ["verify-loop", "--m-max", "4", "--d-max", "6"])
        assert code == 1
        assert out[-1] == "exceptions\t2\texpected\t1\tMISMATCH"

    def test_verify_kronecker_mismatch_exits_one(self, capsys, monkeypatch):
        def fake(m_range, box, workers=None):
            return ScanResult(exceptions=(), scanned=0, elapsed=0.0)

        monkeypatch.setattr("quivermod.cli.kronecker_criterion_exceptions", fake)
        code, out, _ = run(capsys, ["verify-kronecker", "--m-max", "4", "--d-max", "5"])
        assert code == 1
        assert out[-1] == "exceptions\t0\texpected\t1\tMISMATCH"


class TestModelCommands:
    def test_l2(self, capsys):
        code, out, _ = run(capsys, ["l2", "--A", "0,1,1,0", "--B", "1,0,0,-1",
                                    "--v", "1,0"])
        assert code == 0
        assert out == [
            "invariants\t2\t0\t2\t0\t0",
            "stable\ttrue",
            "conic\t2\t-2\t2\t0\t0\t0",
            "semiinvariants\t1\t-1\t0",
        ]

    def test_k3(self, capsys):
        code, out, _ = run(capsys, ["k3", "--A", "1,0,0,1", "--B", "1,0,0,-1",
                                    "--C", "0,1,1,0", "--v", "1,0"])
        assert code == 0
        assert out == [
            "invariants\t1\t0\t0\t-1\t0\t-1",
            "stable\ttrue",
            "conic\t-1\t-1\t1\t0\t0\t0",
            "semiinvariants\t0\t1\t1",
        ]

    def test_l2_rational_entries(self, capsys):
        code, out, _ = run(capsys, ["l2", "--A", "1/2,0,0,-1/2", "--B", "0,1,0,0"])
        assert code == 0
        assert out[0].startswith("invariants\t1/2\t")


class TestAlgebraCommands:
    def test_clifford(self, capsys):
        code, out, _ = run(capsys, ["clifford", "--b", "0,1,0,1,0,0,0,0,1"])
        assert code == 0
        assert out == [
            "dimension\t8",
            "smooth\ttrue",
            "even_rank\t4",
            "azumaya\ttrue",
        ]

    def test_clifford_char(self, capsys):
        code, out, _ = run(capsys, ["clifford", "--b", "0,1,0,1,0,0,0,0,1",
                                    "--char", "2"])
        assert code == 0
        assert out[1] == "smooth\ttrue" and out[3] == "azumaya\ttrue"

    def test_hilbert_negative_args_need_separator(self, capsys):
        code, out, _ = run(capsys, ["hilbert", "--", "-1", "-1"])
        assert code == 0
        assert out == ["place\treal\t-1", "place\t2\t-1", "split\tfalse"]

    def test_hilbert_split(self, capsys):
        code, out, _ = run(capsys, ["hilbert", "1", "1"])
        assert code == 0
        assert out == ["place\treal\t1", "place\t2\t1", "split\ttrue"]

    def test_conic_solvable(self, capsys):
        code, out, _ = run(capsys, ["conic", "--", "1", "1", "-1", "0", "0", "0"])
        assert code == 0
        assert out == ["solvable\ttrue", "witness\t1\t0\t1"]

    def test_conic_unsolvable(self, capsys):
        code, out, _ = run(capsys, ["conic", "--", "1", "1", "-3", "0", "0", "0"])
        assert code == 0
        assert out == ["solvable\tfalse"]

    def test_conic_seven_digit_primes(self, capsys):
        code, out, _ = run(capsys, ["conic", "--", "8388617", "8389651", "-8390623", "0", "0", "0"])
        assert code == 0
        assert out == ["solvable\tfalse"]
        code, out, _ = run(capsys, ["conic", "--", "8391623", "-8392619", "-8393629", "0", "0", "0"])
        assert code == 0
        assert out[0] == "solvable\ttrue"
        x, y, z = map(int, out[1].split("\t")[1:])
        assert 8391623 * x * x - 8392619 * y * y - 8393629 * z * z == 0 and (x, y, z) != (0, 0, 0)

    def test_hilbpoly(self, capsys):
        code, out, _ = run(capsys, ["hilbpoly", "--n", "1", "--t", "3"])
        assert code == 0
        assert out == ["7"]

    def test_hilbpoly_large_n(self, capsys):
        start = time.perf_counter()
        code, out, _ = run(capsys, ["hilbpoly", "--n", "200000", "--t", "3"])
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert out == ["1333393334000002"]

    def test_output_beyond_the_digit_limit_is_a_capacity_error(self, capsys):
        # the answer has more digits than str() may make of an int
        code, out, err = run(capsys, ["hilbpoly", "--n", "20000", "--t", "20000"])
        assert code == 2
        assert out == []
        limit = sys.get_int_max_str_digits()
        assert err == f"error: capacity: output has more than {limit} digits\n"

    def test_fraction_beyond_the_digit_limit_is_a_capacity_error(self):
        with pytest.raises(ValueError, match="^capacity: "):
            _fmt(Fraction(10 ** (sys.get_int_max_str_digits() + 1), 3))

    def test_hilbert_factors_numerator_and_denominator_apart(self, capsys):
        # n d = 70368693845881 is beyond the factoring capacity; n and d are not
        code, out, _ = run(capsys, ["hilbert", "--", "8388617/8388593", "3"])
        assert code == 0
        assert out == [
            "place\treal\t1", "place\t2\t1", "place\t3\t1",
            "place\t8388593\t-1", "place\t8388617\t-1", "split\tfalse",
        ]

    def test_conic_rational_unsolvable(self, capsys):
        argv = ["-6564", "8653/1000", "-5694/97", "6384", "-1174", "740"]
        code, out, _ = run(capsys, ["conic", "--", *argv])
        assert code == 0
        assert out == ["solvable\tfalse"]
        # cross-check: the symbol (-alpha gamma, -beta gamma) of the diagonal is
        # -1 at some place among the primes of its numerators and denominators
        c = [Fraction(x) for x in argv]
        alpha, beta, gamma = form_from_conic(ConicFiber(*c)).diagonalize()[0]
        primes = set()
        for x in (alpha, beta, gamma):
            primes |= set(sympy.factorint(x.numerator * x.denominator)) - {-1}
        symbols = [hilbert_symbol(-alpha * gamma, -beta * gamma, place)
                   for place in ["real", 2, *sorted(primes - {2})]]
        assert -1 in symbols and math.prod(symbols) == 1

    def test_conic_rational_witness(self, capsys):
        argv = ["6499/1000", "-799/100", "5469", "-3617/1000", "-3206/97", "6113/97"]
        code, out, _ = run(capsys, ["conic", "--", *argv])
        assert code == 0
        assert out[0] == "solvable\ttrue" and len(out) == 2
        witness = [int(t) for t in out[1].split("\t")[1:]]
        assert ConicFiber(*[Fraction(x) for x in argv]).evaluate(*witness) == 0
        assert math.gcd(*witness) == 1

    # N = 8388617 * 8388593 is beyond the factoring capacity, but its primes
    # are not: a shared denominator divides out of the form, and the others
    # are split by gcds before anything is factored
    @pytest.mark.parametrize("argv, expected", [
        (["1/70368693845881", "1/70368693845881", "-1/70368693845881", "0", "0", "0"],
         ["solvable\ttrue", "witness\t1\t0\t1"]),
        (["1/70368693845881", "6/8388617", "-6/8388593", "0", "0", "0"],
         ["solvable\ttrue", "witness\t12\t-1\t-1"]),
        (["1/70368693845881", "1/8388617", "-1/8388593", "0", "0", "0"],
         ["solvable\tfalse"]),
    ])
    def test_conic_shared_large_denominators(self, capsys, argv, expected):
        code, out, _ = run(capsys, ["conic", "--", *argv])
        assert code == 0
        assert out == expected
        if out[0] == "solvable\ttrue":
            witness = [int(t) for t in out[1].split("\t")[1:]]
            assert ConicFiber(*[Fraction(x) for x in argv]).evaluate(*witness) == 0


class TestQuiverFiles:
    def test_file_based_quiver(self, capsys, tmp_path):
        path = tmp_path / "three_arrows.quiver"
        path.write_text("# two vertices, three parallel arrows\nvertices 2\narrow 0 1 3\n")
        code, out, _ = run(capsys, ["euler", "--quiver", str(path), "--d", "2,2", "--e", "2,2"])
        assert code == 0
        assert out == ["-4"]

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, ["euler", "--quiver", str(tmp_path / "nope"),
                                      "--d", "1", "--e", "1"])
        assert code == 2
        assert err.startswith("error:")

    def test_directory_exits_two(self, capsys, tmp_path):
        code, out, err = run(capsys, ["euler", "--quiver", str(tmp_path), "--d", "1", "--e", "1"])
        assert code == 2
        assert out == [] and err.startswith("error:")


class TestErrorHandling:
    def test_no_subcommand(self, capsys):
        assert main([]) == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert main(["gcd", "--nope", "1"]) == 2
        capsys.readouterr()

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_bad_integers(self, capsys):
        code, _, err = run(capsys, ["gcd", "--d", "2,x"])
        assert code == 2
        assert "error:" in err

    def test_wrong_matrix_arity(self, capsys):
        code, _, err = run(capsys, ["l2", "--A", "1,2,3", "--B", "1,0,0,1"])
        assert code == 2
        assert "needs 4 entries" in err

    def test_weights_need_coprime(self, capsys):
        code, _, err = run(capsys, ["weights", "--d", "2,4"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("exc", [RuntimeError("no zero"), AssertionError("bad witness")])
    def test_internal_failure_exits_three(self, capsys, monkeypatch, exc):
        def broken(conic):
            raise exc

        monkeypatch.setattr("quivermod.cli.conic_has_rational_point", broken)
        code, out, err = run(capsys, ["conic", "--", "1", "1", "-1", "0", "0", "0"])
        assert code == 3
        assert out == [] and err == f"internal error: {exc}\n"

    def test_degenerate_conic_domain_error(self, capsys):
        code, _, err = run(capsys, ["conic", "1", "0", "0", "0", "0", "0"])
        assert code == 2
        assert "degenerate" in err

    @pytest.mark.parametrize("argv", [
        ["--b=-3,4,-4,4,-4,8,-4,8,-4", "--char", "4294967311"],
        ["--b", "1", "--char", "18446744073709551629"],
    ])
    def test_clifford_characteristic_above_bound(self, capsys, argv):
        code, out, err = run(capsys, ["clifford", *argv])
        assert code == 2
        assert out == [] and err.startswith("error:") and "2^31" in err

    @pytest.mark.parametrize("argv", [
        ["k3", "--A", "0,0,0,0", "--B", "0,0,0,0", "--C", "0,0,0,0"],
        ["l2", "--A", "1,0,0,1", "--B", "0,1,0,0", "--v", "1,2,3"],
        # an even part of dimension 128 exceeds the capacity before its table is built
        ["clifford", "--b", ",".join("1" if i % 9 == 0 else "0" for i in range(64))],
    ])
    def test_domain_error_leaves_stdout_empty(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == [] and err.startswith("error:")

    def test_clifford_capacity_before_the_table(self):
        # 12 variables: the capacity error comes before the even part's
        # 2048^3 table, which would take hours to build
        root = Path(__file__).resolve().parents[1]
        b = ",".join("1" if i % 13 == 0 else "0" for i in range(144))
        out = subprocess.run(
            [sys.executable, "-m", "quivermod.cli", "clifford", f"--b={b}"],
            capture_output=True, text=True, timeout=10,
            env=dict(os.environ, PYTHONPATH=str(root / "src")),
        )
        assert out.returncode == 2 and out.stdout == ""
        assert out.stderr == "error: capacity: algebra dimension 2048 exceeds 64\n"

    def test_clifford_non_square_entry_count(self, capsys):
        code, _, err = run(capsys, ["clifford", "--b", "1,2,3"])
        assert code == 2
        assert "square number" in err

    def test_dimension_mismatch(self, capsys):
        code, _, err = run(capsys, ["euler", "--quiver", "loop:2", "--d", "1,2", "--e", "1"])
        assert code == 2
        assert "error:" in err

    @pytest.mark.parametrize("command", ["amply-stable", "wall", "hn", "brauer"])
    def test_vectors_longer_than_the_quiver(self, capsys, command):
        code, out, err = run(capsys, [command, "--quiver", "kronecker:3",
                                      "--theta", "1,0,0", "--d", "1,0,0"])
        assert code == 2
        assert out == [] and "3 entries, quiver has 2 vertices" in err

    @pytest.mark.parametrize("argv", [
        ["verify-kronecker", "--m-max", "2"],
        ["verify-kronecker", "--d-max", "0"],
        ["verify-loop", "--m-max", "1"],
        ["verify-loop", "--d-max", "1"],
    ])
    def test_empty_scan_exits_two(self, capsys, argv):
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == [] and "nonempty" in err


class TestCaseAnalysisScript:
    ROOT = Path(__file__).resolve().parents[1]

    def script(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(self.ROOT / "src"))
        return subprocess.run(
            [sys.executable, str(self.ROOT / "scripts" / "reproduce_case_analysis.py"), *argv],
            capture_output=True, text=True, env=env,
        )

    def test_small_grid_without_the_exception_matches(self):
        # the grid [1, 1]^2 holds no exceptional cell, as verify-kronecker agrees
        out = self.script("--kronecker-d-max", "1")
        assert out.returncode == 0 and "UNEXPECTED" not in out.stderr
        assert "  exception: m = 3" not in out.stdout
        assert main(["verify-kronecker", "--d-max", "1"]) == 0

    def test_workers_flag_is_a_usage_error(self):
        out = self.script("--workers", "1")
        assert out.returncode == 2 and out.stdout == ""
        assert "unrecognized arguments: --workers 1" in out.stderr

    def test_empty_range_is_one_error_line(self):
        out = self.script("--kronecker-m-max", "2")
        assert out.returncode == 2
        assert out.stderr == "error: kronecker scan needs a nonempty m-range and box\n"
        assert out.stdout == ""


# one valid and one malformed argv per subcommand (a bad number token or a
# vector of the wrong length), for the exit-code contract
CONTRACT = {
    "euler": (["--quiver", "kronecker:3", "--d", "2,2", "--e", "2,2"],
              ["--quiver", "kronecker:3", "--d", "2,x", "--e", "2,2"]),
    "slope": (["--theta", "1,0", "--d", "2,2"], ["--theta", "1,0", "--d", "2,2,2"]),
    "gcd": (["--d", "6,10,15"], ["--d", "6,1.5"]),
    "weights": (["--d", "6,10,15"], ["--d", "6,,15"]),
    "dim": (["--quiver", "loop:2", "--d", "2"], ["--quiver", "loop:2", "--d", "2,2"]),
    "amply-stable": (["--quiver", "kronecker:3", "--theta", "1,0", "--d", "2,3"],
                     ["--quiver", "kronecker:3", "--theta", "1,0", "--d", "2"]),
    "hn": (["--quiver", "kronecker:3", "--theta", "1,0", "--d", "2,2"],
           ["--quiver", "kronecker:3", "--theta", "1,0", "--d", "2,2", "--max-parts", "two"]),
    "wall": (["--quiver", "kronecker:3", "--theta", "1,0", "--d", "2,2"],
             ["--quiver", "kronecker:3", "--theta", "1,y", "--d", "2,2"]),
    "brauer": (["--quiver", "kronecker:3", "--theta", "1,0", "--d", "3,3"],
               ["--quiver", "kronecker:3", "--theta", "1,0", "--d", "3,3,3"]),
    "fine": (["--d", "2,3"], ["--d", "2,3e"]),
    "verify-loop": (["--m-max", "3", "--d-max", "4"], ["--m-max", "x"]),
    "verify-kronecker": (["--m-max", "3", "--d-max", "3"], ["--d-max", "1.5"]),
    "l2": (["--A", "0,1,1,0", "--B", "1,0,0,-1"], ["--A", "0,1,1", "--B", "1,0,0,-1"]),
    "k3": (["--A", "1,0,0,1", "--B", "1,0,0,-1", "--C", "0,1,1,0"],
           ["--A", "1,0,0,1", "--B", "1,0,0,-1", "--C", "0,1,1,z"]),
    "clifford": (["--b", "0,1,0,1,0,0,0,0,1"], ["--b", "0,1,0,1,0,0,0,0"]),
    "hilbert": (["1", "1"], ["1", "1/0"]),
    "conic": (["--", "1", "1", "-1", "0", "0", "0"], ["--", "1", "1", "-1", "0", "0"]),
    "hilbpoly": (["--n", "1", "--t", "3"], ["--n", "1", "--t", "3.0"]),
}


def test_contract_covers_every_subcommand():
    from quivermod.cli import _build_parser

    subparsers = next(a for a in _build_parser()._actions if a.dest == "command")
    assert sorted(CONTRACT) == sorted(subparsers.choices)


@pytest.mark.parametrize("command", sorted(CONTRACT))
@pytest.mark.parametrize("kind", ["valid", "malformed"])
def test_exit_code_contract(capsys, command, kind):
    argv = [command, *CONTRACT[command][kind == "malformed"]]
    code, out, err = run(capsys, argv)
    assert code == (0 if kind == "valid" else 2)
    assert "Traceback" not in err
    if code:
        assert out == []
        last = err.splitlines()[-1]
        assert last.startswith("error:") or (
            last.startswith("quivermod") and ": error:" in last
        ), last


@pytest.mark.parametrize("argv, token", [
    (["hilbert", "1", "1/0"], "1/0"),
    (["hilbert", "abc", "1"], "abc"),
    (["conic", "--", "1/0", "1", "1", "0", "0", "0"], "1/0"),
    (["conic", "--", "1", "1", "1", "0", "0", "2/x"], "2/x"),
    (["clifford", "--b", "0,1,0,1,0,0,0,0,1/0"], "1/0"),
])
def test_bad_rational_names_the_token(capsys, argv, token):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == []
    assert err == f"error: expected a rational, got {token!r}\n"
