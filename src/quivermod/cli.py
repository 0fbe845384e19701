"""Command line interface.

Output is tab-separated, one record per line, deterministic across runs.
Exact rationals print as `p/q` (bare integer when the denominator is 1) and
parse back identically. Exit codes: 0 success, 1 verification mismatch in the
verify subcommands, 2 usage or domain error, 3 internal invariant failure (an
exact self-check such as the conic witness verification failed; a bug).
Records are held back until the command returns, so an error leaves stdout
empty.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .clifford import (
    QuadraticFormB,
    QuaternionAlgebra,
    build_clifford,
    hilbert_polynomial_quadric,
    is_azumaya_over_field,
    is_smooth_quadric,
)
from .hilbert import conic_has_rational_point, quaternion_is_split, symbol_profile
from .kronecker import (
    expected_kronecker_exceptions,
    expected_loop_exceptions,
    grid_box,
    kronecker_criterion_exceptions,
    loop_criterion_exceptions,
)
from .models import (
    ConicFiber,
    k3_conic,
    k3_invariants,
    k3_is_stable,
    k3_semiinvariants,
    l2_conic,
    l2_invariants,
    l2_is_stable,
    l2_semiinvariants,
)
from .quiver import (
    euler_form,
    framed_bundle_relative_dimension,
    gcd_of,
    linearization_weights,
    load_quiver,
    moduli_dimension,
    slope,
)
from .stability import (
    check_ample_stability_criterion,
    fine_moduli_predicate,
    hn_codimension,
    hn_types,
    predict_brauer,
    strictly_semistable_wall_codim,
)

def _ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"expected comma-separated integers, got {text!r}")


def _rational(token: str) -> Fraction:
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"expected a rational, got {token!r}") from None


def _fracs(text: str) -> tuple[Fraction, ...]:
    return tuple(_rational(part) for part in text.split(","))


def _mat2_arg(text: str, name: str) -> list[list[Fraction]]:
    vals = _fracs(text)
    if len(vals) != 4:
        raise ValueError(f"--{name} needs 4 entries (row-major 2x2), got {len(vals)}")
    return [[vals[0], vals[1]], [vals[2], vals[3]]]


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    try:
        return str(x)
    except ValueError:
        # the interpreter's int-to-str digit limit; the conversion is
        # quadratic before Python 3.12, so the limit is not raised
        raise ValueError(
            f"capacity: output has more than {sys.get_int_max_str_digits()} digits"
        ) from None


def _row(*cells) -> None:
    print("\t".join(_fmt(c) for c in cells))


def _cmd_euler(args) -> int:
    q = load_quiver(args.quiver)
    _row(euler_form(q, _ints(args.d), _ints(args.e)))
    return 0


def _cmd_slope(args) -> int:
    _row(slope(_ints(args.theta), _ints(args.d)))
    return 0


def _cmd_gcd(args) -> int:
    _row(gcd_of(_ints(args.d)))
    return 0


def _cmd_weights(args) -> int:
    _row(*linearization_weights(_ints(args.d)))
    return 0


def _cmd_dim(args) -> int:
    d = _ints(args.d)
    if args.framing is not None:
        _row(framed_bundle_relative_dimension(d, _ints(args.framing)))
        return 0
    q = load_quiver(args.quiver)
    _row(moduli_dimension(q, d))
    return 0


def _cmd_amply_stable(args) -> int:
    q = load_quiver(args.quiver)
    report = check_ample_stability_criterion(q, _ints(args.theta), _ints(args.d))
    _row("verdict", "pass" if report.verdict else "fail")
    if not report.verdict and report.witness is not None:
        e, f = report.witness
        _row("witness", ",".join(map(str, e)), ",".join(map(str, f)))
    _row("max_pairing", "none" if report.max_pairing is None else report.max_pairing)
    return 0


def _cmd_hn(args) -> int:
    q = load_quiver(args.quiver)
    types = hn_types(q, _ints(args.theta), _ints(args.d), max_parts=args.max_parts)
    for t in types:
        label = "|".join(",".join(map(str, part)) for part in t.parts)
        _row(label, hn_codimension(q, t))
    return 0


def _cmd_wall(args) -> int:
    q = load_quiver(args.quiver)
    codim = strictly_semistable_wall_codim(q, _ints(args.theta), _ints(args.d))
    _row("codim", "none" if codim is None else codim)
    return 0


def _cmd_brauer(args) -> int:
    q = load_quiver(args.quiver)
    pred = predict_brauer(q, _ints(args.theta), _ints(args.d))
    _row("order", pred.order, "status", pred.status)
    return 0


def _cmd_fine(args) -> int:
    verdict, note = fine_moduli_predicate(_ints(args.d))
    _row("fine", verdict)
    _row("note", note)
    return 0


def _verify(result, expected, fmt) -> int:
    for m, d in result.exceptions:
        _row("exception", m, fmt(d))
    match = tuple(result.exceptions) == expected
    _row("exceptions", len(result.exceptions), "expected", len(expected),
         "MATCH" if match else "MISMATCH")
    return 0 if match else 1


def _cmd_verify_loop(args) -> int:
    result = loop_criterion_exceptions(range(2, args.m_max + 1), range(2, args.d_max + 1))
    return _verify(result, expected_loop_exceptions(args.m_max, args.d_max), str)


def _cmd_verify_kronecker(args) -> int:
    result = kronecker_criterion_exceptions(
        range(3, args.m_max + 1), grid_box(args.d_max, args.d_max)
    )
    return _verify(result, expected_kronecker_exceptions(args.m_max, args.d_max),
                   lambda d: ",".join(map(str, d)))


def _model(args, names, invariants, is_stable, conic, semiinvariants) -> int:
    mats = [_mat2_arg(getattr(args, name), name) for name in names]
    point = invariants(*mats)
    _row("invariants", *point.coordinates())
    _row("stable", is_stable(*mats))
    _row("conic", *conic(point).coefficients())
    if args.v is not None:
        v = _fracs(args.v)
        if len(v) != 2:
            raise ValueError("--v needs 2 entries")
        _row("semiinvariants", *semiinvariants(*mats, v))
    return 0


def _cmd_l2(args) -> int:
    return _model(args, "AB", l2_invariants, l2_is_stable, l2_conic, l2_semiinvariants)


def _cmd_k3(args) -> int:
    return _model(args, "ABC", k3_invariants, k3_is_stable, k3_conic, k3_semiinvariants)


def _cmd_clifford(args) -> int:
    vals = _fracs(args.b)
    size = 1
    while size * size < len(vals):
        size += 1
    if size * size != len(vals):
        raise ValueError(f"--b needs a square number of entries, got {len(vals)}")
    rows = [list(vals[i * size:(i + 1) * size]) for i in range(size)]
    form = QuadraticFormB(rows, char=args.char)
    algebra = build_clifford(form)
    even = algebra.even_part()
    _row("dimension", algebra.dim)
    _row("smooth", is_smooth_quadric(form))
    _row("even_rank", even.dim)
    _row("azumaya", is_azumaya_over_field(even))
    return 0


def _cmd_hilbert(args) -> int:
    u, v = _rational(args.u), _rational(args.v)
    for ev in symbol_profile(u, v):
        _row("place", ev.place, ev.value)
    _row("split", quaternion_is_split(QuaternionAlgebra(u, v)))
    return 0


def _cmd_conic(args) -> int:
    c = [_rational(x) for x in (args.xx, args.yy, args.zz, args.xy, args.xz, args.yz)]
    conic = ConicFiber(xx=c[0], yy=c[1], zz=c[2], xy=c[3], xz=c[4], yz=c[5])
    result = conic_has_rational_point(conic)
    _row("solvable", result.solvable)
    if result.witness is not None:
        _row("witness", *result.witness)
    return 0


def _cmd_hilbpoly(args) -> int:
    _row(hilbert_polynomial_quadric(args.n, args.t))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quivermod",
        description="Exact invariants of quiver moduli, case-analysis scans, "
        "matrix-pair and matrix-triple models, Clifford and conic arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def quiver_flag(p):
        p.add_argument("--quiver", required=True,
                       help="path to a quiver file, or loop:m / kronecker:m")

    p = sub.add_parser("euler", help="Euler form of two dimension vectors")
    quiver_flag(p)
    p.add_argument("--d", required=True)
    p.add_argument("--e", required=True)
    p.set_defaults(func=_cmd_euler)

    p = sub.add_parser("slope", help="slope of a dimension vector")
    p.add_argument("--theta", required=True)
    p.add_argument("--d", required=True)
    p.set_defaults(func=_cmd_slope)

    p = sub.add_parser("gcd", help="gcd of the entries of a dimension vector")
    p.add_argument("--d", required=True)
    p.set_defaults(func=_cmd_gcd)

    p = sub.add_parser("weights", help="integer weights a with a.d = 1")
    p.add_argument("--d", required=True)
    p.set_defaults(func=_cmd_weights)

    p = sub.add_parser("dim", help="moduli dimension, or framed relative dimension")
    quiver_flag(p)
    p.add_argument("--d", required=True)
    p.add_argument("--framing", help="framing vector; print n.d - 1 instead")
    p.set_defaults(func=_cmd_dim)

    p = sub.add_parser("amply-stable", help="codimension-2 sufficient criterion")
    quiver_flag(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--d", required=True)
    p.set_defaults(func=_cmd_amply_stable)

    p = sub.add_parser("hn", help="Harder-Narasimhan types and codimensions")
    quiver_flag(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--d", required=True)
    p.add_argument("--max-parts", type=int, default=None)
    p.set_defaults(func=_cmd_hn)

    p = sub.add_parser("wall", help="least codimension of a strictly semistable wall")
    quiver_flag(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--d", required=True)
    p.set_defaults(func=_cmd_wall)

    p = sub.add_parser("brauer", help="predicted Brauer group order and status")
    quiver_flag(p)
    p.add_argument("--theta", required=True)
    p.add_argument("--d", required=True)
    p.set_defaults(func=_cmd_brauer)

    p = sub.add_parser("fine", help="fine moduli predicate gcd(d) = 1")
    p.add_argument("--d", required=True)
    p.set_defaults(func=_cmd_fine)

    p = sub.add_parser("verify-loop", help="re-run the loop quiver case analysis")
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--d-max", type=int, default=12)
    p.set_defaults(func=_cmd_verify_loop)

    p = sub.add_parser("verify-kronecker",
                       help="re-run the generalized Kronecker case analysis")
    p.add_argument("--m-max", type=int, default=8)
    p.add_argument("--d-max", type=int, default=10)
    p.set_defaults(func=_cmd_verify_kronecker)

    p = sub.add_parser("l2", help="invariants of a pair of 2x2 matrices")
    p.add_argument("--A", required=True, help="row-major 2x2, comma-separated")
    p.add_argument("--B", required=True)
    p.add_argument("--v", default=None, help="also print semiinvariants at v")
    p.set_defaults(func=_cmd_l2)

    p = sub.add_parser("k3", help="invariants of a triple of 2x2 matrices")
    p.add_argument("--A", required=True, help="row-major 2x2, comma-separated")
    p.add_argument("--B", required=True)
    p.add_argument("--C", required=True)
    p.add_argument("--v", default=None, help="also print semiinvariants at v")
    p.set_defaults(func=_cmd_k3)

    p = sub.add_parser("clifford", help="Clifford algebra of a quadratic form")
    p.add_argument("--b", required=True,
                   help="row-major symmetric coefficient matrix, comma-separated")
    p.add_argument("--char", type=int, default=0)
    p.set_defaults(func=_cmd_clifford)

    p = sub.add_parser("hilbert", help="Hilbert symbols of (u, v) at all relevant places")
    p.add_argument("u")
    p.add_argument("v")
    p.set_defaults(func=_cmd_hilbert)

    p = sub.add_parser("conic", help="rational point on a plane conic")
    for name in ("xx", "yy", "zz", "xy", "xz", "yz"):
        p.add_argument(name, help=f"coefficient of {name[0]}*{name[1]}")
    p.set_defaults(func=_cmd_conic)

    p = sub.add_parser("hilbpoly", help="Hilbert polynomial of a quadric")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.set_defaults(func=_cmd_hilbpoly)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = args.func(args)
    except (ValueError, ZeroDivisionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, AssertionError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3
    sys.stdout.write(out.getvalue())
    return code


if __name__ == "__main__":
    sys.exit(main())
