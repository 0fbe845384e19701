#!/usr/bin/env python3
"""Re-run both exhaustive criterion scans and audit the single exceptional cell.

The loop scan covers every loop quiver with m loops and dimension d in the
requested ranges; the Kronecker scan normalizes each grid cell into the
reflection window before testing. Both print their exceptions and cell count
on stdout, which is the same on every run; their wall-clock times go to stderr
once the run has finished. The audit section prints the inequality trace for
every admissible decomposition of the one dimension vector that fails the
criterion, showing where the margin degenerates to an Euler pairing of -1.
"""
import argparse
import contextlib
import io
import sys

from quivermod.kronecker import (
    expected_kronecker_exceptions,
    expected_loop_exceptions,
    grid_box,
    kronecker_criterion_exceptions,
    kronecker_inequality_trace,
    loop_criterion_exceptions,
)


def audit_exceptional_cell() -> None:
    m, d = 3, (2, 2)
    print(f"audit: m = {m}, d = {d}, admissible decompositions d = e + f")
    header = ("e", "f", "k", "bound", "pairing", "slope>=", "equality")
    print("  " + "\t".join(header))
    for a in range(d[0] + 1):
        for b in range(d[1] + 1):
            e = (a, b)
            f = (d[0] - a, d[1] - b)
            if e == (0, 0) or f == (0, 0):
                continue
            if a == 0 or f[1] == 0:
                # slope ordering forces these to carry no audit information
                continue
            t = kronecker_inequality_trace(m, d, e)
            bound = f"{t.bound_lhs}>={t.bound_rhs}" if t.bound_holds else \
                f"{t.bound_lhs}<{t.bound_rhs}"
            equality = f"{t.equality_lhs}={t.equality_rhs}" if \
                t.equality_lhs == t.equality_rhs else \
                f"{t.equality_lhs}!={t.equality_rhs}"
            print("  " + "\t".join(str(x) for x in (
                e, f, t.k, bound, t.euler_pairing, t.slope_holds, equality
            )))
    print("  pairing -1 with the slope condition met is the criterion failure;")
    print("  every other scanned cell stays at pairing <= -2.")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--loop-m-max", type=int, default=8)
    parser.add_argument("--loop-d-max", type=int, default=12)
    parser.add_argument("--kronecker-m-max", type=int, default=8)
    parser.add_argument("--kronecker-d-max", type=int, default=10)
    args = parser.parse_args(argv)
    out = io.StringIO()  # held back, as in quivermod.cli, so an error leaves stdout empty
    try:
        with contextlib.redirect_stdout(out):
            code, scans = _run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(out.getvalue())
    for name, scan in scans:
        print(f"{name} scan: {scan.elapsed:.3f}s", file=sys.stderr)
    return code


def _run(args):
    """Both scans and the audit, printing to stdout: (exit code, [(name, scan)])."""
    loop = loop_criterion_exceptions(
        range(2, args.loop_m_max + 1), range(2, args.loop_d_max + 1)
    )
    print(f"loop scan: {loop.scanned} cells")
    for m, d in loop.exceptions:
        print(f"  exception: m = {m}, d = {d}")

    kron = kronecker_criterion_exceptions(
        range(3, args.kronecker_m_max + 1),
        grid_box(args.kronecker_d_max, args.kronecker_d_max),
    )
    print(f"kronecker scan: {kron.scanned} cells")
    for m, d in kron.exceptions:
        print(f"  exception: m = {m}, d = ({d[0]}, {d[1]})")

    expected = (expected_loop_exceptions(args.loop_m_max, args.loop_d_max),
                expected_kronecker_exceptions(args.kronecker_m_max, args.kronecker_d_max))
    scans = [("loop", loop), ("kronecker", kron)]
    if (loop.exceptions, kron.exceptions) != expected:
        print("UNEXPECTED exception set", file=sys.stderr)
        return 1, scans

    audit_exceptional_cell()
    return 0, scans


if __name__ == "__main__":
    raise SystemExit(main())
