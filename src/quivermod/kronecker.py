"""Exhaustive re-verification of the ample-stability criterion on loop and
generalized Kronecker quivers.

For m-Kronecker quivers the scan normalizes each dimension vector into the
window d1 <= d2 <= (m/2) d1 using sink reflections and dualization, and runs
the criterion with theta = (1, 0) once on each distinct normalized vector,
since many grid cells share one normalized representative. Exceptions are
recorded by normalized vector.

Vectors with empty or zero-dimensional moduli need no separate skip. Both
moves keep the Tits form d1^2 + d2^2 - m d1 d2, and in the window that form
is <= 0, because m d1 d2 >= 2 d2^2 >= d1^2 + d2^2. A cell whose coprime part
(p, q) = d / gcd(d) has m p q - p^2 - q^2 < 0 has a positive Tits form, so it
never reaches the window and normalizes to `degenerate`.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional, Sequence

from .quiver import _integers, kronecker_quiver, loop_quiver
from .stability import check_ample_stability_criterion

Pair = tuple[int, int]


def kronecker_reflect_source(m: int, d: Sequence[int]) -> Pair:
    """(d1, d2) -> (m d2 - d1, d2). Errors if the image leaves the nonnegative cone."""
    (m,), (d1, d2) = _integers((m,), "m"), _integers(d, "d", 2)
    if m * d2 - d1 < 0:
        raise ValueError(f"source reflection of {(d1, d2)} has a negative entry")
    return (m * d2 - d1, d2)


def kronecker_reflect_sink(m: int, d: Sequence[int]) -> Pair:
    """(d1, d2) -> (d1, m d1 - d2). Errors if the image leaves the nonnegative cone."""
    (m,), (d1, d2) = _integers((m,), "m"), _integers(d, "d", 2)
    if m * d1 - d2 < 0:
        raise ValueError(f"sink reflection of {(d1, d2)} has a negative entry")
    return (d1, m * d1 - d2)


def kronecker_dualize(d: Sequence[int]) -> Pair:
    d1, d2 = _integers(d, "d", 2)
    return (d2, d1)


@dataclass(frozen=True)
class NormalizationResult:
    normalized: Optional[Pair]  # None on a degenerate orbit
    moves: tuple[str, ...]

    @property
    def degenerate(self) -> bool:
        return self.normalized is None


def normalize_kronecker(m: int, d: Sequence[int]) -> NormalizationResult:
    """Drive d into the window d1 <= d2 <= (m/2) d1 by dualize / sink reflections.

    Orbits that hit a zero entry or would leave the nonnegative cone are flagged
    degenerate; this covers real-root vectors and small cases. No state recurs:
    each sink move lowers d1 + d2, since 2 d2 > m d1 gives m d1 - d2 < d2, and
    after a dualize d1 < d2, so two dualizes never come in a row.
    """
    (m,) = _integers((m,), "m")
    if m < 3:
        raise ValueError("normalization window needs m >= 3")
    cur: Pair = _integers(d, "d", 2)
    if min(cur) < 0:
        raise ValueError("d must be nonnegative")
    moves: list[str] = []
    while 0 not in cur:
        if cur[0] > cur[1]:
            cur = (cur[1], cur[0])
            moves.append("dualize")
            continue
        if 2 * cur[1] <= m * cur[0]:
            return NormalizationResult(cur, tuple(moves))
        nxt = m * cur[0] - cur[1]
        if nxt < 0:
            break
        cur = (cur[0], nxt)
        moves.append("sink")
    return NormalizationResult(None, tuple(moves))


@dataclass(frozen=True)
class ScanResult:
    exceptions: tuple  # loop: (m, d) ints; kronecker: (m, (d1, d2))
    scanned: int
    elapsed: float


def loop_criterion_exceptions(
    m_range: Sequence[int], d_range: Sequence[int], workers: Optional[int] = None
) -> ScanResult:
    """Run the criterion on every loop quiver cell; slope is constant on one
    vertex so every proper decomposition qualifies and theta is irrelevant.

    The scan runs in one process and ignores `workers`; the keyword stays
    because the benchmark harness (`perfbench/worker.py`) passes it."""
    ms = sorted(set(_integers(m_range, "m_range")))
    ds = sorted(set(_integers(d_range, "d_range")))
    if not ms or not ds:
        raise ValueError("loop scan needs a nonempty m-range and d-range")
    if ms[0] < 2:
        raise ValueError("loop scan needs m >= 2")
    if ds[0] < 2:
        raise ValueError("loop scan needs d >= 2 (d = 1 passes vacuously)")
    t0 = time.perf_counter()
    exceptions = []
    for m in ms:
        quiver = loop_quiver(m)
        exceptions.extend(
            (m, d)
            for d in ds
            if not check_ample_stability_criterion(quiver, (0,), (d,)).verdict
        )
    return ScanResult(tuple(exceptions), len(ms) * len(ds), time.perf_counter() - t0)


def kronecker_criterion_exceptions(
    m_range: Sequence[int],
    box: Sequence[Pair],
    workers: Optional[int] = None,
) -> ScanResult:
    """Scan (m, cell) pairs; criterion failures are keyed by normalized vector.

    For each m the criterion runs once on each distinct normalized vector of
    the box. The scan runs in one process and ignores `workers`; the keyword
    stays because the benchmark harness (`perfbench/worker.py`) passes it.
    """
    ms = sorted(set(_integers(m_range, "m_range")))
    cells = sorted(set(_integers(cell, "box cell", 2) for cell in box))
    if not ms or not cells:
        raise ValueError("kronecker scan needs a nonempty m-range and box")
    if ms[0] < 3:
        raise ValueError("kronecker scan needs m >= 3")
    if any(a < 1 or b < 1 for a, b in cells):
        raise ValueError("box cells must have positive entries")
    t0 = time.perf_counter()
    exceptions = []
    for m in ms:
        vectors = {normalize_kronecker(m, cell).normalized for cell in cells} - {None}
        quiver = kronecker_quiver(m)
        exceptions.extend(
            (m, d)
            for d in sorted(vectors)
            if not check_ample_stability_criterion(quiver, (1, 0), d).verdict
        )
    return ScanResult(tuple(exceptions), len(ms) * len(cells), time.perf_counter() - t0)


def expected_loop_exceptions(m_max: int, d_max: int) -> tuple:
    """The paper's loop exception (m, d) = (2, 2), if m <= m_max and d <= d_max."""
    return ((2, 2),) if m_max >= 2 and d_max >= 2 else ()


def expected_kronecker_exceptions(m_max: int, d_max: int) -> tuple:
    """The paper's Kronecker exception (m, d) = (3, (2, 2)), if m <= m_max and
    d lies in the grid [1, d_max]^2."""
    return ((3, (2, 2)),) if m_max >= 3 and d_max >= 2 else ()


def grid_box(d1_max: int, d2_max: int) -> list[Pair]:
    """[1, d1_max] x [1, d2_max] as a list of cells."""
    return [(a, b) for a in range(1, d1_max + 1) for b in range(1, d2_max + 1)]


@dataclass(frozen=True)
class KroneckerTrace:
    """Audit record for one decomposition (a, b) + (c, dd) of a normalized (n p, n q).

    k = p dd + q a - n p q is nonnegative exactly when slope((a,b)) >= slope((c,dd)).
    The bound p q >= (m p q - p^2 - q^2) a dd + (p a + q dd) k holds exactly when
    <(a,b),(c,dd)> >= -1, i.e. when the decomposition violates the criterion margin.
    For m = 3 the equality n a p + n dd q = a^2 + dd^2 + 3 a dd - 1 restates
    <(a,b),(c,dd)> = -1.
    """

    m: int
    d: Pair
    n: int
    p: int
    q: int
    a: int
    b: int
    c: int
    dd: int
    k: int
    bound_lhs: int
    bound_rhs: int
    bound_holds: bool
    euler_pairing: int
    slope_holds: bool
    equality_lhs: Optional[int]  # m = 3 only
    equality_rhs: Optional[int]


def kronecker_inequality_trace(m: int, d: Sequence[int], e: Sequence[int]) -> KroneckerTrace:
    (m,), d, (a, b) = _integers((m,), "m"), _integers(d, "d", 2), _integers(e, "e", 2)
    # the window also rules out m <= 1, zero vectors and negative entries
    if not (0 < d[0] <= d[1] and 2 * d[1] <= m * d[0]):
        raise ValueError(f"{d} is not normalized for m = {m}")
    c, dd = d[0] - a, d[1] - b
    if min(a, b, c, dd) < 0 or (a, b) == (0, 0) or (c, dd) == (0, 0):
        raise ValueError("e must give a proper decomposition of d")
    if a == 0 or dd == 0:
        # a = 0 forces c = 0 under the slope condition (and dually dd = 0 forces b = 0),
        # so these splits carry no information for the audit
        raise ValueError("degenerate split: first entry of e and last entry of f must be positive")
    n = math.gcd(*d)
    p, q = d[0] // n, d[1] // n
    k = p * dd + q * a - n * p * q
    lhs = p * q
    rhs = (m * p * q - p * p - q * q) * a * dd + (p * a + q * dd) * k
    pairing = a * c + b * dd - m * a * dd
    eq_l = n * a * p + n * dd * q if m == 3 else None
    eq_r = a * a + dd * dd + 3 * a * dd - 1 if m == 3 else None
    return KroneckerTrace(
        m=m, d=d, n=n, p=p, q=q, a=a, b=b, c=c, dd=dd,
        k=k, bound_lhs=lhs, bound_rhs=rhs, bound_holds=lhs >= rhs,
        euler_pairing=pairing, slope_holds=k >= 0,
        equality_lhs=eq_l, equality_rhs=eq_r,
    )
