"""Slope stability combinatorics: decompositions, the ample-stability sufficient
criterion, Harder-Narasimhan strata bookkeeping, and Brauer-order predictions.

Conventions. A decomposition of d is an ordered pair (e, f) of nonzero dimension
vectors with e + f = d. The sufficient criterion demands <e,f> <= -2 for every
decomposition with slope(e) >= slope(f); passing it means the non-stable locus
has codimension at least 2 in the representation space.

Split walks. Every slope condition tested here is linear in e. For e + f = d,
theta(e)|f| - theta(f)|e| = w.e with w_i = theta_i |d| - theta(d), so
slope(e) >= slope(f) iff w.e >= 0; and slope(e) < slope(p) for an earlier
part p iff b.e > 0 with b_i = theta(p) - theta_i |p|. Once the first k - 1
entries of e are fixed, each condition c.e >= t bounds the last entry x on
one side (or keeps all x or none when c_last = 0), so the kept x form one
integer interval, found by exact floor and ceiling division. The criterion,
the wall and the HN recursion walk only those intervals instead of filtering
all prod(d_i + 1) - 2 decompositions.

HN memo. The parts that finish an HN type depend only on what remains to be
split, on the previous part's slope and on how many parts may still follow.
The test slope(e) < slope(p) against the previous part p is unchanged when
(theta(p), |p|) is scaled by a positive integer, so hn_types keys each state by
remaining, (theta(p), |p|) reduced by its gcd ((1, 0) for slope +infinity) and
min(parts left, sum(remaining)), and builds each state's suffixes once per
call. Hence a supplied sst_filter is called once per state and part, and must
be a pure function of the part.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from math import gcd
from operator import add, mul, sub
from typing import Callable, Iterator, Optional, Sequence

from .quiver import (
    Quiver,
    _euler,
    _integers,
    gcd_of,
    kronecker_quiver,
    loop_quiver,
)

DimVec = tuple[int, ...]


def enumerate_decompositions(d: Sequence[int]) -> Iterator[tuple[DimVec, DimVec]]:
    """Yield all proper decompositions d = e + f, ordered lexicographically in e.

    Count is prod(d_i + 1) - 2; componentwise 0 <= e <= d with e != 0 and e != d.
    """
    d = _integers(d, "d")
    if any(x < 0 for x in d):
        raise ValueError("entries must be nonnegative")
    zero = tuple(0 for _ in d)
    for e in product(*(range(x + 1) for x in d)):
        if e == zero or e == d:
            continue
        yield e, tuple(a - b for a, b in zip(d, e))


@dataclass(frozen=True)
class AmpleStabilityReport:
    """Outcome of the sufficient criterion.

    witness is the lexicographically first failing decomposition (slope(e) >=
    slope(f) but <e,f> >= -1), present exactly when the verdict is False.
    max_pairing is the maximum of <e,f> over decompositions satisfying the slope
    condition, None when no decomposition qualifies; the verdict is True iff
    max_pairing is None or max_pairing <= -2.
    """

    verdict: bool
    witness: Optional[tuple[DimVec, DimVec]]
    max_pairing: Optional[int]


def _check_args(q: Quiver, theta: Sequence[int], d: Sequence[int]) -> tuple[DimVec, DimVec]:
    """theta and d as int tuples with one entry per vertex of q; d nonnegative, nonzero."""
    d = _integers(d, "d", q.vertex_count, nonneg=True)
    if not any(d):
        raise ValueError("dimension vector must be nonzero")
    return _integers(theta, "theta", q.vertex_count), d


def _slope_splits(d: DimVec, rows: Sequence[tuple[DimVec, int]]) -> Iterator[tuple[DimVec, DimVec]]:
    """Yield (e, d - e) for each proper decomposition of d with c.e >= t for
    every row (c, t), in the order of enumerate_decompositions. For each
    prefix u = e[:-1], the rows bound the last entry x by c_last * x >= t - c.u,
    so only the interval [lo, hi] of kept x is visited.
    """
    *head, last = d
    head = tuple(head)
    for u in product(*(range(x + 1) for x in head)):
        lo = 1 if not any(u) else 0
        hi = last - 1 if u == head else last
        for c, t in rows:
            c_last, r = c[-1], t - sum(map(mul, c, u))
            if c_last > 0:
                lo = max(lo, -(-r // c_last))
            elif c_last < 0:
                hi = min(hi, r // c_last)
            elif r > 0:
                hi = -1
        for x in range(lo, hi + 1):
            e = u + (x,)
            yield e, tuple(map(sub, d, e))


def _slope_weights(theta: DimVec, d: DimVec) -> DimVec:
    """w with w.e = theta(e)|f| - theta(f)|e| for e + f = d: w.e has the sign of
    slope(e) - slope(f)."""
    theta_d, size_d = sum(map(mul, theta, d)), sum(d)
    return tuple(t * size_d - theta_d for t in theta)


def check_ample_stability_criterion(
    q: Quiver, theta: Sequence[int], d: Sequence[int]
) -> AmpleStabilityReport:
    theta, d = _check_args(q, theta, d)
    witness = None
    max_pairing: Optional[int] = None
    for e, f in _slope_splits(d, [(_slope_weights(theta, d), 0)]):
        pairing = _euler(q, e, f)
        if max_pairing is None or pairing > max_pairing:
            max_pairing = pairing
        if pairing >= -1 and witness is None:
            witness = (e, f)
    return AmpleStabilityReport(witness is None, witness, max_pairing)


@dataclass(frozen=True)
class HNType:
    """An ordered tuple of nonzero dimension vectors with strictly decreasing slopes."""

    parts: tuple[DimVec, ...]

    def __iter__(self):
        return iter(self.parts)

    def __len__(self):
        return len(self.parts)


def hn_types(
    q: Quiver,
    theta: Sequence[int],
    d: Sequence[int],
    max_parts: Optional[int] = None,
    sst_filter: Optional[Callable[[DimVec], bool]] = None,
) -> list[HNType]:
    """All tuples (d^1, ..., d^s) of nonzero vectors summing to d with strictly
    decreasing slopes and s <= max_parts, lexicographic order.

    Without a filter this is a superset of the types realized by actual
    filtrations, since no existence test for semistables of each slope is
    applied. A supplied sst_filter must be sound: it may only accept vectors
    whose semistable locus is nonempty, and a pure function of the part: the
    suffixes of each state (remaining, prev reduced by its gcd, min(parts left,
    sum(remaining))) are built once per call, so sst_filter is called once per
    state and part.
    """
    theta, d = _check_args(q, theta, d)
    (max_parts,) = _integers((sum(d) if max_parts is None else max_parts,), "max_parts")
    if max_parts < 1:
        raise ValueError("max_parts must be at least 1")
    memo: dict[tuple[DimVec, tuple[int, int], int], list[tuple[DimVec, ...]]] = {}

    def suffixes(remaining: DimVec, prev: tuple[int, int], parts_left: int) -> list[tuple[DimVec, ...]]:
        # prev is (theta, size) of the last part reduced by its gcd, (1, 0) for slope
        # +infinity, and parts_left is capped at sum(remaining). A proper part e needs
        # slope(e) > slope(remaining - e): the rest is a sum of parts with smaller
        # slopes, so its slope, a mediant of theirs, is below slope(e). Both that and
        # slope(e) < slope(prev) are linear in e, b.e > 0 with
        # b_i = theta_prev - theta_i |prev|. The whole of remaining comes last, as in
        # product order, and closes the type; it needs no slope test, since the split
        # that left it put it below prev. A type is its first part and a tail.
        key = (remaining, prev, parts_left)
        out = memo.get(key)
        if out is not None:
            return out
        out = []
        if parts_left > 1:
            size_r = sum(remaining)
            below_prev = tuple(prev[0] - t * prev[1] for t in theta)
            rows = [(_slope_weights(theta, remaining), 1), (below_prev, 1)]
            for e, f in _slope_splits(remaining, rows):
                if sst_filter is not None and not sst_filter(e):
                    continue
                theta_e, size_e = sum(map(mul, theta, e)), sum(e)
                g = gcd(theta_e, size_e)
                tails = suffixes(f, (theta_e // g, size_e // g), min(parts_left - 1, size_r - size_e))
                out += [(e,) + tail for tail in tails]
        if sst_filter is None or sst_filter(remaining):
            out.append((remaining,))
        memo[key] = out
        return out

    return [HNType(parts) for parts in suffixes(d, (1, 0), min(max_parts, sum(d)))]


def hn_codimension(q: Quiver, t: HNType) -> int:
    """Codimension of the stratum with type t: -sum over ordered pairs k < l of <d^k, d^l>,
    summed as -sum over l of <d^1 + ... + d^(l-1), d^l>."""
    parts = [_integers(part, "d", q.vertex_count, nonneg=True) for part in t.parts]
    total, before = 0, parts[0] if parts else ()
    for part in parts[1:]:
        total -= _euler(q, before, part)
        before = tuple(map(add, before, part))
    return total


def strictly_semistable_wall_codim(
    q: Quiver, theta: Sequence[int], d: Sequence[int]
) -> Optional[int]:
    """min of -<e,f> over proper decompositions with equal slopes, None if no such split."""
    theta, d = _check_args(q, theta, d)
    w = _slope_weights(theta, d)
    splits = _slope_splits(d, [(w, 0), (tuple(-x for x in w), 0)])
    return min((-_euler(q, e, f) for e, f in splits), default=None)


@dataclass(frozen=True)
class BrauerPrediction:
    """Predicted Brauer group order of the stable moduli space, with provenance status."""

    order: int
    status: str  # "theorem" | "special-case" | "conjectural"
    generator_note: str


_SPECIAL_CASES = (
    (loop_quiver(2), (2,)),
    (kronecker_quiver(3), (2, 2)),
)


def predict_brauer(q: Quiver, theta: Sequence[int], d: Sequence[int]) -> BrauerPrediction:
    """Cyclic of order gcd(d), generated by any framed-bundle class [P_n] with n.d
    coprime to gcd(d); status records how strongly the order is established."""
    d = _integers(d, "d")  # compared below with the tuples of _SPECIAL_CASES
    g = gcd_of(d)
    report = check_ample_stability_criterion(q, theta, d)
    if report.verdict:
        status = "theorem"
    elif any(q == sq and d == sd for sq, sd in _SPECIAL_CASES):
        status = "special-case"
    else:
        status = "conjectural"
    note = (
        f"cyclic of order {g}, generated by the class of any projectivized framed "
        f"bundle P_n with n.d not divisible by a prime factor of {g}; assumes the "
        f"stable locus is nonempty"
        if g > 1
        else "trivial group: gcd(d) = 1, universal bundles exist"
    )
    return BrauerPrediction(g, status, note)


def fine_moduli_predicate(d: Sequence[int]) -> tuple[bool, str]:
    """True iff gcd(d) = 1, in which case universal bundles exist on the stable locus."""
    g = gcd_of(d)
    if g == 1:
        return True, "gcd(d) = 1: integral linearization weights exist and the moduli space is fine"
    return (
        False,
        f"gcd(d) = {g} > 1: no universal or tautological family exists on any nonempty "
        "open subset; unconditional where the ample-stability criterion holds, otherwise "
        "conditional on the predicted Brauer order",
    )
