"""Slope stability combinatorics: decompositions, the ample-stability sufficient
criterion, Harder-Narasimhan strata bookkeeping, and Brauer-order predictions.

Conventions. A decomposition of d is an ordered pair (e, f) of nonzero dimension
vectors with e + f = d. The sufficient criterion demands <e,f> <= -2 for every
decomposition with slope(e) >= slope(f); passing it means the non-stable locus
has codimension at least 2 in the representation space.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, product
from typing import Callable, Iterator, Optional, Sequence

from .quiver import (
    Quiver,
    _check_dim,
    _euler,
    gcd_of,
    kronecker_quiver,
    loop_quiver,
)

DimVec = tuple[int, ...]


def enumerate_decompositions(d: Sequence[int]) -> Iterator[tuple[DimVec, DimVec]]:
    """Yield all proper decompositions d = e + f, ordered lexicographically in e.

    Count is prod(d_i + 1) - 2; componentwise 0 <= e <= d with e != 0 and e != d.
    """
    d = tuple(int(x) for x in d)
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
    d = _check_dim(q, d)
    if all(x == 0 for x in d):
        raise ValueError("dimension vector must be nonzero")
    theta = tuple(int(x) for x in theta)
    if len(theta) != q.vertex_count:
        raise ValueError(f"theta has {len(theta)} entries, quiver has {q.vertex_count} vertices")
    return theta, d


def _slope_splits(theta: DimVec, d: DimVec) -> Iterator[tuple[DimVec, DimVec, int]]:
    """Yield (e, f, s) for each decomposition of d, where s has the sign of
    slope(e) - slope(f): theta(e)|f| - theta(f)|e|, exact in integers."""
    theta_d, size_d = sum(t * x for t, x in zip(theta, d)), sum(d)
    for e, f in enumerate_decompositions(d):
        theta_e, size_e = sum(t * x for t, x in zip(theta, e)), sum(e)
        yield e, f, theta_e * (size_d - size_e) - (theta_d - theta_e) * size_e


def check_ample_stability_criterion(
    q: Quiver, theta: Sequence[int], d: Sequence[int]
) -> AmpleStabilityReport:
    theta, d = _check_args(q, theta, d)
    witness = None
    max_pairing: Optional[int] = None
    for e, f, sign in _slope_splits(theta, d):
        if sign < 0:
            continue
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
    whose semistable locus is nonempty.
    """
    theta, d = _check_args(q, theta, d)
    if max_parts is None:
        max_parts = sum(d)
    if max_parts < 1:
        raise ValueError("max_parts must be at least 1")
    out: list[HNType] = []

    def extend(prefix: tuple[DimVec, ...], remaining: DimVec, prev: tuple[int, int]) -> None:
        # prev is (theta, size) of the last part, (1, 0) for slope +infinity. A proper
        # part e needs sign > 0: the rest is a sum of parts with smaller slopes, so
        # its slope, a mediant of theirs, is below slope(e). The whole of remaining
        # comes last, as in product order, and closes the type (f is None).
        splits = _slope_splits(theta, remaining) if len(prefix) + 1 < max_parts else ()
        for e, f, sign in chain(splits, [(remaining, None, 1)]):
            theta_e, size_e = sum(t * x for t, x in zip(theta, e)), sum(e)
            if sign <= 0 or theta_e * prev[1] >= prev[0] * size_e:
                continue
            if sst_filter is not None and not sst_filter(e):
                continue
            if f is None:
                out.append(HNType(prefix + (e,)))
            else:
                extend(prefix + (e,), f, (theta_e, size_e))

    extend((), d, (1, 0))
    return out


def hn_codimension(q: Quiver, t: HNType) -> int:
    """Codimension of the stratum with type t: -sum over ordered pairs k < l of <d^k, d^l>."""
    parts = [_check_dim(q, part) for part in t.parts]
    return -sum(
        _euler(q, parts[k], parts[l])
        for k in range(len(parts))
        for l in range(k + 1, len(parts))
    )


def strictly_semistable_wall_codim(
    q: Quiver, theta: Sequence[int], d: Sequence[int]
) -> Optional[int]:
    """min of -<e,f> over proper decompositions with equal slopes, None if no such split."""
    theta, d = _check_args(q, theta, d)
    best: Optional[int] = None
    for e, f, sign in _slope_splits(theta, d):
        if sign:
            continue
        codim = -_euler(q, e, f)
        if best is None or codim < best:
            best = codim
    return best


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
    d = tuple(int(x) for x in d)
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
