"""Slow reference code for the criterion and the wall, kept only as a test oracle.

These are the enumerate-and-filter walks that `stability` used before its
split walks solved the slope conditions for the last entry of e: they visit
every one of the prod(d_i + 1) - 2 decompositions and discard those whose
slope sign is wrong. Tests compare the fast walks against them, reports and
codimensions in full, on small inputs.
"""
from __future__ import annotations

from typing import Iterator, Optional, Sequence

from quivermod.quiver import Quiver, _euler
from quivermod.stability import (
    AmpleStabilityReport,
    DimVec,
    _check_args,
    enumerate_decompositions,
)


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
