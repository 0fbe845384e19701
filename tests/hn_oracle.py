"""Slow reference code for HN-type enumeration, kept only as a test oracle.

`hn_types` is the product walk that `stability.hn_types` used before it walked
`_slope_splits` and built each (remaining, slope, parts left) state's tails
once: at every level it visits the whole box below the remaining
vector and compares `Fraction` slopes, so its cost grows with the box size
raised to the number of parts. Tests compare the fast enumeration against it,
order included, on small inputs.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import product
from typing import Callable, Optional, Sequence

from quivermod.quiver import Quiver, slope
from quivermod.stability import DimVec, HNType, _check_args


def hn_types(
    q: Quiver,
    theta: Sequence[int],
    d: Sequence[int],
    max_parts: Optional[int] = None,
    sst_filter: Optional[Callable[[DimVec], bool]] = None,
) -> list[HNType]:
    """All tuples of nonzero vectors summing to d with strictly decreasing
    slopes and at most max_parts parts, each accepted by sst_filter, in
    lexicographic order."""
    theta, d = _check_args(q, theta, d)
    if max_parts is None:
        max_parts = sum(d)
    if max_parts < 1:
        raise ValueError("max_parts must be at least 1")
    zero = tuple(0 for _ in d)
    out: list[HNType] = []

    def extend(prefix: list[DimVec], remaining: DimVec, prev_slope: Optional[Fraction]):
        if remaining == zero:
            out.append(HNType(tuple(prefix)))
            return
        if len(prefix) == max_parts:
            return
        for e in product(*(range(x + 1) for x in remaining)):
            if e == zero:
                continue
            mu = slope(theta, e)
            if prev_slope is not None and mu >= prev_slope:
                continue
            if sst_filter is not None and not sst_filter(e):
                continue
            prefix.append(e)
            extend(prefix, tuple(a - b for a, b in zip(remaining, e)), mu)
            prefix.pop()

    extend([], d, None)
    return out
