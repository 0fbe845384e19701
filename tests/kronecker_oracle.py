"""Kronecker normalization with a visited-state guard, kept only as a test oracle.

`normalize_kronecker` is the loop that `kronecker.normalize_kronecker` ran
before it dropped its `seen` set: it also stops, as degenerate, on a state it
has visited before. No state can recur (each sink move lowers d1 + d2, and two
dualizes never come in a row), so both must agree on every input. Tests compare
the library against it.
"""
from __future__ import annotations

from typing import Sequence

from quivermod.kronecker import NormalizationResult, kronecker_dualize


def normalize_kronecker(m: int, d: Sequence[int]) -> NormalizationResult:
    if m < 3:
        raise ValueError("normalization window needs m >= 3")
    cur = (int(d[0]), int(d[1]))
    if any(x < 0 for x in cur):
        raise ValueError("d must be nonnegative")
    moves: list[str] = []
    seen = set()
    while True:
        if cur[0] == 0 or cur[1] == 0 or cur in seen:
            return NormalizationResult(None, tuple(moves))
        seen.add(cur)
        if cur[0] > cur[1]:
            cur = kronecker_dualize(cur)
            moves.append("dualize")
            continue
        if 2 * cur[1] <= m * cur[0]:
            return NormalizationResult(cur, tuple(moves))
        nxt = m * cur[0] - cur[1]
        if nxt < 0:
            return NormalizationResult(None, tuple(moves))
        cur = (cur[0], nxt)
        moves.append("sink")
