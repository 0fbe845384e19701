"""Seeded inputs for the four workloads.

Nothing here imports quivermod: the library only ever sees the plain lists
and integers these generators yield. Each generator is an endless stream of
rounds; a round is a small list of operations with a fixed composition, so
that a run of any length sees the same mix of cheap and expensive operations.

Two random streams feed each generator. `cost` is the same for every seed
and draws the properties that set how much work an operation is: d and theta
of a strata query, the prime triple of a conic and the order it reaches the
search in, the matrices and forms of fiber-split. `rng` comes from --seed and
draws everything else: the quiver's arrows, the conic's cross terms and sign,
the framing vectors of fiber-split, and the order of each round. Cost per
operation is heavy-tailed (the search time of a 4-digit conic has a
coefficient of variation near 1.2), so a mean over the hundred or so of them
a run solves would move by more than 10% from seed to seed if they were drawn
per seed; this way seeds change the inputs and the answers but not the amount
of work.
"""
from __future__ import annotations

import random

from oracles import bareiss_det, legendre_solvable

# case-scan: the fixed reference box of the paper's case analysis
KRONECKER_MS = (3, 4, 5, 6, 7, 8)
KRONECKER_D_MAX = 24
LOOP_MS = (2, 3, 4, 5, 6, 7, 8)
LOOP_DS = tuple(range(2, 61))

# fiber-split: primes for the GF(p) half; 2^31 - 1 is in the int64 overflow regime
FORM_PRIMES = (3, 5, 7, 65537, 2147483647)

SETUP = {
    # each workload's fixed set-up, run on the imported package `qm`; run.py
    # times it together with the import
    "case-scan": "box = qm.grid_box(24, 24)",
    "strata": "quivers = [qm.kronecker_quiver(m) for m in range(3, 7)]",
    "fiber-split": "",
    "conic-height": "",
}


def rounds(workload: str, seed: int):
    """Endless stream of rounds; the same (workload, seed) gives the same stream."""
    cost = random.Random(f"{workload}:cost")
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](cost, rng)


def scan_calls(ms_per_call, workers: int = 1) -> list[dict]:
    """The Kronecker and loop scans of the reference box, as one call per group of m."""
    calls = []
    for family, ms, cells in (("kronecker", KRONECKER_MS, KRONECKER_D_MAX ** 2),
                              ("loop", LOOP_MS, len(LOOP_DS))):
        for i in range(0, len(ms), ms_per_call):
            group = list(ms[i:i + ms_per_call])
            calls.append({"kind": "scan", "family": family, "ms": group,
                          "cells": cells * len(group), "workers": workers})
    return calls


def _case_scan(cost, rng):
    """One round is one pass over the box, one library call per m.

    The library's own scan splits its work by m, so per-m calls do the same
    work as one call per family, and give a pass 13 latency samples.
    """
    while True:
        yield scan_calls(1)


def _strata(cost, rng):
    """One Kronecker query and one acyclic 3-vertex query per round.

    Query cost depends mostly on d, so d walks a shuffled cycle over the
    whole d-range: any run covers the range evenly.
    """
    kron_cycle: list = []
    tri_cycle: list = []
    while True:
        if not kron_cycle:
            kron_cycle = [(a, b) for a in range(1, 9) for b in range(1, 9)]
            cost.shuffle(kron_cycle)
        if not tri_cycle:
            tri_cycle = [(a, b, c) for a in range(1, 5) for b in range(1, 5) for c in range(1, 5)]
            cost.shuffle(tri_cycle)
        m = rng.randint(3, 6)
        kron = {"kind": "kronecker", "arrows": [[0, m], [0, 0]], "theta": [1, 0],
                "d": list(kron_cycle.pop())}
        theta = [cost.randint(-2, 2) for _ in range(3)]
        arrows = [[0, rng.randint(0, 3), rng.randint(0, 3)], [0, 0, rng.randint(0, 3)], [0, 0, 0]]
        tri = {"kind": "acyclic3", "arrows": arrows, "theta": theta, "d": list(tri_cycle.pop())}
        yield [kron, tri]


def _mat2(rng):
    return [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]


def _framing_vectors(rng):
    out = []
    while len(out) < 3:
        v = [rng.randint(-3, 3), rng.randint(-3, 3)]
        if v != [0, 0]:
            out.append(v)
    return out


def _symmetric_b(rng, size: int, singular: bool):
    """Coefficient matrix b of a form on `size` variables, entries in [-5, 5].

    A singular form is built from a random Gram block G' and an integer
    vector w as [[G', G'w], [w^T G', w^T G' w]], so (w, -1) spans a kernel
    vector of the Gram matrix over Z and hence over every GF(p).
    """
    if not singular:
        b = [[0] * size for _ in range(size)]
        for i in range(size):
            for j in range(i, size):
                b[i][j] = b[j][i] = rng.randint(-5, 5)
        return b
    k = size - 1
    while True:
        g = [[0] * k for _ in range(k)]
        for i in range(k):
            g[i][i] = 2 * rng.randint(-5, 5)
            for j in range(i + 1, k):
                g[i][j] = g[j][i] = rng.randint(-5, 5)
        w = [rng.randint(-1, 1) for _ in range(k)]
        gw = [sum(g[i][j] * w[j] for j in range(k)) for i in range(k)]
        gram = [g[i] + [gw[i]] for i in range(k)] + [gw + [sum(x * y for x, y in zip(w, gw))]]
        if any(gram[i][j] for i in range(size) for j in range(size)):
            break
    assert bareiss_det(gram) == 0
    # b holds the square coefficients on the diagonal: half the Gram diagonal
    return [[gram[i][j] if i != j else gram[i][i] // 2 for j in range(size)] for i in range(size)]


def _fiber_split(cost, rng):
    """Four pairs, four triples, and five ternary and five quinary forms per round.

    Each size takes every prime once per round, one of its five forms
    singular. A singular quinary form costs between one and eight smooth
    ones, depending on the form, so matrices and forms come from `cost`; the
    seed picks the framing vectors and the order.
    """
    while True:
        out = []
        for kind, count in (("pair", 2), ("triple", 3)):
            for _ in range(4):
                out.append({"kind": kind, "mats": [_mat2(cost) for _ in range(count)],
                            "vs": _framing_vectors(rng)})
        for size in (3, 5):
            singular = cost.randrange(len(FORM_PRIMES))
            for i, p in enumerate(FORM_PRIMES):
                out.append({"kind": "form", "b": _symmetric_b(cost, size, i == singular), "p": p})
        rng.shuffle(out)
        yield out


def _primes(lo: int, hi: int) -> list[int]:
    sieve = [True] * (hi + 1)
    sieve[0] = sieve[1] = False
    for i in range(2, int(hi ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    return [p for p in range(lo, hi + 1) if sieve[p]]


CONIC_TIERS = (_primes(100, 999), _primes(1000, 3000))


def _prime_triple(rng, pool, solvable: bool):
    """Three distinct primes with mixed signs, rejection-sampled on Legendre's criterion."""
    while True:
        a, b, c = rng.sample(pool, 3)
        signs = [1, 1, -1] if rng.random() < 0.5 else [1, -1, -1]
        rng.shuffle(signs)
        triple = (a * signs[0], b * signs[1], c * signs[2])
        if legendre_solvable(*triple) == solvable:
            return triple


def _unimodular(cost, rng):
    """A row permutation of an upper-triangular matrix with diagonal +-1 and entries in [-2, 2].

    The congruence diagonalization of U^T diag(a, b, c) U then has the
    permuted primes as pivots, so only the permutation (drawn from `cost`)
    changes the search. A general unimodular U would hand the Holzer search
    a reduced form with coefficients up to 1e11 and a grid of up to 1e13
    cells, which does not finish; that case waits for a polynomial solver.
    """
    upper = [[1, rng.randint(-2, 2), rng.randint(-2, 2)], [0, 1, rng.randint(-2, 2)], [0, 0, 1]]
    perm = [0, 1, 2]
    cost.shuffle(perm)
    return [[upper[perm[i]][j] * (1 if rng.random() < 0.5 else -1) for j in range(3)]
            for i in range(3)]


def transformed_conic(diag, u):
    """Coefficients (xx, yy, zz, xy, xz, yz) of Q(U x) for Q = diag[0] x^2 + ... ."""
    m = [[sum(u[k][i] * diag[k] * u[k][j] for k in range(3)) for j in range(3)] for i in range(3)]
    return [m[0][0], m[1][1], m[2][2], 2 * m[0][1], 2 * m[0][2], 2 * m[1][2]]


# per tier: (solvable, through a change of variables); a quarter unsolvable
CONIC_SLOTS = (
    ((True, False), (True, False), (True, True), (False, True)) * 2,  # 3-digit primes
    ((True, False), (True, False), (True, True), (False, True)),      # 4-digit primes
)


def _conic_height(cost, rng):
    """Eight 3-digit and four 4-digit prime conics per round.

    Half the median's cluster and the whole tail are solvable conics of one
    tier each; one solvable and the unsolvable conic of every four go through
    a change of variables, so the general path is exercised in both outcomes.
    """
    while True:
        out = []
        for tier, slots in enumerate(CONIC_SLOTS):
            for solvable, general in slots:
                primes = _prime_triple(cost, CONIC_TIERS[tier], solvable)
                if rng.random() < 0.5:  # the negated conic has the same points
                    primes = tuple(-p for p in primes)
                coeffs = [primes[0], primes[1], primes[2], 0, 0, 0]
                if general:
                    coeffs = transformed_conic(primes, _unimodular(cost, rng))
                out.append({"kind": "conic", "tier": tier, "primes": list(primes), "coeffs": coeffs})
        rng.shuffle(out)
        yield out


_GENERATORS = {
    "case-scan": _case_scan,
    "strata": _strata,
    "fiber-split": _fiber_split,
    "conic-height": _conic_height,
}
WORKLOADS = tuple(_GENERATORS)
