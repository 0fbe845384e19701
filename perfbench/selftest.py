"""Self-tests of the oracles: each must accept a right answer and flag a corrupted one.

The oracles are also anchored to facts that do not come from them: a
brute-force search inside Holzer's bound for Legendre's criterion, and the
README and ROADMAP values for the criterion and the HN-type count. run.py
runs these before every measurement and refuses to measure if one fails.

    python3 perfbench/selftest.py
"""
from __future__ import annotations

import copy
import math
import random
import sys

import gen
import oracles as o

KRON3 = [[0, 3], [0, 0]]


def _holzer_solvable(a: int, b: int, c: int) -> bool:
    """Brute force: a nontrivial solution exists iff one exists inside Holzer's bound."""
    for x in range(math.isqrt(abs(b * c)) + 1):
        for y in range(math.isqrt(abs(a * c)) + 1):
            if x == 0 and y == 0:
                continue
            q, r = divmod(-(a * x * x + b * y * y), c)
            if r == 0 and q >= 0 and math.isqrt(q) ** 2 == q:
                return True
    return False


def _squarefree_coprime(a, b, c):
    return all(o._squarefree(x) == x for x in (a, b, c)) and \
        math.gcd(a, b) == math.gcd(a, c) == math.gcd(b, c) == 1


def _flags(checker, rec, mutate) -> bool:
    bad = copy.deepcopy(rec)
    mutate(bad)
    return bool(checker.check(bad))


def run() -> list[str]:
    """Failures of the self-tests, as messages; empty when all pass."""
    fails: list[str] = []
    checker = o.Checker()

    def expect(cond, msg):
        if not cond:
            fails.append(msg)

    def corrupt(rec, mutations):
        expect(not checker.check(rec), f"a right {rec['in']['kind']} answer was flagged: "
                                       f"{checker.check(rec)}")
        for label, mutate in mutations:
            expect(_flags(checker, rec, mutate), f"{rec['in']['kind']}: corruption not flagged: {label}")

    # Legendre's criterion against brute force, on squarefree coprime triples
    small = [x for x in range(-15, 16) if x and o._squarefree(x) == x]
    for a in small:
        for b in small:
            for c in small:
                if a <= b <= c and _squarefree_coprime(a, b, c):
                    expect(o.legendre_solvable(a, b, c) == _holzer_solvable(a, b, c),
                           f"legendre_solvable{(a, b, c)} disagrees with brute force")
    # the oracle's diagonalization keeps solvability under a change of variables
    rng = random.Random(7)
    for _ in range(40):
        primes = gen._prime_triple(rng, gen.CONIC_TIERS[0], rng.random() < 0.5)
        coeffs = gen.transformed_conic(primes, gen._unimodular(rng, rng))
        expect(o.conic_solvable(coeffs) == o.legendre_solvable(*primes),
               f"conic_solvable disagrees with the primes {primes}")

    # case-scan: one call per m, as the workload makes them
    for call in gen.scan_calls(1):
        m = call["ms"][0]
        found = {("kronecker", 3): [[3, [2, 2]]], ("loop", 2): [[2, 2]]}.get((call["family"], m), [])
        scan = {"in": call, "err": None, "s": 1.0, "out": {"exceptions": found, "scanned": call["cells"]}}
        corrupt(scan, [
            ("extra exception", lambda r: r["out"]["exceptions"].append([m, [5, 5]])),
            ("wrong cell count", lambda r: r["out"].__setitem__("scanned", r["in"]["cells"] - 1)),
            ("exception raised", lambda r: r.__setitem__("err", "RuntimeError: boom")),
        ] + ([("missing exception", lambda r: r["out"]["exceptions"].clear())] if found else []))

    # strata: known values first (README and ROADMAP), then corruptions
    expect(o.criterion(KRON3, (1, 0), (2, 3)) == (True, None, -3), "criterion at m=3, d=(2,3)")
    expect(not o.criterion(KRON3, (1, 0), (2, 2))[0], "criterion must fail at m=3, d=(2,2)")
    expect(not o.criterion([[2]], (0,), (2,))[0], "criterion must fail at loop m=2, d=2")
    expect(len(o.hn_types((1, 0), (8, 8))) == 877, "877 HN types at (8, 8)")
    inp = {"kind": "kronecker", "arrows": KRON3, "theta": [1, 0], "d": [2, 3]}
    strata = {"in": inp, "err": None, "s": 1.0,
              "out": dict(o.strata_answer(KRON3, [1, 0], [2, 3]), weights=[-1, 1])}
    corrupt(strata, [
        ("type dropped", lambda r: r["out"]["types"].pop()),
        ("types reordered", lambda r: r["out"]["types"].reverse()),
        ("codimension off", lambda r: r["out"]["codims"].__setitem__(0, r["out"]["codims"][0] + 1)),
        ("wall changed", lambda r: r["out"].__setitem__("wall", 1)),
        ("brauer status", lambda r: r["out"]["brauer"].__setitem__(1, "conjectural")),
        ("dimension off", lambda r: r["out"].__setitem__("dim", r["out"]["dim"] + 1)),
        ("invalid weights", lambda r: r["out"].__setitem__("weights", [1, 1])),
    ])

    # fiber-split points: the README pair and triple
    mats = [[[0, 1], [1, 0]], [[1, 0], [0, -1]]]
    vs = [[1, 0], [1, 1], [2, -1]]
    inv, conic, semis = o.pair_point(*mats, vs)
    pair = {"in": {"kind": "pair", "mats": mats, "vs": vs}, "err": None, "s": 1.0,
            "out": {"inv": [str(x) for x in inv], "stable": True, "burnside": 4,
                    "semis": [[str(x) for x in s] for s in semis], "quat": ["1", "1"],
                    "split": True, "point": {"solvable": True, "witness": [1, 1, 0]}}}
    corrupt(pair, [
        ("witness off the conic", lambda r: r["out"]["point"].__setitem__("witness", [1, 2, 0])),
        ("witness not primitive", lambda r: r["out"]["point"].__setitem__("witness", [2, 2, 0])),
        ("missing witness", lambda r: r["out"]["point"].__setitem__("witness", None)),
        ("split flipped", lambda r: r["out"].__setitem__("split", False)),
        ("quaternion not split", lambda r: r["out"].__setitem__("quat", ["-1", "-1"])),
        ("stability flipped", lambda r: r["out"].__setitem__("stable", False)),
        ("semi-invariant off", lambda r: r["out"]["semis"][1].__setitem__(1, "7")),
        ("invariant off", lambda r: r["out"]["inv"].__setitem__(0, "3")),
        ("burnside off", lambda r: r["out"].__setitem__("burnside", 3)),
    ])
    mats = [[[1, 0], [0, 0]], [[0, 1], [0, 0]], [[0, 0], [0, 0]]]  # images in one line
    inv, conic, semis = o.triple_point(*mats, vs)
    triple = {"in": {"kind": "triple", "mats": mats, "vs": vs}, "err": None, "s": 1.0,
              "out": {"inv": [str(x) for x in inv], "stable": False, "destab": [2, 1],
                      "semis": [[str(x) for x in s] for s in semis], "quat": None,
                      "split": None, "point": None}}
    corrupt(triple, [
        ("unrealized destabilizer", lambda r: r["out"].__setitem__("destab", [1, 0])),
        ("missing destabilizer", lambda r: r["out"].__setitem__("destab", None)),
        ("stability flipped", lambda r: r["out"].__setitem__("stable", True)),
    ])

    # fiber-split forms: smooth and singular, over Q and GF(p)
    form = {"in": {"kind": "form", "b": [[1, 0, 0], [0, 1, 0], [0, 0, 1]], "p": 5},
            "err": None, "s": 1.0, "out": {"q": [4, True], "p": [4, True]}}
    corrupt(form, [
        ("GF(p) verdict flipped", lambda r: r["out"].__setitem__("p", [4, False])),
        ("wrong dimension", lambda r: r["out"].__setitem__("q", [8, True])),
    ])
    singular = {"in": {"kind": "form", "b": [[1, 2, 0], [2, 1, 0], [0, 0, 1]], "p": 2147483647},
                "err": None, "s": 1.0, "out": {"q": [4, False], "p": [4, False]}}
    corrupt(singular, [("Azumaya claimed", lambda r: r["out"].__setitem__("q", [4, True]))])

    # conic-height
    conic = {"in": {"kind": "conic", "primes": [3, 5, -2], "coeffs": [3, 5, -2, 0, 0, 0]},
             "err": None, "s": 1.0, "out": {"solvable": True, "witness": [1, 1, 2]}}
    corrupt(conic, [
        ("witness off the conic", lambda r: r["out"].__setitem__("witness", [1, 1, 3])),
        ("verdict flipped", lambda r: r.__setitem__("out", {"solvable": False, "witness": None})),
        ("no witness in the Holzer bound", lambda r: r.__setitem__(
            "err", "RuntimeError: locally solvable conic with no witness inside the Holzer bound")),
    ])
    unsolvable = {"in": {"kind": "conic", "primes": [3, 5, -7], "coeffs": [3, 5, -7, 0, 0, 0]},
                  "err": None, "s": 1.0, "out": {"solvable": False, "witness": None}}
    corrupt(unsolvable, [("claimed solvable", lambda r: r.__setitem__(
        "out", {"solvable": True, "witness": [1, 1, 1]}))])
    return fails


if __name__ == "__main__":
    problems = run()
    for p in problems:
        print("FAIL", p)
    print("selftest:", "ok" if not problems else f"{len(problems)} failures")
    sys.exit(1 if problems else 0)
