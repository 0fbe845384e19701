"""One measuring process: imports quivermod from the checkout and runs operations.

Started by run.py in a fresh interpreter, so import cost, caches and memory
belong to this process alone. It pulls rounds of seeded inputs from gen.py,
times each operation with the clock around the library calls only (input
generation and encoding stay outside), and prints one JSON line per
operation followed by a summary line. It checks nothing: run.py does that
with oracles.py.

    python3 perfbench/worker.py <mode> <workload> <seed> <seconds> <rounds> [spans-file]

mode is `plain`, `traced` or `refs`. A run stops after `rounds` rounds when
rounds > 0, otherwise once the summed operation time reaches `seconds`.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402  (benchmark input generators, no quivermod import)

def _s(x) -> str:
    return str(Fraction(x))


# ---------------------------------------------------------------------------
# operations: `run_*` makes the library calls (timed), `enc_*` encodes (not timed)


def run_scan(qm, inp):
    if inp["family"] == "kronecker":
        box = qm.grid_box(gen.KRONECKER_D_MAX, gen.KRONECKER_D_MAX)
        t0 = time.perf_counter()
        found = qm.kronecker_criterion_exceptions(inp["ms"], box, workers=inp["workers"])
    else:
        t0 = time.perf_counter()
        found = qm.loop_criterion_exceptions(inp["ms"], gen.LOOP_DS, workers=inp["workers"])
    return time.perf_counter() - t0, found


def enc_scan(found):
    return {"exceptions": [[m, list(d) if isinstance(d, tuple) else d] for m, d in found.exceptions],
            "scanned": found.scanned}


def run_strata(qm, inp):
    t0 = time.perf_counter()
    q = qm.Quiver.from_matrix(inp["arrows"])
    theta, d = inp["theta"], inp["d"]
    types = qm.hn_types(q, theta, d)
    codims = [qm.hn_codimension(q, t) for t in types]
    wall = qm.strictly_semistable_wall_codim(q, theta, d)
    brauer = qm.predict_brauer(q, theta, d)
    dim = qm.moduli_dimension(q, d)
    weights = qm.linearization_weights(d) if qm.gcd_of(d) == 1 else None
    return time.perf_counter() - t0, (types, codims, wall, brauer, dim, weights)


def enc_strata(raw):
    types, codims, wall, brauer, dim, weights = raw
    return {"types": [[list(p) for p in t.parts] for t in types], "codims": codims, "wall": wall,
            "brauer": [brauer.order, brauer.status], "dim": dim,
            "weights": None if weights is None else list(weights)}


def run_point(qm, inp):
    mats, vs = inp["mats"], inp["vs"]
    t0 = time.perf_counter()
    if inp["kind"] == "pair":
        point = qm.l2_invariants(*mats)
        stable = qm.l2_is_stable(*mats)
        check = qm.burnside_dimension(mats)
        semis = [qm.l2_semiinvariants(*mats, v) for v in vs]
        conic = qm.l2_conic(point) if stable else None
    else:
        point = qm.k3_invariants(*mats)
        stable = qm.k3_is_stable(*mats)
        check = qm.k3_destabilizer(*mats)
        semis = [qm.k3_semiinvariants(*mats, v) for v in vs]
        conic = qm.k3_conic(point) if stable else None
    quat = split = found = None
    if stable:
        quat, split = qm.clifford_invariant_of_model_point(point)
        found = qm.conic_has_rational_point(conic)
    return time.perf_counter() - t0, (inp["kind"], point, stable, check, semis, quat, split, found)


def enc_point(raw):
    kind, point, stable, check, semis, quat, split, found = raw
    out = {"inv": [_s(x) for x in point.coordinates()], "stable": stable,
           "semis": [[_s(x) for x in s] for s in semis],
           "quat": None if quat is None else [_s(quat.u), _s(quat.v)], "split": split,
           "point": None if found is None else enc_conic(found)}
    if kind == "pair":
        out["burnside"] = check
    else:
        out["destab"] = None if check is None else list(check)
    return out


def run_form(qm, inp):
    t0 = time.perf_counter()
    verdicts = []
    for char in (0, inp["p"]):
        even = qm.build_clifford(qm.QuadraticFormB(inp["b"], char=char)).even_part()
        verdicts.append((even.dim, qm.is_azumaya_over_field(even)))
    return time.perf_counter() - t0, verdicts


def enc_form(raw):
    return {"q": list(raw[0]), "p": list(raw[1])}


def run_conic(qm, inp):
    t0 = time.perf_counter()
    found = qm.conic_has_rational_point(qm.ConicFiber(*(Fraction(c) for c in inp["coeffs"])))
    return time.perf_counter() - t0, found


def enc_conic(found):
    return {"solvable": found.solvable,
            "witness": None if found.witness is None else [int(t) for t in found.witness]}


OPS = {
    "scan": (run_scan, enc_scan),
    "kronecker": (run_strata, enc_strata),
    "acyclic3": (run_strata, enc_strata),
    "pair": (run_point, enc_point),
    "triple": (run_point, enc_point),
    "form": (run_form, enc_form),
    "conic": (run_conic, enc_conic),
}

# reference points measured once per traced run, in their own process
REF_CONIC = {"kind": "conic", "primes": [9973, 9511, -6737], "coeffs": [9973, 9511, -6737, 0, 0, 0]}
REF_POOL = gen.scan_calls(len(gen.LOOP_MS), workers=2)  # one call per family, two processes


def run_one(qm, inp, emit):
    """Run one operation; return its seconds. Failures are recorded, not raised."""
    run, enc = OPS[inp["kind"]]
    t0 = time.perf_counter()
    seconds = None
    try:
        seconds, raw = run(qm, inp)
        rec = {"in": inp, "out": enc(raw), "err": None, "s": seconds}
    except Exception as exc:  # a library failure is a failed operation, recorded
        if seconds is None:
            seconds = time.perf_counter() - t0
        rec = {"in": inp, "out": None, "err": f"{type(exc).__name__}: {exc}", "s": seconds}
    emit(rec)
    return seconds


# ---------------------------------------------------------------------------
# tracing


def _criterion_hook(tr, idx, args, result):
    if "kronecker.kronecker_criterion_exceptions" in tr.open_names():
        q, theta, d = args
        tr.counters["kronecker.criterion_calls"] += 1
        tr.seen["kronecker.criterion_args"].add((q, tuple(theta), tuple(d)))


def _hn_hook(tr, idx, args, result):
    tr.counters["stability.hn_types.types"] += len(result)


def _azumaya_hook(tr, idx, args, result):
    tr.tags[idx] = "full_rank" if result else "deficient"


def _conic_hook(tr, idx, args, result):
    tr.tags[idx] = "solvable" if result.solvable else "unsolvable"
    if result.witness is not None:
        big = max(abs(int(t)) for t in result.witness)
        tr.counters["hilbert.witness_max_abs"] = max(tr.counters["hilbert.witness_max_abs"], big)


HOOKS = {
    "stability.check_ample_stability_criterion": _criterion_hook,
    "stability.hn_types": _hn_hook,
    "clifford.is_azumaya_over_field": _azumaya_hook,
    "hilbert.conic_has_rational_point": _conic_hook,
}


def install_tracer(qm):
    from tracer import Tracer

    tr = Tracer()
    for counter in ("stability.hn_types.types", "hilbert.witness_max_abs"):
        tr.counters[counter] = 0
    layers = [qm.quiver, qm.stability, qm.kronecker, qm.models, qm.linalg, qm.clifford, qm.hilbert]
    methods = [(qm.clifford.QuadraticFormB, "diagonalize"), (qm.clifford.CliffordAlgebra, "even_part")]
    tr.install("quivermod", layers, methods, HOOKS)
    return tr


# ---------------------------------------------------------------------------


def main(argv) -> int:
    mode, workload, seed, seconds, rounds = argv[:5]
    seed, seconds, rounds = int(seed), float(seconds), int(rounds)
    spans_file = argv[5] if len(argv) > 5 else None

    import quivermod as qm

    if Path(qm.__file__).resolve().parent != ROOT / "src" / "quivermod":
        print(f"quivermod imported from {qm.__file__}, not from this checkout", file=sys.stderr)
        return 2
    exec(gen.SETUP[workload], {"qm": qm})

    def emit(rec):
        sys.stdout.write(json.dumps(rec) + "\n")

    if mode == "refs":
        conic_s = run_one(qm, REF_CONIC, emit)
        pool_s = sum(run_one(qm, inp, emit) for inp in REF_POOL)
        emit({"summary": True, "refs": {"hilbert.conic_ref_9973_s": conic_s, "kronecker.pool_w2_s": pool_s}})
        return 0

    tracer = install_tracer(qm) if mode == "traced" else None
    busy, done = 0.0, 0
    stream = gen.rounds(workload, seed)
    while (rounds and done < rounds) or (not rounds and busy < seconds):
        for inp in next(stream):
            busy += run_one(qm, inp, emit)
        done += 1
    summary = {"summary": True, "busy_s": busy, "rounds": done,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if tracer is not None:
        tracer.uninstall()
        summary["trace"] = tracer.summary()
        calls = tracer.counters.get("kronecker.criterion_calls", 0)
        summary["trace"]["counters"]["kronecker.distinct_per_criterion_call"] = (
            len(tracer.seen["kronecker.criterion_args"]) / calls if calls else 0.0)
        if spans_file:
            tracer.dump(spans_file)
    emit(summary)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
