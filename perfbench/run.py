#!/usr/bin/env python3
"""quivermod benchmark: seeded workloads, end-to-end metrics, per-module traced timings.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Workloads (see gen.py for the inputs):

  case-scan     the paper's case analysis, Kronecker m = 3..8 over [1,24]^2 and
                loop m = 2..8, d = 2..60, serial; one pass per fresh process,
                as the CLI runs it. The operation is a cell; its latency is
                the time of one per-m scan call over the cells it scans.
  strata        HN types with codimensions, wall, Brauer prediction, dimension
                and weights, on Kronecker and acyclic 3-vertex quivers.
  fiber-split   pair and triple model points through the conic bundle, and
                ternary / quinary forms through the Azumaya test over Q and GF(p).
  conic-height  diagonal and transformed conics with 3- and 4-digit prime
                coefficients through the rational-point search.

Load model: a closed loop with one client and one operation in flight, in a
single thread of a fresh interpreter. Every answer is checked afterwards by
the exact oracles in oracles.py, which do not import quivermod.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh-interpreter
import plus the workload's fixed set-up), ops_per_s, op_p50_ms, op_tail_ms,
success_rate and peak_rss_mb. --trace 1 prints the per-layer metrics from a
fixed amount of work run twice, untraced and traced (tracer.py), plus import
times and two reference points. The last line of stdout is the result JSON;
the line before it, and perfbench/out/, hold the run's metadata.
"""
from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gen
import oracles
import selftest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# Tail percentile per workload: fixed, so that commits are compared at the
# same percentile, and chosen to leave at least 10 operations beyond it at
# the throughput measured when the benchmark was defined. A case-scan run
# has 3 to 5 passes of 13 calls; its percentiles count cells, which puts the
# median and the tail inside the Kronecker calls that hold 89% of them.
TAIL_PERCENTILE = {"case-scan": 90.0, "strata": 98.0, "fiber-split": 95.0, "conic-height": 90.0}
# Rounds of fixed work in a traced run (about 5 s untraced at definition time).
TRACE_ROUNDS = {"case-scan": 1, "strata": 100, "fiber-split": 4, "conic-height": 8}
PROBES = 5
# Every child process must end before the whole run has taken this long.
DEADLINE = time.monotonic() + 170
# Per-layer names that differ from the span they read (methods carry their class).
ALIASES = {"clifford.even_part": "clifford.CliffordAlgebra.even_part"}
TAGS = ("full_rank", "deficient", "solvable", "unsolvable")

PROBE = """
import sys, time
sys.path.insert(0, {src!r})
t0 = time.perf_counter()
import {module} as qm
{setup}
seconds = time.perf_counter() - t0
print(seconds, sys.modules["numpy"].__version__)
"""


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _time_left() -> float:
    return max(1.0, DEADLINE - time.monotonic())


def _probe(module: str, setup: str = "") -> tuple[float, str]:
    """Median seconds of `import module` plus `setup` over fresh interpreters."""
    code = PROBE.format(src=str(ROOT / "src"), module=module, setup=setup)
    times, version = [], ""
    for _ in range(PROBES):
        res = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                             text=True, timeout=_time_left(), check=True)
        seconds, version = res.stdout.split()
        times.append(float(seconds))
    return statistics.median(times), version


def _worker(mode: str, workload: str, seed: int, seconds: float, rounds: int, spans=None):
    """Run worker.py in a fresh interpreter; return (records, summary)."""
    cmd = [sys.executable, str(HERE / "worker.py"), mode, workload, str(seed), str(seconds), str(rounds)]
    if spans:
        cmd.append(str(spans))
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=_time_left())
    if res.returncode != 0:
        raise RuntimeError(f"worker {mode} {workload} exited {res.returncode}: {res.stderr[-2000:]}")
    lines = [json.loads(line) for line in res.stdout.splitlines()]
    return lines[:-1], lines[-1]


def _measure(workload: str, seed: int, seconds: float, rounds: int = 0, mode: str = "plain",
             spans=None):
    """Records and summaries of one measurement. case-scan runs each pass in its own
    process, as the CLI does, so nothing one pass caches can serve the next."""
    if workload != "case-scan":
        records, summary = _worker(mode, workload, seed, seconds, rounds, spans)
        return records, [summary]
    records, summaries, busy = [], [], 0.0
    while (rounds and len(summaries) < rounds) or (not rounds and busy < seconds):
        recs, summary = _worker(mode, workload, seed, seconds, 1, spans)
        records += recs
        summaries.append(summary)
        busy += summary["busy_s"]
    return records, summaries


def _weight(rec) -> int:
    """Operations in a record: the cells of a scan call, else one."""
    return rec["in"].get("cells", 1)


def _check(records, checker):
    """(attempted, failed, first problems) over the records."""
    attempted = failed = 0
    problems = []
    for rec in records:
        attempted += _weight(rec)
        found = checker.check(rec)
        if found:
            failed += _weight(rec)
            problems.append({"in": rec["in"], "problems": found[:3]})
    return attempted, failed, problems[:10]


def _percentile(samples, pct: float):
    """Nearest-rank percentile of (latency, operations) samples, counting operations.

    Returns the latency and the number of operations beyond it.
    """
    ordered = sorted(samples)
    total = sum(n for _, n in ordered)
    rank = max(1, math.ceil(pct / 100.0 * total))
    seen = 0
    for latency, n in ordered:
        seen += n
        if seen >= rank:
            return latency, total - seen
    raise ValueError("no samples")


def _git_commit():
    """HEAD of the checkout, or None where it is not a git repository."""
    try:
        # the ceiling keeps git from reporting a repository that merely contains ROOT
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                             text=True, timeout=_time_left())
    except OSError:
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "quivermod").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def end_to_end(workload: str, seed: int, seconds: float, meta: dict):
    setup_s, meta["numpy"] = _probe("quivermod", gen.SETUP[workload])
    records, summaries = _measure(workload, seed, seconds)
    attempted, failed, problems = _check(records, oracles.Checker())
    busy = sum(r["s"] for r in records)
    # a scan call's cells each get the call's time per cell
    latencies = [(r["s"] / _weight(r), _weight(r)) for r in records]
    pct = TAIL_PERCENTILE[workload]
    p50, _ = _percentile(latencies, 50.0)
    tail, beyond = _percentile(latencies, pct)
    meta.update(rounds=sum(s["rounds"] for s in summaries), problems=problems,
                tail={"percentile": pct, "samples": len(latencies), "operations": attempted,
                      "operations_beyond": beyond})
    metrics = {
        "ops_per_s": (attempted / busy, "1/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "success_rate": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (max(s["peak_rss_mb"] for s in summaries), "MB"),
        "setup_s": (setup_s, "s"),
    }
    return attempted, failed, metrics


def per_layer(workload: str, seed: int, meta: dict):
    values = {}
    values["import.numpy_s"], meta["numpy"] = _probe("numpy")
    values["import.quivermod_s"], _ = _probe("quivermod")
    rounds = TRACE_ROUNDS[workload]
    OUT.mkdir(exist_ok=True)
    spans = OUT / f"spans-{workload}.bin.gz"
    plain, _ = _measure(workload, seed, 0, rounds)
    traced, summaries = _measure(workload, seed, 0, rounds, mode="traced", spans=spans)
    refs, ref_summary = _worker("refs", workload, seed, 0, 0)
    attempted, failed, problems = _check(plain + traced + refs, oracles.Checker())
    meta.update(rounds=rounds, problems=problems, spans_file=str(spans.relative_to(ROOT)))

    if len(summaries) != 1:
        raise RuntimeError("the traced work must run in one process")
    trace = summaries[0]["trace"]
    names = trace["names"]
    values.update(trace["counters"])
    values.update(ref_summary["refs"])
    values["trace.overhead_s"] = sum(r["s"] for r in traced) - sum(r["s"] for r in plain)
    values["clifford.gfp_overflow_regime"] = sum(
        1 for r in plain if r["in"]["kind"] == "form"
        and 2 ** (len(r["in"]["b"]) - 1) * (r["in"]["p"] - 1) ** 2 >= 2 ** 63)
    values["trace.spans"] = trace["spans"]

    metrics = {}
    for spec in _benchmark()["per_layer"]:
        metrics[spec["name"]] = (_layer_value(spec["name"], values, names), spec["unit"])
    return attempted, failed, metrics


def _layer_value(metric: str, values: dict, names: dict):
    if metric in values:
        return values[metric]
    base, stat = metric.rsplit(".", 1)
    base = ALIASES.get(base, base)
    if base in names:
        return names[base][stat]
    span, _, tag = base.rpartition(".")
    if tag in TAGS and span in names:
        return 0  # no call ended with this outcome
    raise KeyError(f"per-layer metric {metric!r} has no source")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="quivermod benchmark")
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "quivermod" / "__init__.py").is_file():
        return _fail(f"no quivermod sources under {ROOT / 'src'}; run from a full checkout")
    broken = selftest.run()
    if broken:
        return _fail("oracle self-test failed: " + "; ".join(broken[:5]))
    # the build: byte-compile the package, as an install would
    if not compileall.compile_dir(str(ROOT / "src" / "quivermod"), quiet=1):
        return _fail("byte-compiling src/quivermod failed")

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "git_commit": _git_commit(), "src_sha256": _source_digest()}
    started = time.perf_counter()
    try:
        if args.trace:
            attempted, failed, metrics = per_layer(args.workload, args.seed, meta)
        else:
            attempted, failed, metrics = end_to_end(args.workload, args.seed, args.seconds, meta)
    except (RuntimeError, subprocess.SubprocessError, ValueError, KeyError) as exc:
        return _fail(f"run failed: {exc}")
    meta["wall_s"] = time.perf_counter() - started

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    record = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({"meta": meta, "result": result}, indent=1) + "\n")
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
