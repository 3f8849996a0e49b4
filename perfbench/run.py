#!/usr/bin/env python3
"""Benchmark of mahlerlat's public API, end to end and layer by layer.

    python3 perfbench/run.py --workload member_pipeline --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run it from anywhere inside a mahlerlat source checkout; it imports the
library from ``src/``.  Each workload is a closed loop, one op at a time, in
this single process.  ``--trace 0`` measures the end-to-end metrics with
tracing off.  ``--trace 1`` times an untraced and then a traced stretch of
the same inputs and reports the per-layer metrics from the spans, with the
tracing overhead.  Either way the outputs pass a correctness gate built on
independent oracles, the workload's known failures run untimed as probes
and are reported apart from the ops, a result file with provenance goes to
``perfbench/out/``, and the last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Metric names and units
come from ``BENCHMARK.json`` at the checkout root.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import mpmath
import numpy
import sympy

import oracles
import spans
from spans import ARG, FAILED, NAME, OP, PARENT, RESULT

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("palindromic_box", "member_pipeline", "dense_general")

LEHMER_TEXT = " ".join(map(str, oracles.LEHMER))
COLD_RUNS = 5  # timed fresh interpreters per cold-start metric; the median is reported
GATE_SAMPLE = 6  # ops re-run and checked against oracles
RERUN_MAX_S = 1.0  # sampled ops slower than this are checked but not re-run
TRACE_SHARE = 0.25  # of --seconds, for each of the untraced and traced stretches
FAILED_FLOOR = 1e-4  # added to failed_frac: one failed input in ten thousand
ORACLE_CHECKS = {"member_pipeline": oracles.check_member, "dense_general": oracles.check_dense}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# provenance and cold start
# ---------------------------------------------------------------------------


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    return {
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "sympy": sympy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def cold_start(argv: list[str]) -> tuple[float, str]:
    """Median wall time of COLD_RUNS fresh interpreters running argv, after one
    untimed run that fills the bytecode cache; returns it with the last stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = []
    for i in range(COLD_RUNS + 1):
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"{argv} exited {proc.returncode}: {proc.stderr.strip()}")
        if i:
            times.append(elapsed)
    return statistics.median(times), proc.stdout


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ---------------------------------------------------------------------------
# the closed loop
# ---------------------------------------------------------------------------


def timed_loop(wl, seed: int, seconds: float, tracer=None) -> list:
    """Run ops one at a time until their summed latency reaches `seconds`,
    then finish the workload's input cycle.  Returns [(input, OpResult)]."""
    results = []
    busy = 0.0
    inputs = wl.inputs(seed)
    while busy < seconds or len(results) % wl.cycle_ops:
        inp = next(inputs)
        start = time.perf_counter()
        if tracer is None:
            res = wl.run(inp)
        else:
            tracer.op = len(results)
            span = tracer.open("op")
            res = wl.run(inp)
            tracer.close(span)
        res.latency = time.perf_counter() - start
        busy += res.latency
        results.append((inp, res))
    return results


def ops_per_s(results) -> float:
    """Input units (candidates on the box, polynomials elsewhere) per second."""
    return sum(sum(r.units.values()) for _, r in results) / sum(r.latency for _, r in results)


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------


def gate(wl, results, seed: int) -> list[str]:
    """Same input, same exact outputs; a seeded sample re-run and checked
    against independent oracles."""
    import workloads

    problems = []
    seen: dict = {}
    for _, res in results:
        key, digest = tuple(res.units), res.digest()
        if seen.setdefault(key, digest) != digest:
            problems.append(f"{key}: exact outputs differ between runs of one input")
    if wl.name == "palindromic_box":
        problems += oracles.check_box(results[0][1], seed, workloads.BOX_DEGREE,
                                      workloads.BOX_HEIGHT)
        return problems
    rng = random.Random(f"gate/{wl.name}/{seed}")
    for i in sorted(rng.sample(range(len(results)), min(GATE_SAMPLE, len(results)))):
        inp, res = results[i]
        if res.latency < RERUN_MAX_S and wl.run(inp).digest() != res.digest():
            problems.append(f"{inp}: exact outputs differ on re-run")
        problems += [f"{inp}: {p}" for p in ORACLE_CHECKS[wl.name](inp.coeffs, res)]
    return problems


def known_failures(wl, results, seed: int) -> dict:
    """Run the workload's known-failure probes, untimed, after the timed
    loops.  Their outcomes are reported apart from the ops; on a seeded
    sample, the probe steps that succeed must still match the oracles."""
    probes = wl.known_failures(results)
    sample = random.Random(f"probe/{wl.name}/{seed}").sample(probes, min(GATE_SAMPLE, len(probes)))
    problems = [f"known-failure probe {p}: {problem}" for op in sample for p in op.units
                for problem in ORACLE_CHECKS[wl.name](p, op)]
    failed = sum(op.failed for op in probes)
    return {"attempted": len(probes), "failed": failed,
            "failed_frac": failed / len(probes) if probes else 0.0,
            "outcomes": dict(Counter(op.outcome for op in probes)),
            "errors": dict(Counter(e for op in probes for e in op.errors).most_common(10)),
            "problems": problems}


def exact_digest(results) -> str:
    return hashlib.sha256("".join(r.digest() for _, r in results).encode()).hexdigest()


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def end_to_end(wl, results, setup_s: float, rss_mb: float) -> tuple[dict, dict]:
    lat = sorted(r.latency for _, r in results)
    n = len(lat)
    if wl.tail_percentile is None:
        idx, label = n - 1, "max"
    else:
        idx, label = math.ceil(wl.tail_percentile / 100 * n) - 1, f"p{wl.tail_percentile}"
    weight = sum(sum(res.units.values()) for _, res in results)
    failed_weight = sum(res.units[k] for _, res in results for k in res.failed_units)
    metrics = {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(results),
        "op_p50_ms": statistics.median(lat) * 1000,
        "op_tail_ms": lat[idx] * 1000,
        # The floor keeps the metric above 0, so a ratio to it is defined.
        "failed_frac": failed_weight / weight + FAILED_FLOOR,
        "peak_rss_mb": rss_mb,
    }
    info = {"op_tail": f"{label} of {n} ops, {n - idx - 1} beyond it",
            "failed_inputs": f"{failed_weight} of {weight}"}
    return metrics, info


def self_check(tracer, traced) -> tuple[float, list[str]]:
    """Each op's span self times must sum to its wall time."""
    per_op: dict = defaultdict(float)
    for rec, own in zip(tracer.spans, tracer.self_times()):
        per_op[rec[OP]] += own
    worst = 0.0
    problems = []
    for i, (_, res) in enumerate(traced):
        err = abs(per_op.pop(i, 0.0) - res.latency)
        worst = max(worst, err)
        if err > 1e-4 + 1e-3 * res.latency:
            problems.append(f"op {i}: span self times sum off its wall time by {err:.2e} s")
    if per_op:
        problems.append(f"spans outside any op: {sorted(per_op)}")
    misplaced = tracer.nesting_errors()
    if misplaced:
        problems.append(f"{misplaced} spans lie outside their parent")
    return worst, problems


def per_layer(names, tracer, traced, plain_rate: float, traced_rate: float,
              import_s: float, check_err_s: float, known_failed_frac: float) -> dict:
    """Per-op layer metrics from the spans.  A name "<span or layer>.<stat>"
    with stat calls, self_s or failed is read off the spans directly."""
    ops = len(traced)
    stats = {"calls": Counter(), "self_s": Counter(), "failed": Counter()}
    polys = defaultdict(set)  # (span name, op) -> distinct polynomials
    counts: Counter = Counter()
    for rec, own in zip(tracer.spans, tracer.self_times()):
        name = rec[NAME]
        for key in {name, name.split(".")[0]}:
            stats["calls"][key] += 1
            stats["self_s"][key] += own
            stats["failed"][key] += rec[FAILED]
        if name in ("roots.refine_roots", "mahler.mahler_measure"):
            polys[name, rec[OP]].add(rec[ARG].coeffs)
        result = rec[RESULT]
        if name == "mahler.kronecker_test":
            counts["kronecker_true"] += result is True
            if rec[PARENT] >= 0 and tracer.spans[rec[PARENT]][NAME] == "salem.search_box":
                counts["distinct"] += 1
        elif name == "lattice.dirichlet_c" and result is not None:
            counts["c_total"] += result.c
        elif name == "salem.search_box" and result is not None:
            counts["scanned"] += result.scanned
            counts["certified"] += len(result.minima)

    def per_poly(name):
        distinct = sum(len(v) for (n, _), v in polys.items() if n == name)
        return stats["calls"][name] / distinct if distinct else 0.0

    derived = {
        "roots.refine_roots.per_poly": per_poly("roots.refine_roots"),
        "mahler.mahler_measure.per_poly": per_poly("mahler.mahler_measure"),
        "mahler.kronecker_test.true": counts["kronecker_true"] / ops,
        "lattice.dirichlet_c.c_total": counts["c_total"] / ops,
        "salem.scanned": counts["scanned"] / ops,
        "salem.distinct": counts["distinct"] / ops,
        "salem.certified": counts["certified"] / ops,
        "salem.useful_ratio": counts["certified"] / counts["scanned"] if counts["scanned"] else 0.0,
        "cli.import_s": import_s,
        "trace.overhead_ops_per_s": traced_rate - plain_rate,
        "trace.untraced_ops_per_s": plain_rate,
        "trace.spans_per_op": len(tracer.spans) / ops,
        "trace.self_check_err_s": check_err_s,
        "known_failures.failed_frac": known_failed_frac,
    }
    out = {}
    for name in names:
        key, stat = name.rsplit(".", 1)
        out[name] = derived[name] if name in derived else stats[stat][key] / ops
    return out


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_workload(args) -> int:
    if not (SRC / "mahlerlat" / "__init__.py").is_file():
        print(f"error: no mahlerlat sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import mahlerlat

    if Path(mahlerlat.__file__).resolve().parent != SRC / "mahlerlat":
        print(f"error: imported mahlerlat from {mahlerlat.__file__}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    record = {"workload": wl.name, "description": wl.description,
              "provenance": provenance(args.seed), "seconds": args.seconds, "trace": args.trace}
    problems: list[str] = []
    OUT.mkdir(exist_ok=True)
    if args.trace == 0:
        setup_s, stdout = cold_start(["-m", "mahlerlat.cli", "mahler", LEHMER_TEXT])
        if json.loads(stdout)["value"] != oracles.LEHMER_M:
            problems.append(f"CLI mahler on Lehmer's polynomial printed {stdout!r}")
        wl.warmup()
        spans.assert_unwrapped()
        results = timed_loop(wl, args.seed, args.seconds)
        rss = peak_rss_mb()
        known = known_failures(wl, results, args.seed)
        problems += gate(wl, results, args.seed) + known["problems"]
        metrics, info = end_to_end(wl, results, setup_s, rss)
        names = spec["end_to_end"]
    else:
        import_s, _ = cold_start(["-c", "import mahlerlat.cli"])
        wl.warmup()
        spans.assert_unwrapped()
        plain = timed_loop(wl, args.seed, args.seconds * TRACE_SHARE)
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced = timed_loop(wl, args.seed, args.seconds * TRACE_SHARE, tracer)
        finally:
            tracer.remove()
        results = plain + traced
        known = known_failures(wl, results, args.seed)
        err_s, check_problems = self_check(tracer, traced)
        problems += check_problems + gate(wl, results, args.seed) + known["problems"]
        names = spec["per_layer"]
        metrics = per_layer([m["name"] for m in names], tracer, traced, ops_per_s(plain),
                            ops_per_s(traced), import_s, err_s, known["failed_frac"])
        info = {"untraced_ops": len(plain), "traced_ops": len(traced),
                "spans_file": str(OUT / f"{wl.name}-seed{args.seed}-spans.jsonl.gz")}
        tracer.write(info["spans_file"])

    outcomes = Counter(r.outcome for _, r in results)
    errors = Counter(e for _, r in results for e in r.errors)
    record.update({
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in names},
        "info": info,
        "outcomes": {k: outcomes[k] for k in workloads.OUTCOMES},
        "errors": dict(errors.most_common(10)),
        "known_failures": {k: v for k, v in known.items() if k != "problems"},
        "exact_digest": exact_digest(results),
        "latencies_ms": [r.latency * 1000 for _, r in results],
        "problems": problems,
    })
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))

    for name, m in record["metrics"].items():
        print(f"{wl.name:16s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print(f"{wl.name:16s} {json.dumps(info)}")
    print(f"{wl.name:16s} outcomes {json.dumps(record['outcomes'])}  digest {record['exact_digest'][:16]}")
    print(f"{wl.name:16s} known failures, untimed: {known['failed']} of {known['attempted']} "
          f"probes {json.dumps(known['outcomes'])}")
    for p in problems[:20]:
        print(f"{wl.name:16s} GATE FAILED: {p}")
    print(f"{wl.name:16s} result file {path}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(results),
        "failed": sum(r.failed for _, r in results),
        "metrics": record["metrics"],
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so each peak RSS is its own."""
    status = 0
    summary = {}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run([sys.executable, __file__, "--workload", name, "--seed",
                               str(args.seed), "--seconds", str(args.seconds), "--trace",
                               str(args.trace)], capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        summary[name] = json.loads(proc.stdout.splitlines()[-1])
        status |= not summary[name]["correct"]
    print(json.dumps(summary))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
