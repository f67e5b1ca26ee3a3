"""relalg benchmark: one workload per process, closed loop, one caller.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs the workload's set-up several times, then repeats its operation until
``--seconds`` have passed, checking every output outside the timed region.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced operations and reports the per-layer metrics.
The last line of standard output is one JSON object; the exit code is 1 when
any output was wrong.  See bench/README.md for what each number means.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import oracle
from spans import LAYERS, Tracer

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

SETUP_REPS = 7

# The interpreter's speed on a shared host can drift by a factor of two
# within seconds, which would swamp any change to relalg.  So the benchmark
# keeps timing a fixed calibration kernel: CAL_REPEATS times before and after
# every set-up and operation, and every PROBE_PERIOD_S during an operation,
# from a timer signal.  Each time is scaled by REFERENCE_KERNEL_S over the
# kernel's mean time across all of those runs, so reported seconds are
# seconds at the speed where the kernel takes REFERENCE_KERNEL_S.  Kernel
# runs inside an operation are subtracted from its time.
CAL_TABLES = (8, [[i | j for j in range(8)] for i in range(8)], [7 ^ i for i in range(8)],
              [[i & j for j in range(8)] for i in range(8)], list(range(8)), 7)
CAL_REPEATS = 40
PROBE_PERIOD_S = 0.05
REFERENCE_KERNEL_S = 0.001

# name -> unit; BENCHMARK.json lists the same names (checked by test_bench.py)
END_TO_END = {
    "op_s.p50": "s",
    "op_s.tail": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_rate": "ratio",
}

KINDS = ("independence", "minimality", "uniqueness", "lemma-semantic",
         "table-golden", "extra-fact")

PER_LAYER = {
    "search.calls": "count",
    "search.self_s": "s",
    "search.nodes": "count",
    "search.nodes_per_s": "1/s",
    "search.leaves": "count",
    "search.leaf_accept_ratio": "ratio",
    "algebra.canonical_form.calls": "count",
    "algebra.canonical_form.self_s": "s",
    "algebra.canonical_form.s_per_call": "s",
    "algebra.automorphism_count.calls": "count",
    "algebra.automorphism_count.self_s": "s",
    "algebra.find_isomorphism.calls": "count",
    "algebra.find_isomorphism.self_s": "s",
    "terms.check_validity.calls": "count",
    "terms.check_validity.self_s": "s",
    "terms.check_validity.s_per_call": "s",
    "terms.parse_sentence.calls": "count",
    "terms.parse_sentence.self_s": "s",
    "axioms.status_vector.calls": "count",
    "axioms.status_vector.self_s": "s",
    "axioms.satisfies.calls": "count",
    "axioms.satisfies.self_s": "s",
    "catalog.build_model.calls": "count",
    "catalog.build_model.self_s": "s",
    **{f"report.kind_s.{kind}": "s" for kind in KINDS},
    "trace.overhead": "ratio",
}


def tail(samples):
    """(value, percentile, samples beyond it) for the tail of ``samples``:
    nearest-rank p75, or from 40 samples on the highest percentile with ten
    samples beyond it.  A run holds too few samples for a higher percentile
    to rest on more than one or two of them."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(-(-3 * n // 4), n - 10)
    return ordered[rank - 1], 100.0 * rank / n, n - rank


def context() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg_start": list(os.getloadavg())}


def kernel() -> float:
    """Seconds taken by the calibration kernel: a fixed piece of pure-Python
    work that does not use relalg (the independent checker run over a size-8
    Boolean algebra whose relative product is meet)."""
    start = time.perf_counter()
    oracle.first_counterexamples(CAL_TABLES)
    return time.perf_counter() - start


def calibrate() -> list[float]:
    return [kernel() for _ in range(CAL_REPEATS)]


@dataclass
class Sample:
    unit: tuple         # ("setup", rep) or ("op", k)
    traced: bool
    raw_s: float        # wall time minus the kernel runs inside it
    scale: float        # REFERENCE_KERNEL_S / mean kernel time around it
    span_scale: float   # scale for spans, which include the kernel runs
    out: object = None
    ok: bool = True

    @property
    def seconds(self) -> float:
        """Seconds at reference speed."""
        return self.raw_s * self.scale


def measure(workload, seconds, tracer=None):
    """Set up SETUP_REPS times, then run operations until ``seconds`` have
    passed.  With a tracer, the set-ups and the odd operations are traced."""
    before = calibrate()

    def timed(unit, fn, traced):
        nonlocal before
        probes = []
        if traced:
            tracer.unit = unit
            tracer.install()
        gc.collect()
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: probes.append(kernel()))
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        try:
            start = time.perf_counter()
            out = fn()
            wall = time.perf_counter() - start
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        if traced:
            tracer.uninstall()
            tracer.unit = None
        after = calibrate()
        scale = REFERENCE_KERNEL_S / statistics.fmean(before + probes + after)
        before = after
        raw = wall - sum(probes)
        return out, Sample(unit, traced, raw, scale, scale * raw / wall)

    setups = [timed(("setup", rep), workload.setup, tracer is not None)[1]
              for rep in range(SETUP_REPS)]
    ops = []
    deadline = time.perf_counter() + seconds
    k = 0
    while k < 2 or time.perf_counter() < deadline:
        out, sample = timed(("op", k), lambda: workload.run(k), tracer is not None and k % 2 == 1)
        sample.out, sample.ok = out, workload.check(k, out)
        ops.append(sample)
        k += 1
    return setups, ops


def end_to_end(workload, setups, ops):
    good = [s for s in ops if s.ok]
    failed = len(ops) - len(good)
    times = [s.seconds for s in good]
    value, pct, beyond = tail(times) if times else (0.0, 0.0, 0)
    metrics = {
        "op_s.p50": statistics.median(times) if times else 0.0,
        "op_s.tail": value,
        "setup_s": statistics.median(s.seconds for s in setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_rate": len(good) / len(ops),
    }
    alias = workload.alias
    raw_p50 = statistics.median(s.raw_s for s in good) if good else 0.0
    lines = [
        f"{alias}.p50 {metrics['op_s.p50']:.4f} s  (op_s.p50, n={len(times)}, "
        f"raw median {raw_p50:.4f} s)",
        f"{alias}.tail {value:.4f} s  (op_s.tail, p{pct:.1f} of n={len(times)}, "
        f"{beyond} samples beyond it)",
    ]
    if workload.nodes_alias:
        counts = sorted({workload.nodes(s.out) for s in ops})
        lines.append(f"{workload.nodes_alias} {' '.join(map(str, counts))} count")
    lines += [
        f"setup_s {metrics['setup_s']:.6f} s  (median of {len(setups)} set-ups)",
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB",
        f"error_rate {failed / len(ops):.4f} ({failed}/{len(ops)})  "
        f"(ok_rate {metrics['ok_rate']:.4f} ratio)",
    ]
    detail = {"samples": times, "raw_samples": [s.raw_s for s in good],
              "tail_pct": pct, "tail_beyond": beyond,
              "setup_samples": [s.seconds for s in setups]}
    return metrics, lines, detail, len(ops), failed


def per_layer(tracer, setups, ops):
    import relalg

    untraced = [s for s in ops if not s.traced]
    traced = [s for s in ops if s.traced]
    scales = {s.unit: s.span_scale for s in setups + ops}
    op, setup = tracer.summary("op", scales), tracer.summary("setup", scales)
    metrics = {}
    for layer in dict.fromkeys(LAYERS.values()):
        # build_model is set-up work, so it is counted per set-up
        source, units = (setup, len(setups)) if layer == "catalog.build_model" \
            else (op, len(traced))
        calls, self_s = source["layers"][layer]
        metrics[f"{layer}.calls"] = calls / units
        metrics[f"{layer}.self_s"] = self_s / units
        if f"{layer}.s_per_call" in PER_LAYER:
            metrics[f"{layer}.s_per_call"] = self_s / calls if calls else 0.0
    search_self = op["layers"]["search"][1]
    metrics["search.nodes"] = op["nodes"] / len(traced)
    metrics["search.nodes_per_s"] = op["nodes"] / search_self if search_self else 0.0
    metrics["search.leaves"] = op["leaves"] / len(traced)
    metrics["search.leaf_accept_ratio"] = op["classes"] / op["leaves"] if op["leaves"] else 0.0
    # claim timings come from the program itself, so the untraced runs give them
    reports = [s for s in untraced if isinstance(s.out, relalg.Report)]
    for kind in KINDS:
        total = sum(c.seconds * s.span_scale for s in reports for c in s.out.claims
                    if c.kind == kind)
        metrics[f"report.kind_s.{kind}"] = total / len(reports) if reports else 0.0
    # each traced operation against the untraced one just before it, so that
    # drift in machine speed between the two halves of a run cancels
    ratios = [b.seconds / a.seconds for a, b in zip(ops, ops[1:]) if b.traced and not a.traced]
    metrics["trace.overhead"] = statistics.median(ratios) - 1
    failed = sum(1 for s in ops if not s.ok)
    lines = [f"{name} {metrics[name]:.6g} {unit}" for name, unit in PER_LAYER.items()]
    lines.append(f"error_rate {failed / len(ops):.4f} ({failed}/{len(ops)})")
    detail = {"traced_ops": len(traced), "untraced_ops": len(untraced),
              "overhead_pairs": [r - 1 for r in ratios]}
    return metrics, lines, detail, len(ops), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (SRC / "relalg" / "__init__.py").is_file():
        print(f"error: the relalg sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import relalg
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    ctx = context()
    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer(relalg) if args.trace else None
    setups, ops = measure(workload, args.seconds, tracer)
    if args.trace:
        metrics, lines, detail, attempted, failed = per_layer(tracer, setups, ops)
        units = PER_LAYER
    else:
        metrics, lines, detail, attempted, failed = end_to_end(workload, setups, ops)
        units = END_TO_END

    print(f"relalg benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"context: nproc={ctx['nproc']} python={ctx['python']} "
          f"loadavg_start={' '.join(f'{x:.2f}' for x in ctx['loadavg_start'])}")
    for line in lines:
        print(line)
    print("detail: " + json.dumps({"context": ctx, **detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
