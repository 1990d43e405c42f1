"""The cycleswap benchmark.

    python3 benchmarks/run.py --workload roundtrip-large --seed 1 --seconds 30 --trace 0

Imports the program from ``src/`` of the checkout it sits in, sets the
workload up several times (import, input generation from the seed,
warm-up), then runs whole rounds of the workload until ``--seconds`` of
program time have passed, checking every output against the oracle.  The
last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones; with ``--trace 1`` the run repeats the timed
phase with spans and counters patched over the program and prints the
per-layer ones, writing the spans to ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import layers
import program
from gauge import REFERENCE_S, gauge_seconds
from spans import Tracer
from workloads import NULL, WORKLOADS, probe_workloads

#: Every end-to-end metric, with its unit.
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mib": "MiB",
    "request_p50_us": "us",
    "request_p99_us": "us",
}

#: Set-ups before and after the timed phase; setup_s is the median of all
#: of them, so that it samples the machine at both ends of the run.
SETUPS_BEFORE, SETUPS_AFTER = 3, 4

#: The traced phase ends after the first round that brings the spans
#: kept in memory to this many.
SPAN_CAP = 300_000

OUT = Path(__file__).resolve().parent / "out"


def set_up(workload_cls, seed: int):
    """Import the program afresh, generate the inputs and warm up; returns
    the seconds taken and the workload."""
    t0 = time.perf_counter()
    workload = workload_cls(program.load(), seed)
    workload.warm_up()
    return time.perf_counter() - t0, workload


def run_phase(workload, seconds: float, tracer, span_cap: int | None = None, gauges: list | None = None) -> list:
    """Whole rounds until ``seconds`` of program time have passed; a run
    whose every operation fails stops on wall time instead.  With
    ``gauges``, one pass of the speed gauge is timed before each round."""
    rounds, spent, start = [], 0.0, time.perf_counter()
    while True:
        if gauges is not None:
            gauges.append(gauge_seconds())
        with tracer.span("round"):
            rounds.append(workload.run_round(tracer))
        spent += rounds[-1].seconds
        if spent >= seconds or time.perf_counter() - start >= 3 * seconds:
            return rounds
        if span_cap is not None and len(tracer) >= span_cap:
            return rounds


def best_of_repeats(rounds) -> list[tuple[int, int]]:
    """(operations, best latency) of each call, over the rounds it
    succeeded in; a call that never succeeded is left out."""
    best = []
    for i, work in enumerate(rounds[0].work):
        times = [r.latencies_ns[i] for r in rounds if r.latencies_ns[i] is not None]
        if times:
            best.append((work, min(times)))
    return best


def ops_per_s(rounds) -> float:
    best = best_of_repeats(rounds)
    ns = sum(t for _, t in best)
    return 1e9 * sum(w for w, _ in best) / ns if ns else 0.0


def end_to_end(setup_times: list[float], rounds, gauges: list[float]) -> dict:
    """The end-to-end metrics, every timing expressed at the reference
    speed of ``gauge``."""
    scale = REFERENCE_S / min(gauges)
    latencies = [t for _, t in best_of_repeats(rounds)]
    if len(latencies) >= 2:
        q = statistics.quantiles(latencies, n=100, method="inclusive")
        p50, p99 = q[49] / 1e3, q[98] / 1e3
    else:
        p50 = p99 = 0.0
    raw = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": ops_per_s(rounds),
        "request_p50_us": p50,
        "request_p99_us": p99,
    }
    print(json.dumps({"raw": raw, "gauge_best_s": min(gauges)}), file=sys.stderr)
    return {
        "setup_s": raw["setup_s"] * scale,
        "ops_per_s": raw["ops_per_s"] / scale,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "request_p50_us": p50 * scale,
        "request_p99_us": p99 * scale,
    }


def traced(workload, seed: int, seconds: float, untraced) -> tuple[dict, list, bool]:
    """The traced phase, one round of each probe workload and the timing
    probes; returns the per-layer metrics, the traced rounds and whether
    the probes' outputs were right."""
    prog = workload.prog
    tracer = Tracer()
    layers.instrument(tracer, prog)
    try:
        lo = len(tracer)
        rounds = run_phase(workload, seconds, tracer, SPAN_CAP)
        hi = len(tracer)
        counts = dict(tracer.counts)
        correct = True
        for probe in probe_workloads(prog, seed):
            with tracer.span("round"):
                correct &= probe.run_round(tracer).correct
    finally:
        tracer.uninstall()
    metrics = layers.span_metrics(tracer, (lo, hi), (hi, len(tracer)), sum(r.ops for r in rounds), counts)
    timings, probes_correct = layers.probe_timings(prog, workload, seed)
    metrics.update(timings)
    traced_ops_per_s = ops_per_s(rounds)
    metrics["bench.trace_overhead_ratio"] = ops_per_s(untraced) / traced_ops_per_s if traced_ops_per_s else 0.0
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{workload.name}-seed{seed}.jsonl")
    return metrics, rounds, correct and probes_correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload_cls = WORKLOADS[args.workload]
    try:
        setups = [set_up(workload_cls, args.seed) for _ in range(SETUPS_BEFORE)]
    except program.ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_times = [t for t, _ in setups]
    workload = setups[-1][1]

    gauges: list[float] = []
    rounds = run_phase(workload, args.seconds, NULL, gauges=gauges)
    correct = True
    if args.trace:
        metrics, traced_rounds, correct = traced(workload, args.seed, args.seconds, rounds)
        rounds = rounds + traced_rounds
        units = layers.PER_LAYER
    else:
        # Set-up imports the program afresh, so it runs only once the
        # timed phase is over.
        setup_times += [set_up(workload_cls, args.seed)[0] for _ in range(SETUPS_AFTER)]
        gauges.append(gauge_seconds())
        metrics = end_to_end(setup_times, rounds, gauges)
        units = END_TO_END
    result = {
        "correct": correct and all(r.correct for r in rounds),
        "attempted": sum(r.ops for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    line = json.dumps(result)
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
