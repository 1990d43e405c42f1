"""Per-layer metrics of the traced run.

The layers are the program's modules.  Timings of calls come from spans:
the median duration over every call of that name in the traced phase, or,
where the workload never calls that layer, over one round of each small
probe workload (``workloads.probe_workloads``).  Constructor and
enumeration costs, the CLI and the shift recovery at two fixed sizes come
from timing loops run after the traced phase.  Counts per operation come
from counters on the program's callables during the traced phase only, so
they repeat exactly.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import sys
import time
from math import factorial

import oracle
from program import MODULES
from workloads import NULL, SAMPLES, RoundtripLarge

#: Program functions that get a span on every call: (module, function).
TRACED_FUNCTIONS = (
    ("permutations", "stanley_hat"),
    ("permutations", "stanley_unhat"),
    ("forward", "factor"),
    ("inverse", "unfactor"),
    ("inverse", "recover_shifts"),
    ("involution", "involute"),
)

#: Program methods whose calls are only counted: (module, class, method, counter).
COUNTED_METHODS = (
    ("permutations", "Permutation", "cycles", "permutations.cycles"),
    ("permutations", "Permutation", "__init__", "permutations.init"),
    ("gsg", "GsgElement", "__init__", "gsg.init"),
)

#: Median microseconds per call of a span name.
PER_CALL_US = {
    "textio.parse_us": "textio.parse",
    "textio.format_us": "textio.format",
    "permutations.stanley_hat_us": "permutations.stanley_hat",
    "permutations.stanley_unhat_us": "permutations.stanley_unhat",
    "forward.factor_us": "forward.factor",
    "inverse.unfactor_us": "inverse.unfactor",
    "inverse.recover_shifts_us": "inverse.recover_shifts",
    "involution.involute_us": "involution.involute",
}

#: Median over rounds of the seconds a round spends in calls of a span name.
PER_ROUND_S = {
    "harness.verify_bijection_s": "harness.verify_bijection",
    "harness.verify_involution_s": "harness.verify_involution",
    "harness.k_cycle_distribution_s": "harness.k_cycle_distribution",
    "harness.fixed_point_distribution_s": "harness.fixed_point_distribution",
}

#: Every per-layer metric the traced run prints, with its unit.
PER_LAYER = {
    "textio.parse_us": "us",
    "textio.format_us": "us",
    "cli.main_us": "us",
    "permutations.stanley_hat_us": "us",
    "permutations.stanley_unhat_us": "us",
    "permutations.init_us": "us",
    "permutations.enumerate_ns_per_item": "ns",
    "forward.factor_us": "us",
    "inverse.unfactor_us": "us",
    "inverse.recover_shifts_us": "us",
    "inverse.recover_shifts_us.k1n200": "us",
    "inverse.recover_shifts_us.k1n400": "us",
    "inverse.enumerate_ns_per_item": "ns",
    "involution.involute_us": "us",
    "gsg.init_us": "us",
    "gsg.enumerate_ns_per_item": "ns",
    "harness.verify_bijection_s": "s",
    "harness.verify_involution_s": "s",
    "harness.k_cycle_distribution_s": "s",
    "harness.fixed_point_distribution_s": "s",
    "harness.sample_ns_per_trial": "ns",
    "harness.sample_ns_per_trial.large": "ns",
    "harness.parallel_speedup": "ratio",
    "permutations.cycles_calls_per_op": "count",
    "permutations.inits_per_op": "count",
    "gsg.inits_per_op": "count",
    "forward.factor_calls_per_op": "count",
    "bench.trace_overhead_ratio": "ratio",
}


def instrument(tracer, prog) -> None:
    """Patch spans and counters over the program for the traced phase."""
    modules = [prog.package] + [getattr(prog, name) for name in MODULES]
    for module, function in TRACED_FUNCTIONS:
        if not tracer.trace_function(modules, getattr(prog, module), function, f"{module}.{function}"):
            print(f"trace: no {module}.{function} to trace", file=sys.stderr)
    for module, cls, method, counter in COUNTED_METHODS:
        if not tracer.count_method(getattr(getattr(prog, module), cls), method, counter):
            print(f"trace: no {module}.{cls}.{method} to count", file=sys.stderr)


def span_metrics(tracer, phase: tuple[int, int], probe: tuple[int, int], ops: int, counts: dict) -> dict:
    """Metrics read from the spans and counters: ``phase`` and ``probe``
    are the span index ranges of the traced phase and of the probe rounds;
    ``ops`` and ``counts`` belong to the traced phase."""

    def durations(name):
        return tracer.durations_ns(name, *phase) or tracer.durations_ns(name, *probe)

    def round_totals(name):
        return tracer.totals_by_parent_ns(name, *phase) or tracer.totals_by_parent_ns(name, *probe)

    def median(values):
        return statistics.median(values) if values else 0.0

    out = {metric: median(durations(name)) / 1e3 for metric, name in PER_CALL_US.items()}
    out.update({metric: median(round_totals(name)) / 1e9 for metric, name in PER_ROUND_S.items()})
    per_trial = {label: trials for label, _, _, trials in SAMPLES}
    out["harness.sample_ns_per_trial"] = median(durations("harness.sample_empirical.small")) / per_trial["small"]
    out["harness.sample_ns_per_trial.large"] = median(durations("harness.sample_empirical.large")) / per_trial["large"]
    parallel = median(durations("harness.k_cycle_distribution.parallel"))
    out["harness.parallel_speedup"] = median(durations("harness.k_cycle_distribution")) / parallel if parallel else 0.0
    out["permutations.cycles_calls_per_op"] = counts.get("permutations.cycles", 0) / ops
    out["permutations.inits_per_op"] = counts.get("permutations.init", 0) / ops
    out["gsg.inits_per_op"] = counts.get("gsg.init", 0) / ops
    out["forward.factor_calls_per_op"] = len(tracer.durations_ns("forward.factor", *phase)) / ops
    return out


def _per_item(run, items: int, repeats: int) -> float:
    """Median seconds per item over ``repeats`` calls of ``run``."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        run()
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / items


def _drain(iterator) -> None:
    for _ in iterator:
        pass


def probe_timings(prog, workload, seed: int) -> tuple[dict, bool]:
    """Timing loops on fixed inputs drawn from ``seed``; returns the
    metrics and whether every output they checked was right."""
    rng = random.Random(seed)
    Permutation, GsgElement = prog.permutations.Permutation, prog.gsg.GsgElement
    k, n = workload.probe_kn
    images = list(range(1, k * n + 1))
    rng.shuffle(images)
    images = tuple(images)
    tau = Permutation(tuple(rng.sample(range(1, n + 1), n)))
    x = tuple(rng.randrange(k) for _ in range(n))
    batch = 200
    out = {
        "permutations.init_us": 1e6 * _per_item(lambda: [Permutation(images) for _ in range(batch)], batch, 9),
        "gsg.init_us": 1e6 * _per_item(lambda: [GsgElement(k, x, tau) for _ in range(batch)], batch, 9),
        "permutations.enumerate_ns_per_item": 1e9
        * _per_item(lambda: _drain(prog.permutations.enumerate_permutations(8)), factorial(8), 3),
        "gsg.enumerate_ns_per_item": 1e9 * _per_item(lambda: _drain(prog.gsg.enumerate_gsg(1, 8)), factorial(8), 3),
        "inverse.enumerate_ns_per_item": 1e9
        * _per_item(
            lambda: _drain(prog.inverse.enumerate_k_cycle_factorizations(3, 3)),
            factorial(9) // (3**3 * factorial(3)),
            7,
        ),
    }
    for size in (200, 400):
        pi = Permutation(tuple(rng.sample(range(1, size + 1), size)))
        delta = prog.forward.factor(pi, 1).delta
        sigma = GsgElement(1, (0,) * size, Permutation(tuple(rng.sample(range(1, size + 1), size))))
        out[f"inverse.recover_shifts_us.k1n{size}"] = 1e6 * _per_item(
            lambda: prog.inverse.recover_shifts(delta, sigma), 1, 5
        )
    cli_us, correct = _cli_probe(prog, seed)
    out["cli.main_us"] = cli_us
    return out, correct


def _cli_probe(prog, seed: int) -> tuple[float, bool]:
    """``cycleswap involute --format structured`` called in process, one
    request for each divisor k of 200; its output must be the text of the
    same requests served and checked as the workload serves them."""
    workload = RoundtripLarge(prog, seed, sizes=(200,), copies=1)
    correct = workload.run_round(NULL).correct
    times = []
    for req, expected in zip(workload.requests, workload.verified):
        argv = [
            "involute", "--k", str(req.k), "--n", str(req.n),
            "--x", ",".join(map(str, req.x)), "--tau", oracle.cycle_text(req.tau),
            "--pi", req.pi_text, "--format", "structured",
        ]
        for _ in range(2):
            buffer = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(buffer):
                code = prog.cli.main(argv)
            times.append(time.perf_counter() - t0)
            if code != 0 or buffer.getvalue().strip() != expected:
                print(f"cli: wrong output at (k, n) = ({req.k}, {req.n})", file=sys.stderr)
                correct = False
    return 1e6 * statistics.median(times), correct
