"""The benchmark's three workloads.

Each workload is built from the program's modules and a seed, and runs in
whole rounds: every round makes the same calls, so a run attempts the same
operations whatever its seed and length.  ``run_round`` times only the
calls into the program and then checks their outputs against the oracle
and against the involution and bijection properties; nothing is compared
with a stored copy of earlier output.
"""

from __future__ import annotations

import os
import random
import sys
import time
import traceback
from dataclasses import dataclass, field
from math import factorial

import oracle
from spans import NullTracer

NULL = NullTracer()

#: The sampler runs at one small and one large (k, n), with these trials;
#: span names carry the label so per-trial times can be read back.
SAMPLES = (("small", 2, 3, 20_000), ("large", 4, 50, 1_000))


def divisors(m: int) -> list[int]:
    return [d for d in range(1, m + 1) if m % d == 0]


def nproc() -> int:
    """Processors this process may run on, capped so that a wide host
    never gets a wide pool."""
    try:
        count = len(os.sched_getaffinity(0))
    except AttributeError:
        count = os.cpu_count() or 1
    return max(1, min(count, 8))


@dataclass
class Round:
    """One round: for each call into the program, in order, the operations
    it stands for and its latency (None if it raised); and whether every
    check of the round held.  Every round of a run makes the same calls."""

    work: list[int] = field(default_factory=list)
    latencies_ns: list[int | None] = field(default_factory=list)
    correct: bool = True

    def record(self, work: int, latency_ns: int | None) -> None:
        self.work.append(work)
        self.latencies_ns.append(latency_ns)

    @property
    def ops(self) -> int:
        return sum(self.work)

    @property
    def failed(self) -> int:
        return sum(w for w, t in zip(self.work, self.latencies_ns) if t is None)

    @property
    def seconds(self) -> float:
        return sum(t for t in self.latencies_ns if t is not None) / 1e9


def _complain(workload: str, message: str) -> None:
    print(f"{workload}: {message}", file=sys.stderr)


@dataclass(frozen=True)
class Request:
    k: int
    n: int
    x: tuple[int, ...]
    tau: tuple[int, ...]
    pi: tuple[int, ...]
    sigma_text: str
    pi_text: str


def make_request(rng: random.Random, kn: int, k: int) -> Request:
    """A uniform random pair (sigma', pi) at (k, kn/k), as text."""
    n = kn // k
    pi = list(range(1, kn + 1))
    rng.shuffle(pi)
    tau = list(range(1, n + 1))
    rng.shuffle(tau)
    x = tuple(rng.randrange(k) for _ in range(n))
    sigma_text = f"x=({','.join(map(str, x))}); tau={oracle.cycle_text(tuple(tau))}"
    return Request(k, n, x, tuple(tau), tuple(pi), sigma_text, oracle.cycle_text(tuple(pi)))


class RoundtripLarge:
    """Involution requests with kn near 200: parse (sigma', pi) from text,
    ``involute``, format the result as ``cycleswap involute --format
    structured`` does.  ``copies`` requests for every divisor k of every
    kn in ``sizes``, in an order drawn from the seed."""

    name = "roundtrip-large"
    #: (k, n) at which the traced run times constructors.
    probe_kn = (4, 50)

    def __init__(self, prog, seed: int, sizes=range(190, 211), copies: int = 6):
        self.prog = prog
        rng = random.Random(seed)
        self.requests = [
            make_request(rng, kn, k) for kn in sizes for k in divisors(kn) for _ in range(copies)
        ]
        rng.shuffle(self.requests)
        self.verified: list[str] | None = None

    def warm_up(self) -> None:
        for req in self.requests[:8]:
            self.serve(req)

    def serve(self, req: Request, tracer=NULL):
        """One request; returns the output pair and its text."""
        textio, involution = self.prog.textio, self.prog.involution
        with tracer.span("textio.parse"):
            sigma = textio.parse_gsg(req.sigma_text, req.k, req.n)
            pi = textio.parse_permutation(req.pi_text, req.k * req.n)
        out = involution.involute(involution.InvolutionPair(sigma, pi))
        with tracer.span("textio.format"):
            text = "\n".join(
                [
                    f"sigma_x=({','.join(map(str, out.sigma.x))})",
                    f"sigma_tau={textio.format_permutation(out.sigma.tau)}",
                    f"pi={textio.format_permutation(out.pi)}",
                ]
            )
        return out, text

    def run_round(self, tracer) -> Round:
        rnd = Round()
        results = []
        for req in self.requests:
            t = time.perf_counter_ns()
            try:
                with tracer.span("request"):
                    results.append(self.serve(req, tracer))
            except Exception:
                traceback.print_exc()
                rnd.record(1, None)
                results.append(None)
                continue
            rnd.record(1, time.perf_counter_ns() - t)
        rnd.correct = self.check(results)
        return rnd

    def check(self, results) -> bool:
        """The first round is checked in full; later rounds must give the
        same text as the checked one."""
        if self.verified is None:
            ok = True
            for req, result in zip(self.requests, results):
                if result is not None and not self._check_request(req, *result):
                    _complain(self.name, f"wrong output at (k, n) = ({req.k}, {req.n})")
                    ok = False
            self.verified = [r[1] if r else None for r in results]
            return ok
        same = all(r is None or r[1] == v for r, v in zip(results, self.verified))
        if not same:
            _complain(self.name, "a later round's output differs from the checked round")
        return same

    def _check_request(self, req: Request, out, text: str) -> bool:
        prog, k, n = self.prog, req.k, req.n
        try:
            back = prog.involution.involute(out)
            delta = prog.forward.factor(prog.permutations.Permutation(req.pi), k).delta
            lines = text.split("\n")
            shown_x = tuple(int(v) for v in lines[0].removeprefix("sigma_x=(").rstrip(")").split(","))
            shown_tau = oracle.parse_cycle_text(lines[1].removeprefix("sigma_tau="), n)
            shown_pi = oracle.parse_cycle_text(lines[2].removeprefix("pi="), k * n)
        except Exception:
            traceback.print_exc()
            return False
        out_x, out_tau, out_pi = tuple(out.sigma.x), tuple(out.sigma.tau.images), tuple(out.pi.images)
        return (
            (tuple(back.sigma.x), tuple(back.sigma.tau.images), tuple(back.pi.images))
            == (req.x, req.tau, req.pi)
            and oracle.count_fixed_points(out_x, out_tau, k) == oracle.count_k_cycles(req.pi, k)
            and oracle.count_k_cycles(out_pi, k) == oracle.count_fixed_points(req.x, req.tau, k)
            and all(0 <= v < k for v in out_x)
            and oracle.cycle_lengths(tuple(delta.perm.images)) == [k] * n
            and (shown_x, shown_tau, shown_pi) == (out_x, out_tau, out_pi)
        )


class VerifyExhaustive:
    """``verify_bijection`` for every (k, m/k) at one small m, and
    ``verify_involution`` on a few small (k, n), in an order drawn from the
    seed.  An operation is one element counted in a report's ``checked``."""

    name = "verify-exhaustive"
    probe_kn = (2, 3)

    def __init__(self, prog, seed: int, m: int = 6, involution_cases=((1, 4), (2, 2), (4, 1))):
        self.prog = prog
        self.cases = [("bijection", k, m // k) for k in divisors(m)]
        self.cases += [("involution", k, n) for k, n in involution_cases]
        random.Random(seed).shuffle(self.cases)

    def warm_up(self) -> None:
        self.prog.harness.verify_bijection(1, 2)
        self.prog.harness.verify_involution(1, 2)

    def run_round(self, tracer) -> Round:
        rnd = Round()
        harness = self.prog.harness
        for kind, k, n in self.cases:
            expected = (oracle.bijection_checked if kind == "bijection" else oracle.involution_checked)(k, n)
            t = time.perf_counter_ns()
            try:
                with tracer.span(f"harness.verify_{kind}"):
                    report = getattr(harness, f"verify_{kind}")(k, n)
            except Exception:
                traceback.print_exc()
                rnd.record(expected, None)
                continue
            rnd.record(expected, time.perf_counter_ns() - t)
            if not (report.properties and report.passed and report.checked == expected):
                _complain(
                    self.name,
                    f"verify_{kind}({k}, {n}): passed={report.passed} "
                    f"checked={report.checked}, expected {expected}",
                )
                rnd.correct = False
        return rnd


class DistributionCensus:
    """``k_cycle_distribution`` and ``fixed_point_distribution`` for every
    divisor k of m, one ``k_cycle_distribution`` with ``jobs`` = nproc, and
    the sampler at one small and one large (k, n), in an order drawn from
    the seed.  An operation is one statistic evaluated: an enumerated
    object or a sampled draw."""

    name = "distribution-census"
    probe_kn = (2, 4)

    def __init__(self, prog, seed: int, m: int = 8, parallel_k: int = 2):
        self.prog = prog
        self.seed = seed
        self.rounds = 0
        self.jobs = nproc()
        self.calls = [("k_cycle", k, m // k) for k in divisors(m)]
        self.calls += [("parallel", parallel_k, m // parallel_k)]
        self.calls += [("fixed_point", k, m // k) for k in divisors(m)]
        self.calls += [("sample", k, n) for _, k, n, _ in SAMPLES]
        random.Random(seed).shuffle(self.calls)
        self.trials = {(k, n): (label, trials) for label, k, n, trials in SAMPLES}

    def warm_up(self) -> None:
        harness = self.prog.harness
        harness.k_cycle_distribution(2, 2)
        harness.fixed_point_distribution(2, 2)
        harness.sample_empirical(2, 2, 100, self.seed)

    def run_round(self, tracer) -> Round:
        rnd = Round()
        harness = self.prog.harness
        self.rounds += 1
        results = {}
        for kind, k, n in self.calls:
            if kind == "sample":
                label, trials = self.trials[(k, n)]
                ops, name = 2 * trials, f"harness.sample_empirical.{label}"
                call = lambda: harness.sample_empirical(k, n, trials, self.seed * 1000 + self.rounds)
            elif kind == "fixed_point":
                ops, name = k**n * factorial(n), "harness.fixed_point_distribution"
                call = lambda: harness.fixed_point_distribution(k, n)
            elif kind == "parallel":
                ops, name = factorial(k * n), "harness.k_cycle_distribution.parallel"
                call = lambda: harness.k_cycle_distribution(k, n, jobs=self.jobs)
            else:
                ops, name = factorial(k * n), "harness.k_cycle_distribution"
                call = lambda: harness.k_cycle_distribution(k, n)
            t = time.perf_counter_ns()
            try:
                with tracer.span(name):
                    results[kind, k, n] = call()
            except Exception:
                traceback.print_exc()
                rnd.record(ops, None)
                continue
            rnd.record(ops, time.perf_counter_ns() - t)
        rnd.correct = self.check(results)
        return rnd

    def check(self, results) -> bool:
        ok = True
        for (kind, k, n), result in results.items():
            if kind == "sample":
                trials = self.trials[(k, n)][1]
                cyc, fxpt = result
                good = (
                    sum(cyc) == trials == sum(fxpt)
                    and oracle.sample_passes(tuple(cyc), oracle.k_cycle_counts(k, n))
                    and oracle.sample_passes(tuple(fxpt), oracle.fixed_point_counts(k, n))
                )
            elif kind == "fixed_point":
                good = tuple(result.counts) == oracle.fixed_point_counts(k, n)
            else:
                good = tuple(result.counts) == oracle.k_cycle_counts(k, n)
                if kind == "parallel" and ("k_cycle", k, n) in results:
                    good = good and tuple(results["k_cycle", k, n].counts) == tuple(result.counts)
            if not good:
                _complain(self.name, f"{kind} at (k, n) = ({k}, {n}) disagrees with the oracle")
                ok = False
        return ok


WORKLOADS = {w.name: w for w in (RoundtripLarge, VerifyExhaustive, DistributionCensus)}


def probe_workloads(prog, seed: int) -> list:
    """Small versions of the three workloads.  The traced run runs one
    round of each, so every per-layer figure exists on every workload even
    where the workload itself never calls that layer."""
    return [
        RoundtripLarge(prog, seed, sizes=(12,), copies=1),
        VerifyExhaustive(prog, seed, m=4, involution_cases=((1, 2), (2, 1))),
        DistributionCensus(prog, seed, m=6, parallel_k=2),
    ]

