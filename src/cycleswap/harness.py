"""Exhaustive and sampled verification of the distribution identity, the
bijection, and the involution.

All counts are exact Python integers; the distribution identity is checked
in cross-multiplied form so no rationals or floats ever appear.  Exhaustive
enumerations are partitionable by lexicographic rank range, so distributions
can be computed by independent workers and merged by pointwise addition.
"""

from __future__ import annotations

import itertools
import multiprocessing
import random
import time
from dataclasses import dataclass, field
from math import factorial
from operator import add, eq
from typing import Callable, Iterator

from .forward import factor
from .gsg import count_fixed_points, enumerate_gsg
from .inverse import (
    count_k_cycle_factorizations,
    enumerate_k_cycle_factorizations,
    unfactor,
)
from .involution import InvolutionPair, involute
from .permutations import (
    check_capacity,
    count_k_cycles,
    enumerate_permutations,
    unrank_permutation,
    _advance,
    _k_cycles_oneline,
)

#: Pair-product verification refuses above this many pairs unless overridden.
DEFAULT_PAIR_CAPACITY = 100_000_000

#: The sampler tabulates a group's statistic by rank only up to 8! elements.
_TABLE_CAP = 40_320


@dataclass(frozen=True)
class Distribution:
    """Exact counts of a statistic over a finite set: counts[m] objects
    have statistic value m, for m = 0..n."""

    k: int
    n: int
    counts: tuple[int, ...]

    @property
    def total(self) -> int:
        return sum(self.counts)

    def to_structured(self, prefix: str = "") -> list[str]:
        lines = [f"{prefix}k={self.k}", f"{prefix}n={self.n}", f"{prefix}total={self.total}"]
        lines += [f"{prefix}count_{m}={c}" for m, c in enumerate(self.counts)]
        return lines


@dataclass
class VerificationReport:
    """Outcome of one verification run; failing reports carry a
    reproducible counterexample."""

    name: str
    k: int
    n: int
    properties: dict[str, bool] = field(default_factory=dict)
    counterexample: str | None = None
    wall_time: float = 0.0
    checked: int = 0
    seed: int | None = None

    @property
    def passed(self) -> bool:
        return all(self.properties.values())

    def record(self, prop: str, ok: bool, counterexample: str | None = None):
        self.properties[prop] = self.properties.get(prop, True) and ok
        if not ok and self.counterexample is None:
            self.counterexample = counterexample

    def to_text(self) -> str:
        lines = [f"{self.name} (k={self.k}, n={self.n})"]
        for prop, ok in self.properties.items():
            lines.append(f"  {prop}: {'PASS' if ok else 'FAIL'}")
        if self.counterexample is not None:
            lines.append(f"  counterexample: {self.counterexample}")
        lines.append(f"  checked: {self.checked}  wall_time: {self.wall_time:.3f}s")
        if self.seed is not None:
            lines.append(f"  seed: {self.seed}")
        return "\n".join(lines)

    def to_structured(self) -> list[str]:
        lines = [
            f"report={self.name}",
            f"k={self.k}",
            f"n={self.n}",
            f"passed={'true' if self.passed else 'false'}",
            f"checked={self.checked}",
            f"wall_time={self.wall_time:.6f}",
        ]
        if self.seed is not None:
            lines.append(f"seed={self.seed}")
        for prop, ok in self.properties.items():
            lines.append(f"property_{prop}={'true' if ok else 'false'}")
        if self.counterexample is not None:
            lines.append(f"counterexample={self.counterexample}")
        return lines


def _cyc_counts_range(args: tuple[int, int, int, int]) -> list[int]:
    # Counts k-cycles over a lexicographic rank range of S_kn on raw
    # one-line tuples; skipping Permutation construction matters at 10!.
    # Ranks [a(m-1)!, (a+1)(m-1)!) are the permutations starting with letter
    # a: whole such blocks run at itertools speed, and only the ragged ends
    # step with _advance.
    k, n, start, stop = args
    m = k * n
    counts = [0] * (n + 1)
    if start >= stop:
        return counts
    if start == 0 and stop == factorial(m):
        for images in itertools.permutations(range(m)):
            counts[_k_cycles_oneline(images, k)] += 1
        return counts
    block = factorial(m - 1)
    first, last = -(-start // block), stop // block
    if first >= last:
        _step_range(counts, k, m, start, stop)
        return counts
    _step_range(counts, k, m, start, first * block)
    for a in range(first, last):
        rest = [v for v in range(m) if v != a]
        for tail in itertools.permutations(rest):
            counts[_k_cycles_oneline((a, *tail), k)] += 1
    _step_range(counts, k, m, last * block, stop)
    return counts


def _step_range(counts: list[int], k: int, m: int, start: int, stop: int) -> None:
    """Add the k-cycle counts of ranks [start, stop) of S_m, one _advance
    step at a time."""
    if start < stop:
        images = [v - 1 for v in unrank_permutation(m, start).images]
        for _ in range(stop - start):
            counts[_k_cycles_oneline(images, k)] += 1
            _advance(images)


def k_cycle_distribution(
    k: int, n: int, limit: int | None = None, jobs: int = 1
) -> Distribution:
    """counts[m] = number of permutations of {1..kn} with exactly m
    k-cycles, by exhaustive enumeration (optionally partitioned across
    ``jobs`` processes)."""
    total = factorial(k * n)
    check_capacity(total, limit, f"S_{k * n}")
    if jobs <= 1:
        counts = _cyc_counts_range((k, n, 0, total))
    else:
        bounds = [total * j // jobs for j in range(jobs + 1)]
        tasks = [(k, n, a, b) for a, b in zip(bounds, bounds[1:])]
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(_cyc_counts_range, tasks)
        counts = [sum(col) for col in zip(*parts)]
    return Distribution(k, n, tuple(counts))


def fixed_point_distribution(k: int, n: int, limit: int | None = None) -> Distribution:
    """counts[m] = number of elements of Z_k^n x| S_n with exactly m fixed
    points, by exhaustive enumeration.

    No element objects are built: (x, tau), 0-based, is encoded as the word
    w_i = tau(i) + n*x_i, and i is a fixed point exactly when w_i == i."""
    if k < 1:
        raise ValueError("k must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_capacity(k**n * factorial(n), limit, f"S({k},{n})")
    counts = [0] * (n + 1)
    for fp in _fixed_point_stats(k, n):
        counts[fp] += 1
    return Distribution(k, n, tuple(counts))


def _fixed_point_stats(k: int, n: int) -> Iterator[int]:
    # The fixed-point count of every element of Z_k^n x| S_n, in memory O(n).
    # Element (x, tau), 0-based, is the word w_i = tau(i) + n*x_i, built as
    # tau + s with s_i = n*x_i.  Since 0 <= tau(i) < n, w_i == i holds iff
    # x_i == 0 and tau(i) == i, i.e. iff i is a fixed point.
    if n == 0:
        yield 0
        return
    ident = range(n)
    shifts = range(0, k * n, n)
    # product() keeps a tuple of its pool, so the last shift streams from the
    # range: at n = 1 the pool would otherwise hold all k shifts.
    for head in itertools.product(shifts, repeat=n - 1):
        for last in shifts:
            s = head + (last,)
            for tau in itertools.permutations(ident):
                yield sum(map(eq, map(add, tau, s), ident))


def verify_distribution_identity(
    k: int, n: int, limit: int | None = None, jobs: int = 1
) -> VerificationReport:
    """Check |Cyc_m| * k^n * n! = |Fxpt_m| * (kn)! for every m, and the
    cross form |Fxpt_a||Cyc_b| = |Fxpt_b||Cyc_a| for every pair (a, b).
    Exact integer arithmetic throughout."""
    report = VerificationReport("distribution-identity", k, n)
    t0 = time.perf_counter()
    cyc = k_cycle_distribution(k, n, limit=limit, jobs=jobs)
    fxpt = fixed_point_distribution(k, n, limit=limit)
    gsg_size = k**n * factorial(n)
    skn_size = factorial(k * n)
    report.record("totals", cyc.total == skn_size and fxpt.total == gsg_size,
                  f"totals {cyc.total}, {fxpt.total}")
    for m in range(n + 1):
        lhs, rhs = cyc.counts[m] * gsg_size, fxpt.counts[m] * skn_size
        report.record("identity", lhs == rhs, f"m={m}: {lhs} != {rhs}")
    for a in range(n + 1):
        for b in range(n + 1):
            lhs = fxpt.counts[a] * cyc.counts[b]
            rhs = fxpt.counts[b] * cyc.counts[a]
            report.record("cross_identity", lhs == rhs, f"(a,b)=({a},{b})")
    report.checked = cyc.total + fxpt.total
    report.wall_time = time.perf_counter() - t0
    return report


def verify_bijection(k: int, n: int, limit: int | None = None) -> VerificationReport:
    """Round-trip the factorization both ways over the whole domain and
    codomain, and check the statistic equality on every element."""
    report = VerificationReport("bijection", k, n)
    t0 = time.perf_counter()
    checked = 0
    for p in enumerate_permutations(k * n, limit=limit):
        pair = factor(p, k)
        if count_k_cycles(p, k) != count_fixed_points(pair.sigma):
            report.record("statistic_preserved", False, f"pi={p.images}")
        if unfactor(pair.delta, pair.sigma) != p:
            report.record("left_inverse", False, f"pi={p.images}")
        checked += 1
    report.record("statistic_preserved", True)
    report.record("left_inverse", True)
    sigmas = list(enumerate_gsg(k, n, limit=limit))
    n_delta = 0
    for delta in enumerate_k_cycle_factorizations(k, n, limit=limit):
        n_delta += 1
        for sigma in sigmas:
            back = factor(unfactor(delta, sigma), k)
            if back.delta != delta or back.sigma != sigma:
                report.record(
                    "right_inverse", False,
                    f"delta={delta.perm.images} sigma=({sigma.x},{sigma.tau.images})",
                )
            checked += 1
    report.record("right_inverse", True)
    report.record(
        "codomain_cardinality",
        n_delta == count_k_cycle_factorizations(k, n)
        and n_delta * k**n * factorial(n) == factorial(k * n),
        f"|D|={n_delta}",
    )
    report.checked = checked
    report.wall_time = time.perf_counter() - t0
    return report


def verify_involution(
    k: int, n: int, pair_limit: int | None = None, limit: int | None = None
) -> VerificationReport:
    """Apply the involution twice to every pair in the full product and
    check the statistic swap on the way."""
    report = VerificationReport("involution", k, n)
    t0 = time.perf_counter()
    n_pairs = factorial(k * n) * k**n * factorial(n)
    if pair_limit is None:
        pair_limit = DEFAULT_PAIR_CAPACITY
    check_capacity(n_pairs, pair_limit, f"S({k},{n}) x S_{k * n}")
    pis = list(enumerate_permutations(k * n, limit=limit))
    factored = [factor(p, k) for p in pis]
    checked = 0
    for sigma in enumerate_gsg(k, n, limit=limit):
        for p, f in zip(pis, factored):
            pair = InvolutionPair(sigma, p)
            out = InvolutionPair(f.sigma, unfactor(f.delta, sigma))
            if (
                count_fixed_points(out.sigma) != count_k_cycles(p, k)
                or count_k_cycles(out.pi, k) != count_fixed_points(sigma)
            ):
                report.record("statistic_swap", False,
                              f"sigma=({sigma.x},{sigma.tau.images}) pi={p.images}")
            if involute(out) != pair:
                report.record("involution", False,
                              f"sigma=({sigma.x},{sigma.tau.images}) pi={p.images}")
            checked += 1
    report.record("statistic_swap", True)
    report.record("involution", True)
    report.checked = checked
    report.wall_time = time.perf_counter() - t0
    return report


def sample_empirical(
    k: int, n: int, trials: int, seed: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Empirical histograms (cycle side, fixed-point side) from ``trials``
    independent uniform draws on each side.  Deterministic per seed.

    A side whose group has at most ``trials`` elements, and at most 8!,
    draws a uniform rank and reads its statistic from a table built in this
    call; a larger side shuffles one element per trial."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = random.Random(seed)
    draw_cyc = _k_cycle_sampler(k, n, trials, rng)
    draw_fxpt = _fixed_point_sampler(k, n, trials, rng)
    cyc_counts = [0] * (n + 1)
    fxpt_counts = [0] * (n + 1)
    for _ in range(trials):
        cyc_counts[draw_cyc()] += 1
        fxpt_counts[draw_fxpt()] += 1
    return tuple(cyc_counts), tuple(fxpt_counts)


def _table_sampler(table: list[int], rng: random.Random) -> Callable[[], int]:
    randrange, size = rng.randrange, len(table)
    return lambda: table[randrange(size)]


def _k_cycle_sampler(k: int, n: int, trials: int, rng: random.Random) -> Callable[[], int]:
    # Draws the k-cycle count of a uniform element of S_kn.
    m = k * n
    if factorial(m) <= min(trials, _TABLE_CAP):
        table = [_k_cycles_oneline(p, k) for p in itertools.permutations(range(m))]
        return _table_sampler(table, rng)
    letters = list(range(m))

    def draw() -> int:
        rng.shuffle(letters)
        return _k_cycles_oneline(letters, k)

    return draw


def _fixed_point_sampler(k: int, n: int, trials: int, rng: random.Random) -> Callable[[], int]:
    # Draws the fixed-point count of a uniform element of Z_k^n x| S_n.
    if k**n * factorial(n) <= min(trials, _TABLE_CAP):
        return _table_sampler(list(_fixed_point_stats(k, n)), rng)
    tau = list(range(n))

    def draw() -> int:
        rng.shuffle(tau)
        return sum(1 for i in range(n) if rng.randrange(k) == 0 and tau[i] == i)

    return draw
