"""Exhaustive and sampled verification of the distribution identity, the
bijection, and the involution.

All counts are exact Python integers; the distribution identity is checked
in cross-multiplied form so no rationals or floats ever appear.  Both
censuses enumerate the symmetric group two letters short and insert the
two largest letters.  The k-cycle census splits into lexicographic rank
ranges of S_{kn-2}, each word standing for the kn(kn - 1) words that
inserting kn - 1 and then kn makes of it; worker counts merge by sum.  The
fixed-point census scans S_{n-2} once, inserts the letter n - 1 and then n
into its fixed-point tallies, and counts the vectors x of each tau by the
product rule.  The two share no code, so at k = 1 they are independent
witnesses of the same law.

The sampler's small tables are these distributions expanded in value order.
It runs all its trials in one loop and draws each uniform integer from
``getrandbits`` as ``Random.randrange`` does, so a tabulated side costs no
Python call per trial and a seed gives the histograms that ``randrange``
would.

The exhaustive bijection and involution checks share one pass, a memoized
search over the suffixes of hat words.  Both kernels fold one step per block
over the hat word, right to left, and a step reads only the block, its
offset, g (the first record past it) and top (the largest letter left of
it).  A search that picks blocks from the right knows all of them: the
letters left of a block are those not yet picked, so the offset is their
number and top their largest.  So the blocks left of a suffix, and every
step and check on them, depend on the suffix through three things only: the
letters left, g, and whether the suffix's first leader is a record, which
decides whether the block just left of it can be a fixed point of sigma.
Suffixes that agree on these have identical subtrees, so the search steps
each such state once, where a tree would step every suffix of every word.
The flag is in fact fixed by g, which lies in the suffix's first block iff
that block holds a record, so there are at most 2^kn (kn + 1) states.  This
assumes only that a step is a function of its arguments.  At each block it
checks that the inverse step gives the block and g back, that the cycle
starts at the block's largest letter, that the residue lies in 0..k-1 and
that g moves to the block's first record; each state returns the set of
(k-cycles of pi, fixed points of sigma) pairs that its blocks can add, so
the root's set holds the pair of every word, and the pass needs each pair
equal.  What the steps leave out (cutting, the largest letter left of each
block, ranking the leaders into tau_hat and placing cycles and residues by
it) is checked on the folds' own code once per element of S(k, n), streamed.
That shows the forward kernel one-to-one from S_kn into D_{k,n} x S(k, n),
keeping the statistic; as |D| k^n n! = (kn)!, it is onto, so the inverse
kernel undoes it on every pair, and the involution swaps the statistics and
undoes itself on every pair.  When anything fails, both checks fall back to
a kernel pass over every permutation, one byte per pair, (kn)! bytes in all,
and then the pairs, so the failing pairs are found one by one, in
enumeration order.
"""

from __future__ import annotations

import itertools
import os
import random
import time
from collections import defaultdict
from dataclasses import dataclass, field
from math import comb, factorial
from operator import eq
from typing import Callable, Iterable, Iterator

from . import forward, inverse
from .forward import _factor_word
from .inverse import _cycle_words, _factorization_factors, _unfactor_word, count_k_cycle_factorizations
from .permutations import _hat_cycles, _product_past, check_capacity, check_sizes, stanley_unhat

#: Pair-product verification refuses above this many pairs unless overridden.
DEFAULT_PAIR_CAPACITY = 100_000_000

#: The sampler tabulates a group's statistic only up to 8! elements.
_TABLE_CAP = 40_320

#: A smaller census runs serially: on 2 cores a pool of 2 is slower at 10!
#: (65-72 ms against 42-53 ms serial) and faster at 11! (0.36 s against 0.50-0.58 s).
_POOL_MIN = 39_916_800


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
    # Counts k-cycles over the words of S_m, m = kn, made from each v in a
    # lexicographic rank range of S_{m-2} by inserting m - 1 at q and then m
    # at p: a bijection (v, q, p) -> word onto S_m.  Read as a hat word, whose
    # cycles run from each record to the next, with K(i) the k-cycles of the
    # prefix v[:i] (its open last piece counted if of length k), that word has
    # K(p) + [m - p = k] k-cycles if p <= q (m - 1 follows m, so is no record)
    # and K(q) + [p - q = k] + [m - p = k] if p > q.  So one scan of v, which
    # tallies K(i) for i = 0..m-2, counts m(m - 1) words, and how many words
    # each tally stands for, with how many more k-cycles, depends on i alone.
    # Before v[i], c is the k-cycles v[:i] closed and d where its open cycle
    # reaches length k.  islice skips the ranks before start in C.
    k, n, start, stop = args
    m = k * n
    last, tally = m - 2, [[0] * (n + 1) for _ in range(m - 1)]
    for v in itertools.islice(itertools.permutations(range(1, m - 1)), start, stop):
        c, top, d = 0, 0, k
        for i, letter in enumerate(v):
            tally[i][c + (i == d)] += 1
            if letter > top:
                c, top, d = c + (i == d), letter, i + k
        tally[last][c + (d == last)] += 1
    counts = [0] * (n + 1)
    for i, row in enumerate(tally):
        more = [0, 0, 0]  # words per tally by their k-cycles beyond K(i)
        more[m - i == k] += m - 1 - i  # p = i <= q
        for j in range(1, m - i):  # q = i, p = i + j
            more[(j == k) + (m - i - j == k)] += 1
        for c, t in enumerate(row):
            for e, w in enumerate(more):
                if t and w:
                    counts[c + e] += t * w
    return counts


def k_cycle_distribution(
    k: int, n: int, limit: int | None = None, jobs: int = 1
) -> Distribution:
    """counts[m] = number of permutations of {1..kn} with exactly m
    k-cycles, by exhaustive enumeration (optionally partitioned across
    ``jobs`` processes, at most one per usable CPU, from ``_POOL_MIN`` permutations)."""
    check_sizes(k, n)
    check_capacity(range(1, k * n + 1), limit, f"S_{k * n}")
    if k * n < 2:  # S_0 or S_1: the identity alone, with n k-cycles
        return Distribution(k, n, (0,) * n + (1,))
    cpus = getattr(os, "sched_getaffinity", lambda pid: range(os.cpu_count() or 1))
    jobs = min(jobs, len(cpus(0))) if factorial(k * n) >= _POOL_MIN else 1
    total = factorial(k * n - 2)
    if jobs <= 1:
        counts = _cyc_counts_range((k, n, 0, total))
    else:
        import multiprocessing  # here: a process that starts no pool is spared its 1 MiB

        bounds = [total * j // jobs for j in range(jobs + 1)]
        tasks = [(k, n, a, b) for a, b in zip(bounds, bounds[1:])]
        with multiprocessing.Pool(jobs) as pool:
            parts = pool.map(_cyc_counts_range, tasks)
        counts = [sum(col) for col in zip(*parts)]
    return Distribution(k, n, tuple(counts))


def fixed_point_distribution(k: int, n: int, limit: int | None = None) -> Distribution:
    """counts[m] = number of elements of Z_k^n x| S_n with exactly m fixed
    points, by exhaustive enumeration of S_{n-2} and an exact count of x.

    Element (x, tau) fixes i when tau(i) = i and x_i = 0.  Each tau in S_s
    comes from one word u of S_{s-1}, 0-based, with the letter s - 1
    inserted: as a fixed point, or into u's cycle right after some j.  If u
    has f fixed points, that makes one tau with f + 1, f with f - 1 (j
    fixed by u) and s - 1 - f with f.  The census tallies S_{n-2} by fixed
    points and takes this step at s = n - 1 and at s = n.  A tau with f
    fixed points is completed by C(f, m) (k-1)^(f-m) k^(n-f) vectors x with
    exactly m zeros on its fixed points."""
    check_sizes(k, n)
    check_capacity(range(k, k * n + 1, k), limit, f"S({k},{n})")
    base = max(n - 2, 0)  # below n = 2, S_0 and a step at each size up to n
    ident = range(base)
    taus = [0] * (n + 1)
    for u in itertools.permutations(ident):
        taus[sum(map(eq, u, ident))] += 1
    for s in range(base + 1, n + 1):
        words, taus = taus, [0] * (n + 1)
        for f, c in enumerate(words[:s]):
            taus[f + 1] += c
            taus[f] += (s - 1 - f) * c
            if f:
                taus[f - 1] += f * c
    counts = [
        sum(taus[f] * comb(f, m) * (k - 1) ** (f - m) * k ** (n - f) for f in range(m, n + 1))
        for m in range(n + 1)
    ]
    return Distribution(k, n, tuple(counts))


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


def _gsg_words(k: int, n: int, limit: int | None) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # Every (x, tau) in Z_k^n x| S_n, as x and the hat word of tau, streamed;
    # the capacity check runs at the call.
    check_capacity(range(k, k * n + 1, k), limit, f"S({k},{n})")
    xs = list(itertools.product(range(k), repeat=n))
    return ((x, tau) for tau in itertools.permutations(range(1, n + 1)) for x in xs)


def _fixed_points(x: tuple[int, ...], tau_hat: tuple[int, ...]) -> int:
    # i is fixed by (x, tau) when x_i = 0 and i is a 1-cycle of tau.
    return sum(x[i - 1] == 0 for i in _hat_cycles(tau_hat, 1))


def _suffix_pass(k: int, n: int, limit: int | None) -> tuple[bool, int]:
    # Whether the suffix search, the frames and the codomain all pass, with
    # the number of delta's.  The capacity checks run in the order of
    # _round_trips.
    check_sizes(k, n)
    check_capacity(range(1, k * n + 1), limit, f"S_{k * n}")
    sigmas = _gsg_words(k, n, limit)
    check_capacity(_factorization_factors(k, n), limit, f"D_{{{k},{n}}}")
    # Each delta must be the hat word of n disjoint k-cycles on 1..kn; the
    # frames check runs on the last one.
    letters, n_delta, valid, delta = list(range(1, k * n + 1)), 0, True, None
    for delta in _cycle_words(frozenset(letters), k):
        n_delta += 1
        valid = valid and sorted(delta) == letters and len(_hat_cycles(delta, k)) == n
    passed = (
        valid
        and n_delta == count_k_cycle_factorizations(k, n)
        and _frames_pass(k, sigmas, delta) == k**n * factorial(n)
        and (tallies := _search(k, n)) is not None
        and all(c == f for c, f in tallies)
    )
    return passed, n_delta


def _frames_pass(k: int, sigmas: Iterable, delta: tuple[int, ...]) -> int:
    # The folds' code outside the steps, once per sigma = (x, tau_hat), on
    # the word whose blocks are delta's cycles in tau_hat order, each shift
    # 0: cutting it gives those cycles and the largest letter left of each
    # block, ranking and placing them gives delta, x and tau_hat back, and
    # sigma's fixed points are the blocks the search counts as fixed.  delta
    # is a checked hat word, so each cycle's largest letter is its first.
    # Returns how many sigmas passed, stopping at the first that fails.
    passed = 0
    for x, tau_hat in sigmas:
        cycles, residues, tops = inverse._unplace(delta, x, tau_hat, k)
        word = tuple(itertools.chain.from_iterable(cycles))
        truth, top, fixed, open_fixed = [], 0, 0, False
        for cycle, residue in zip(cycles, residues):
            truth.append(top)
            if cycle[0] > top:
                fixed += open_fixed
                top = cycle[0]
                open_fixed = residue == 0
            else:
                open_fixed = False
        if (
            tops != truth
            or forward._cut(word, k) != (cycles, truth)
            or forward._place(cycles, residues) != (delta, x, tau_hat)
            or _fixed_points(x, tau_hat) != fixed + open_fixed
        ):
            break
        passed += 1
    return passed


def _search(k: int, n: int) -> set[tuple[int, int]] | None:
    # Both steps on every block of every hat word of S_kn, stepping each
    # state of a suffix once.  Blocks are picked from the right: whether a letter is a
    # record depends only on the letters after it, so the largest letter
    # left of a block, top, is the largest one not yet picked.  At each
    # block the inverse step must give back the block and the same g, the
    # cycle must start at the block's largest letter, lead, and the residue
    # must lie in 0..k-1.  A k-cycle of pi starts in the block iff lead is a
    # record (lead > top) and the next record, g, lies k past it; the block
    # is a fixed point of sigma iff lead and the next block's leader are
    # records and its residue is 0.  The blocks left of a suffix, and every
    # step on them, depend only on the letters left, g and whether the
    # suffix's first leader is a record, so each such state is searched
    # once, for the set of (k-cycles, fixed points) pairs its blocks can
    # add.  Returns the whole words' set, or None at the first failing check.
    factor_block, unfactor_block = forward._factor_block, inverse._unfactor_block
    cycle_sets: dict[tuple[int, ...], set[tuple[int, ...]]] = {}
    memo: dict[tuple[tuple[int, ...], int, bool], set[tuple[int, int]]] = {}

    def visit(free, g, next_rec):
        i = len(free) // k - 1
        start, tallies = k * i, set()
        for chosen in itertools.combinations(free, k):
            rest = tuple(itertools.filterfalse(chosen.__contains__, free)) if i else ()
            top, lead = (rest[-1] if rest else 0), chosen[-1]
            rec = lead > top
            cycles = cycle_sets.get(chosen)
            if cycles is None:
                cycles = cycle_sets[chosen] = {(lead, *p) for p in itertools.permutations(chosen[:-1])}
            for block in itertools.permutations(chosen):
                cycle, residue, new_g = factor_block(block, g, start, top, k)
                back, _, back_g = unfactor_block(cycle, residue, g, start, top, k)
                if back != block or back_g != new_g or cycle not in cycles or not 0 <= residue < k:
                    return None
                c = f = False
                if rec:
                    j = 0
                    while block[j] < top:
                        j += 1
                    if new_g != start + j + 1:
                        return None
                    c = g - start - block.index(lead) - 1 == k
                    f = next_rec and residue == 0
                elif new_g != g:
                    return None
                if not i:
                    tallies.add((c, f))
                    continue
                key = (rest, new_g, rec)
                left = memo.get(key)
                if left is None:
                    left = memo[key] = visit(rest, new_g, rec)
                    if left is None:
                        return None
                tallies.update([(a + c, b + f) for a, b in left])
        return tallies

    tallies = visit(tuple(range(1, k * n + 1)), k * n + 1, True) if n else {(0, 0)}
    del visit  # it refers to itself: this frees the memo now, not at a later collection
    return tallies


def _round_trips(k: int, n: int, limit: int | None):
    # The kernel pass both exhaustive checks fall back to when the suffix
    # pass finds anything wrong.  rows[delta][i] is set
    # once (delta, sigmas[i]) is known to round-trip and keep its statistic:
    # by a pi that factors into it, round-trips and keeps its own, or else by
    # running the kernels on it.  Failures come back in enumeration order.
    check_sizes(k, n)
    check_capacity(range(1, k * n + 1), limit, f"S_{k * n}")
    sigmas = list(_gsg_words(k, n, limit))
    check_capacity(_factorization_factors(k, n), limit, f"D_{{{k},{n}}}")
    index = {sigma: i for i, sigma in enumerate(sigmas)}
    rows: defaultdict[tuple[int, ...], bytearray] = defaultdict(lambda: bytearray(len(sigmas)))
    bad_pis = []
    for word in itertools.permutations(range(1, k * n + 1)):
        delta, x, tau_hat = _factor_word(word, k)
        kept = len(_hat_cycles(word, k)) == _fixed_points(x, tau_hat)
        back = _unfactor_word(delta, x, tau_hat, k)[0] == word
        if not (kept and back):
            bad_pis.append((word, kept, back))
        elif (i := index.get((x, tau_hat))) is not None:
            rows[delta][i] = 1
    bad_pairs = []
    n_delta = 0
    for delta in _cycle_words(frozenset(range(1, k * n + 1)), k):
        n_delta += 1
        row = rows[delta]
        i = row.find(0)
        while i >= 0:
            x, tau_hat = sigmas[i]
            out = _unfactor_word(delta, x, tau_hat, k)[0]
            back = _factor_word(out, k) == (delta, x, tau_hat)
            if back and len(_hat_cycles(out, k)) == _fixed_points(x, tau_hat):
                row[i] = 1
            else:
                bad_pairs.append((delta, i, back))
            i = row.find(0, i + 1)
    return sigmas, rows, bad_pis, bad_pairs, n_delta


def verify_bijection(k: int, n: int, limit: int | None = None) -> VerificationReport:
    """Round-trip the factorization both ways over the whole domain and
    codomain, and check the statistic equality on every element.  Each
    permutation is enumerated by its hat word, which is exact because the
    hat map is a bijection.

    ``codomain_cardinality`` holds when the enumeration of D_{k,n} yields
    (kn)!/(k^n n!) hat words, the closed form of
    :func:`~cycleswap.inverse.count_k_cycle_factorizations`, so that the
    codomain has |D| k^n n! = (kn)! pairs, as many as S_kn has elements.
    It counts the words and does not compare them; the pass checks that
    each one is the hat word of n disjoint k-cycles on 1..kn."""
    report = VerificationReport("bijection", k, n)
    t0 = time.perf_counter()
    passed, n_delta = _suffix_pass(k, n, limit)
    bad_pis = bad_pairs = ()
    if not passed:
        sigmas, _, bad_pis, bad_pairs, n_delta = _round_trips(k, n, limit)
    for word, kept, back in bad_pis:
        if not kept:
            report.record("statistic_preserved", False, f"pi={stanley_unhat(word).images}")
        if not back:
            report.record("left_inverse", False, f"pi={stanley_unhat(word).images}")
    report.record("statistic_preserved", True)
    report.record("left_inverse", True)
    for delta, i, back in bad_pairs:
        if not back:
            x, tau_hat = sigmas[i]
            report.record("right_inverse", False, f"delta={stanley_unhat(delta).images} "
                          f"sigma=({x},{stanley_unhat(tau_hat).images})")
    report.record("right_inverse", True)
    report.record(
        "codomain_cardinality",
        n_delta == count_k_cycle_factorizations(k, n)
        and n_delta * k**n * factorial(n) == factorial(k * n),
        f"|D|={n_delta}",
    )
    report.checked = factorial(k * n) + n_delta * k**n * factorial(n)
    report.wall_time = time.perf_counter() - t0
    return report


def verify_involution(
    k: int, n: int, pair_limit: int | None = None, limit: int | None = None
) -> VerificationReport:
    """Apply the involution twice to every pair in the full product and
    check the statistic swap on the way.

    The involution sends (sigma', pi) to (sigma_pi, unfactor(delta_pi,
    sigma')), so it swaps the statistics and undoes itself on every pair as
    soon as the factorization round-trips both ways, keeps the statistic
    and its codomain has (kn)! elements: then the bijection check's suffix
    pass settles every pair.  Otherwise each pair is checked in turn, except
    those whose pi and (delta_pi, sigma') both passed the fallback's kernel
    pass."""
    report = VerificationReport("involution", k, n)
    t0 = time.perf_counter()
    check_sizes(k, n)
    if pair_limit is None:
        pair_limit = DEFAULT_PAIR_CAPACITY
    pair_factors = itertools.chain(range(1, k * n + 1), range(k, k * n + 1, k))
    check_capacity(pair_factors, pair_limit, f"S({k},{n}) x S_{k * n}")
    passed, _ = _suffix_pass(k, n, limit)
    if not passed:
        sigmas, rows, bad_pis, bad_pairs, n_delta = _round_trips(k, n, limit)
        passed = not (bad_pis or bad_pairs) and n_delta * len(sigmas) == factorial(k * n)
    if not passed:
        bad = {word for word, _, _ in bad_pis}
        pis = []
        for word in itertools.permutations(range(1, k * n + 1)):
            delta, x_pi, tau_pi = _factor_word(word, k)
            pis.append((word, delta, x_pi, tau_pi, None if word in bad else rows.get(delta)))
        for i, (x, tau_hat) in enumerate(sigmas):
            fixed = _fixed_points(x, tau_hat)
            for word, delta, x_pi, tau_pi, row in pis:
                if row is not None and row[i]:
                    continue
                out = _unfactor_word(delta, x, tau_hat, k)[0]
                swapped = (len(_hat_cycles(word, k)) == _fixed_points(x_pi, tau_pi)
                           and len(_hat_cycles(out, k)) == fixed)
                back, *sigma_back = _factor_word(out, k)
                twice = (sigma_back == [x, tau_hat]
                         and _unfactor_word(back, x_pi, tau_pi, k)[0] == word)
                if not (swapped and twice):
                    text = f"sigma=({x},{stanley_unhat(tau_hat).images}) pi={stanley_unhat(word).images}"
                    report.record("statistic_swap", swapped, text)
                    report.record("involution", twice, text)
    report.record("statistic_swap", True)
    report.record("involution", True)
    report.checked = factorial(k * n) * k**n * factorial(n)
    report.wall_time = time.perf_counter() - t0
    return report


def sample_empirical(
    k: int, n: int, trials: int, seed: int
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Empirical histograms (cycle side, fixed-point side) from ``trials``
    independent uniform draws on each side.  Deterministic per seed.

    A side whose group has at most ``trials`` elements, and at most 8!,
    draws a uniform entry of a table built in this call from its exact
    distribution; a larger side draws each trial's element cycle by cycle.
    Each trial draws the cycle side, then the fixed-point side.  Every draw
    is an exactly uniform integer below a size, made from ``getrandbits`` as
    ``Random.randrange`` makes it (see :func:`_uniform_below`), so a seed
    gives the histograms that ``randrange`` draws in that order would.  A
    tabulated side costs no Python call per trial; a cycle-by-cycle side
    costs one call per trial and one per cycle drawn."""
    check_sizes(k, n)
    if trials < 1:
        raise ValueError("trials must be >= 1")
    getrandbits = random.Random(seed).getrandbits
    below = _uniform_below(getrandbits)
    cyc_table, fxpt_table = _tables(k, n, trials)
    if cyc_table is not None:
        cyc_size, cyc_bits = len(cyc_table), len(cyc_table).bit_length()
    if fxpt_table is not None:
        fxpt_size, fxpt_bits = len(fxpt_table), len(fxpt_table).bit_length()
    cyc_counts, fxpt_counts = [0] * (n + 1), [0] * (n + 1)
    for _ in range(trials):
        if cyc_table is None:
            cyc_counts[_count_cycles(k * n, k, 1, below)] += 1
        else:
            r = getrandbits(cyc_bits)
            while r >= cyc_size:
                r = getrandbits(cyc_bits)
            cyc_counts[cyc_table[r]] += 1
        if fxpt_table is None:
            fxpt_counts[_count_cycles(n, 1, k, below)] += 1
        else:
            r = getrandbits(fxpt_bits)
            while r >= fxpt_size:
                r = getrandbits(fxpt_bits)
            fxpt_counts[fxpt_table[r]] += 1
    return tuple(cyc_counts), tuple(fxpt_counts)


def _uniform_below(getrandbits: Callable[[int], int]) -> Callable[[int], int]:
    # below(size) is uniform on 0..size-1 for size >= 1, drawn as
    # Random.randrange(size) draws it (CPython 3.10 to 3.13): getrandbits of
    # size's bit length until the result is below size.  Exact, with no float,
    # and the same bits consumed as randrange would.
    def below(size: int) -> int:
        bits = size.bit_length()
        r = getrandbits(bits)
        while r >= size:
            r = getrandbits(bits)
        return r

    return below


def _count_cycles(size: int, length: int, keep: int, below: Callable[[int], int]) -> int:
    # Cycles of the given length of a uniform element of S_size, each counted
    # with probability 1/keep, drawn cycle by cycle: its hat word is a uniform
    # word whose last cycle starts at the largest letter, so that cycle's length
    # is uniform on 1..size, and the letters before it are a uniform word.
    hits = 0
    while size:
        cycle = below(size) + 1
        if cycle == length:
            hits += below(keep) == 0
        size -= cycle
    return hits


def _tables(k: int, n: int, trials: int) -> tuple[list[int] | None, list[int] | None]:
    # The value tables of the cycle side, S_kn, and of the fixed-point side,
    # Z_k^n x| S_n: each side's statistic on every element of its group, in
    # value order (any fixed order will do, since each trial draws a uniform
    # position), or None for a group above min(trials, 8!).  The orders are
    # the products 1*2*...*kn and k*2k*...*nk; each is multiplied out only
    # until it passes the cap, so a huge group costs no huge factorial.
    cap = min(trials, _TABLE_CAP)
    return tuple(
        [m for m, c in enumerate(distribution(k, n).counts) for _ in range(c)]
        if _product_past(factors, cap) <= cap else None
        for distribution, factors in (
            (k_cycle_distribution, range(1, k * n + 1)),
            (fixed_point_distribution, range(k, k * n + 1, k)),
        )
    )

