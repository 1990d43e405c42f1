import itertools
import multiprocessing
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from fractions import Fraction
from math import comb, factorial, prod
from pathlib import Path

import pytest

from cycleswap import harness
from cycleswap.harness import (
    Distribution,
    VerificationReport,
    fixed_point_distribution,
    k_cycle_distribution,
    sample_empirical,
    verify_bijection,
    verify_distribution_identity,
    verify_involution,
)
from cycleswap.gsg import count_fixed_points, enumerate_gsg
from cycleswap.inverse import count_k_cycle_factorizations, enumerate_k_cycle_factorizations
from cycleswap.permutations import CapacityError, _hat_cycles, enumerate_permutations, stanley_unhat


def _naive_cycle_lengths(images):
    """Cycle length census of a 0-based one-line tuple, written with no
    shared code with the library's cycle machinery."""
    lengths = []
    todo = set(range(len(images)))
    while todo:
        j = start = todo.pop()
        length = 1
        while images[j] != start:
            j = images[j]
            todo.discard(j)
            length += 1
        lengths.append(length)
    return lengths


def _naive_pieces(word):
    """``word`` cut before each left-to-right maximum."""
    pieces = []
    for letter in word:
        if not pieces or letter > max(max(p) for p in pieces):
            pieces.append([])
        pieces[-1].append(letter)
    return pieces


def _naive_unhat(word):
    """0-based one-line images of the permutation whose hat word is the
    1-based ``word``: cut before each left-to-right maximum, read each
    piece as a cycle.  Shares no code with the library."""
    images = [None] * len(word)
    for piece in _naive_pieces(word):
        for a, b in zip(piece, piece[1:] + piece[:1]):
            images[a - 1] = b - 1
    return tuple(images)


def _naive_cyc_counts(k, n):
    counts = [0] * (n + 1)
    for images in itertools.permutations(range(k * n)):
        counts[_naive_cycle_lengths(images).count(k)] += 1
    return tuple(counts)


def _naive_fxpt_counts(k, n):
    counts = [0] * (n + 1)
    for images in itertools.permutations(range(n)):
        for x in itertools.product(range(k), repeat=n):
            fp = sum(1 for i in range(n) if x[i] == 0 and images[i] == i)
            counts[fp] += 1
    return tuple(counts)


def _exact_cyc_counts(k, n):
    # Closed form: permutations of {1..kn} with exactly m k-cycles.
    return tuple(
        sum((-1) ** j * factorial(k * n) // (k ** (m + j) * factorial(m) * factorial(j))
            for j in range(n - m + 1))
        for m in range(n + 1)
    )


def _exact_fxpt_counts(k, n):
    # Closed form: elements of Z_k^n x| S_n with exactly m fixed points.
    return tuple(
        comb(n, m) * sum((-1) ** i * comb(n - m, i) * k ** (n - m - i) * factorial(n - m - i)
                         for i in range(n - m + 1))
        for m in range(n + 1)
    )


def test_table1_cycle_side():
    assert k_cycle_distribution(2, 3).counts == (435, 225, 45, 15)
    assert k_cycle_distribution(2, 3).total == 720


def test_table1_fixed_point_side():
    assert fixed_point_distribution(2, 3).counts == (29, 15, 3, 1)
    assert fixed_point_distribution(2, 3).total == 48


def test_cyc_distribution_k1():
    # 1-cycles of S_2: the identity has 2, the transposition 0.
    assert k_cycle_distribution(1, 2).counts == (1, 0, 1)


def test_fxpt_distribution_k1_derangements():
    assert fixed_point_distribution(1, 3).counts == (2, 3, 0, 1)


@pytest.mark.parametrize("k,n", [(1, 3), (2, 2), (3, 2), (2, 3)])
def test_distributions_match_naive_oracle(k, n):
    assert k_cycle_distribution(k, n).counts == _naive_cyc_counts(k, n)
    assert fixed_point_distribution(k, n).counts == _naive_fxpt_counts(k, n)


@pytest.mark.parametrize(
    "k,n", [(k, n) for k in range(1, 9) for n in range(0, 8 // k + 1)]
)
def test_k_cycle_census_matches_per_word_count(k, n):
    # Each word of S_{kn-2} stands for the words that inserting kn - 1 and
    # then kn at every (q, p) makes of it; the census must read each one's
    # own k-cycle count, as the per-word counter does, and so the count of
    # every word of S_kn.  S_0 and S_1 have nothing two letters short.
    m = k * n
    counts = [0] * (n + 1)
    for word in itertools.permutations(range(1, m + 1)):
        counts[len(_hat_cycles(word, k))] += 1
    if m >= 2:
        inserted = [0] * (n + 1)
        for word in _insert_two_largest(itertools.permutations(range(1, m - 1)), m):
            inserted[len(_hat_cycles(word, k))] += 1
        assert harness._cyc_counts_range((k, n, 0, factorial(m - 2))) == inserted
    assert k_cycle_distribution(k, n).counts == tuple(counts)


def _insert_two_largest(words, m):
    # The words that inserting m - 1 at q and then m at p, for every (q, p),
    # make of each word of S_{m-2}, in order.
    for v in words:
        for q in range(m - 1):
            w = v[:q] + (m - 1,) + v[q:]
            for p in range(m):
                yield w[:p] + (m,) + w[p:]


@pytest.mark.parametrize("m", range(2, 8))
def test_inserting_the_two_largest_letters_reaches_each_word_once(m):
    # (v, q, p) -> word is a bijection from S_{m-2} x {0..m-2} x {0..m-1}
    # onto S_m, and each word's k-cycle count is the one the census reads
    # off v's prefixes: K(p) + [m - p = k] if p <= q, else K(q) + [p - q = k]
    # + [m - p = k], K(i) the k-cycles of v[:i] read as a hat word.
    words = list(_insert_two_largest(itertools.permutations(range(1, m - 1)), m))
    assert sorted(words) == list(itertools.permutations(range(1, m + 1)))
    for k in range(1, m + 1):
        at = iter(words)
        for v in itertools.permutations(range(1, m - 1)):
            K = [[len(p) for p in _naive_pieces(v[:i])].count(k) for i in range(m - 1)]
            for q in range(m - 1):
                for p in range(m):
                    if p <= q:
                        want = K[p] + (m - p == k)
                    else:
                        want = K[q] + (p - q == k) + (m - p == k)
                    assert len(_hat_cycles(next(at), k)) == want, (v, q, p, k)


def test_censuses_at_the_smallest_sizes():
    # kn and n in {0, 1, 2}: the k-cycle census below S_2 is the identity
    # alone, and the fixed-point census takes fewer than two insertion steps
    # below n = 2.
    assert k_cycle_distribution(4, 0).counts == (1,)
    assert k_cycle_distribution(1, 1).counts == (0, 1)
    assert k_cycle_distribution(1, 2).counts == (1, 0, 1)
    assert k_cycle_distribution(2, 1).counts == (1, 1)
    assert fixed_point_distribution(3, 0).counts == (1,)
    assert fixed_point_distribution(1, 1).counts == (0, 1)
    assert fixed_point_distribution(3, 1).counts == (2, 1)
    assert fixed_point_distribution(1, 2).counts == (1, 0, 1)
    assert fixed_point_distribution(2, 2).counts == (5, 2, 1)


@pytest.mark.parametrize(
    "k,n", [(k, n) for k in range(1, 8) for n in range(0, 7 // k + 1)]
)
def test_fixed_point_distribution_matches_gsg_enumeration(k, n):
    counts = [0] * (n + 1)
    for s in enumerate_gsg(k, n):
        counts[count_fixed_points(s)] += 1
    assert fixed_point_distribution(k, n).counts == tuple(counts)


def _per_element_fxpt_counts(k, n):
    # Every (x, tau), 0-based, as the word w_i = tau(i) + n*x_i: since
    # 0 <= tau(i) < n, w_i == i exactly when x_i == 0 and tau(i) == i.
    counts = [0] * (n + 1)
    ident = range(n)
    for x in itertools.product(range(k), repeat=n):
        for tau in itertools.permutations(ident):
            counts[sum(tau[i] + n * x[i] == i for i in ident)] += 1
    return tuple(counts)


@pytest.mark.parametrize(
    "k,n", [(k, n) for k in range(1, 9) for n in range(0, 8 // k + 1)]
)
def test_fixed_point_census_matches_per_element_count(k, n):
    assert fixed_point_distribution(k, n).counts == _per_element_fxpt_counts(k, n)


def _assert_insertions_reach_each_tau_once(n, base):
    # From each 0-based word u of S_base, insert the letter s - 1 at each
    # size s = base + 1..n: as a fixed point, or right after j in u's cycle.
    # The census reads the fixed points of each tau off u's f: f + 1, f - 1
    # when u(j) = j, else f.  Each tau of S_n must be reached once, with its
    # own count.
    taus = [(u, sum(u[i] == i for i in range(base))) for u in itertools.permutations(range(base))]
    for s in range(base + 1, n + 1):
        grown = []
        for u, f in taus:
            grown.append((u + (s - 1,), f + 1))
            for j in range(s - 1):
                tau = list(u) + [u[j]]
                tau[j] = s - 1
                grown.append((tuple(tau), f - 1 if u[j] == j else f))
        taus = grown
    assert sorted(tau for tau, _ in taus) == list(itertools.permutations(range(n)))
    counts = [0] * (n + 1)
    for tau, fixed in taus:
        assert fixed == sum(tau[i] == i for i in range(n)), tau
        counts[fixed] += 1
    assert fixed_point_distribution(1, n).counts == tuple(counts)


@pytest.mark.parametrize("n", range(1, 7))
def test_inserting_the_largest_letter_reaches_each_tau_once(n):
    # One insertion step, from S_{n-1}: the step the census takes at each size.
    _assert_insertions_reach_each_tau_once(n, n - 1)


@pytest.mark.parametrize("n", range(0, 7))
def test_inserting_two_letters_reaches_each_tau_once(n):
    # The census's own path: S_{n-2} tallied, then the step at sizes n - 1
    # and n (below n = 2, from S_0 at each size up to n).
    _assert_insertions_reach_each_tau_once(n, max(n - 2, 0))


def test_k_cycle_distribution_rejects_bad_sizes():
    with pytest.raises(ValueError, match="k must be positive"):
        k_cycle_distribution(0, 3)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        k_cycle_distribution(2, -1)


def test_fixed_point_distribution_rejects_bad_sizes():
    with pytest.raises(ValueError, match="k must be positive"):
        fixed_point_distribution(0, 3)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        fixed_point_distribution(2, -1)
    with pytest.raises(CapacityError):
        fixed_point_distribution(2, 4, limit=383)
    assert fixed_point_distribution(2, 4, limit=384).total == 384


def test_fixed_point_distribution_memory_independent_of_k():
    # At n = 1 the group is Z_k; its k shifts must stream, not be stored.
    tracemalloc.start()
    try:
        counts = fixed_point_distribution(50_000, 1).counts
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert counts == (49_999, 1)
    assert peak < 100_000


@pytest.mark.parametrize("k,n", [(1, 4), (2, 3), (3, 2), (4, 1), (2, 2)])
def test_distribution_totals(k, n):
    assert k_cycle_distribution(k, n).total == factorial(k * n)
    assert fixed_point_distribution(k, n).total == k**n * factorial(n)


@pytest.mark.parametrize("k,n", [(2, 3), (1, 4), (3, 2)])
def test_distribution_identity_passes(k, n):
    report = verify_distribution_identity(k, n)
    assert report.passed, report.counterexample


def test_identity_arithmetic_spot_check():
    cyc = k_cycle_distribution(2, 3)
    fxpt = fixed_point_distribution(2, 3)
    assert cyc.counts[0] * 48 == fxpt.counts[0] * 720 == 20880


def _no_pool(*args, **kwargs):
    raise AssertionError("a worker pool was started")


def test_parallel_counts_match_serial(monkeypatch):
    # 6! words is below the pool threshold: every jobs count runs serially.
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    serial = k_cycle_distribution(2, 3, jobs=1)
    for jobs in (2, 3, 5):
        assert k_cycle_distribution(2, 3, jobs=jobs).counts == serial.counts


def test_parallel_census_merges_the_worker_ranges(monkeypatch, in_process_pool):
    # 11! words reaches the threshold and 10! does not.  Below it no pool
    # starts; from it the census is split into (kn-2)!/jobs ranges of
    # S_{kn-2}, jobs is capped at the CPUs this process may run on, not at
    # the host's count, and the ranges, counted in this process, are merged.
    assert factorial(11) >= harness._POOL_MIN > factorial(10)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 64)
    assert k_cycle_distribution(2, 5, jobs=5).counts == _exact_cyc_counts(2, 5)
    assert in_process_pool == []
    monkeypatch.setattr(harness, "_POOL_MIN", factorial(8))
    assert k_cycle_distribution(2, 4, jobs=5).counts == _exact_cyc_counts(2, 4)
    third = factorial(6) // 3
    assert in_process_pool == [3, [(2, 4, 0, third), (2, 4, third, 2 * third), (2, 4, 2 * third, 3 * third)]]
    in_process_pool.clear()
    monkeypatch.setattr(harness, "_POOL_MIN", factorial(8) + 1)
    assert k_cycle_distribution(2, 4, jobs=5).counts == _exact_cyc_counts(2, 4)
    assert in_process_pool == []


def test_census_workers_capped_at_cpu_count_without_affinity(monkeypatch, in_process_pool):
    # Where the platform has no sched_getaffinity, the CPU count caps jobs.
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "_POOL_MIN", factorial(8))
    assert k_cycle_distribution(2, 4, jobs=5).counts == _exact_cyc_counts(2, 4)
    assert in_process_pool[0] == 2


def test_no_pool_module_is_imported_until_a_pool_starts():
    # multiprocessing costs a process about 1 MiB; a census below _POOL_MIN,
    # whatever its jobs, and every other command do without it.
    code = (
        "import sys, cycleswap.cli\n"
        "from cycleswap.harness import k_cycle_distribution\n"
        "k_cycle_distribution(2, 4, jobs=2)\n"
        "print(sorted(m for m in sys.modules if m.startswith('multiprocessing')))\n"
    )
    src = str(Path(harness.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert (out.returncode, out.stdout) == (0, "[]\n"), out.stderr


@pytest.mark.parametrize("k,n", [(1, 6), (2, 3), (3, 2)])
def test_rank_ranges_match_full_count(monkeypatch, k, n):
    # Ragged [start, stop) ranges of S_{kn-2}, within one first-letter block
    # and across several, counted in this process: no pool may start.  The
    # range holds the words that inserting kn - 1 and then kn at every place
    # makes of the words of those ranks, each read as a hat word.
    monkeypatch.setattr(multiprocessing, "Pool", _no_pool)
    cuts = [0, 1, 3, 5, 13, 17, 23, 24]
    m = k * n
    every = list(itertools.permutations(range(1, m - 1)))
    total = [0] * (n + 1)
    for start, stop in zip(cuts, cuts[1:]):
        part = harness._cyc_counts_range((k, n, start, stop))
        expected = [0] * (n + 1)
        for word in _insert_two_largest(every[start:stop], m):
            expected[_naive_cycle_lengths(_naive_unhat(word)).count(k)] += 1
        assert part == expected, (start, stop)
        total = [a + b for a, b in zip(total, part)]
    assert tuple(total) == k_cycle_distribution(k, n).counts
    assert harness._cyc_counts_range((k, n, 12, 12)) == [0] * (n + 1)


def test_capacity_refusal():
    with pytest.raises(CapacityError):
        k_cycle_distribution(2, 4, limit=1000)
    with pytest.raises(CapacityError):
        verify_involution(2, 3, pair_limit=1000)
    # The exhaustive checks enumerate hat words themselves, so they must
    # apply the caller's limit to S_kn: 8! = 40320 items here.
    with pytest.raises(CapacityError):
        verify_bijection(2, 4, limit=1000)
    with pytest.raises(CapacityError):
        verify_involution(2, 4, limit=1000)


@pytest.mark.parametrize(
    "call",
    [
        lambda: k_cycle_distribution(2, 150_000),
        lambda: fixed_point_distribution(2, 150_000),
        lambda: verify_bijection(2, 150_000),
        lambda: verify_involution(2, 150_000),
        lambda: next(enumerate_permutations(300_000)),
        lambda: next(enumerate_gsg(2, 150_000)),
        lambda: next(enumerate_k_cycle_factorizations(2, 150_000)),
    ],
    ids=["k_cycle", "fixed_point", "bijection", "involution", "s_m", "gsg", "delta"],
)
@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_capacity_refusal_builds_no_group_order(call):
    # Each group order is refused as its factors multiply past the limit;
    # (300000)! alone took seconds to build.
    start = time.perf_counter()
    with pytest.raises(CapacityError, match=r"at least 2\^\d+ items exceeds capacity"):
        call()
    assert time.perf_counter() - start < 0.25


def test_verify_bijection_small():
    report = verify_bijection(3, 1)
    assert report.passed
    assert report.checked == 6 + 6  # 3! inputs plus |D_{3,1}| * |S(3,1)|


def _count_calls(monkeypatch, name):
    calls = []
    real = getattr(harness, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, name, counted)
    return calls


def test_verify_bijection_enumerates_gsg_once(monkeypatch):
    calls = _count_calls(monkeypatch, "_gsg_words")
    assert verify_bijection(2, 2).passed
    assert len(calls) == 1


def test_verify_involution_small():
    report = verify_involution(2, 2)
    assert report.passed
    assert report.checked == 24 * 8


def test_verify_involution_factors_each_pi_once(monkeypatch):
    # Each of the 4! words is factored once.  Every pi then vouches for its
    # (delta, sigma), so a passing run factors nothing more: 24 calls, not the
    # 24 + 192 = 216 of factoring every pair's output.
    calls = _count_calls(monkeypatch, "_factor_word")
    assert verify_involution(2, 2).passed
    assert len(calls) == factorial(4)


def test_verify_involution_unfactors_once_per_pi_and_per_fibre(monkeypatch):
    # Each word's own factorization is unfactored once; no delta-fibre needs
    # an unfactor call of its own when every pi round-trips.
    calls = _count_calls(monkeypatch, "_unfactor_word")
    assert verify_involution(2, 2).passed
    assert len(calls) == factorial(4)


def test_verify_bijection_runs_the_kernels_in_the_left_loop_only(monkeypatch):
    # Every pi marks its (delta, sigma), so the right-inverse loop runs no
    # kernel when everything passes.
    factor_calls = _count_calls(monkeypatch, "_factor_word")
    unfactor_calls = _count_calls(monkeypatch, "_unfactor_word")
    assert verify_bijection(2, 2).passed
    assert len(factor_calls) == factorial(4)
    assert len(unfactor_calls) == factorial(4)


def _break_inverse_kernel(monkeypatch, target):
    # The inverse kernel swaps the first two letters of its output for the
    # one input ``target`` and is right everywhere else.
    real = harness._unfactor_word

    def broken(*args):
        word, shifts = real(*args)
        if args == target:
            word = (word[1], word[0]) + word[2:]
        return word, shifts

    monkeypatch.setattr(harness, "_unfactor_word", broken)


_MISREPORTS = {
    "x": lambda delta, x, tau_hat: (delta, (x[0] + 1,) + x[1:], tau_hat),
    "delta": lambda delta, x, tau_hat: ((delta[1], delta[0]) + delta[2:], x, tau_hat),
}


def _break_forward_kernel(monkeypatch, target, part="x"):
    # The forward kernel reports x_1 + 1, or delta with its first two
    # letters swapped, for the one word ``target`` and is right everywhere
    # else.
    real = harness._factor_word

    def broken(word, k):
        out = real(word, k)
        return _MISREPORTS[part](*out) if word == target else out

    monkeypatch.setattr(harness, "_factor_word", broken)


def test_broken_inverse_kernel_is_caught_by_verify_bijection(monkeypatch):
    _break_inverse_kernel(monkeypatch, (*harness._factor_word((1, 2, 3, 4), 2), 2))
    report = verify_bijection(2, 2)
    assert not report.passed
    assert not (report.properties["left_inverse"] and report.properties["right_inverse"])
    assert re.fullmatch(r"pi=\(\d+(, \d+)*\)", report.counterexample)


def test_broken_inverse_kernel_is_caught_by_verify_involution(monkeypatch):
    _break_inverse_kernel(monkeypatch, ((1, 2, 3), (0, 0, 0), (1, 2, 3), 1))
    report = verify_involution(1, 3)
    assert not report.properties["involution"]
    assert re.fullmatch(r"sigma=\(\(\d, \d, \d\),\(\d, \d, \d\)\) pi=\(\d, \d, \d\)",
                        report.counterexample)


def test_broken_forward_kernel_is_caught_by_verify_bijection(monkeypatch):
    _break_forward_kernel(monkeypatch, (2, 1, 4, 3))
    report = verify_bijection(2, 2)
    assert not report.passed
    assert re.fullmatch(r"pi=\(\d+(, \d+)*\)", report.counterexample)


def test_broken_forward_kernel_is_caught_by_verify_involution(monkeypatch):
    _break_forward_kernel(monkeypatch, (1, 2, 3))
    report = verify_involution(1, 3)
    assert not report.passed
    assert re.fullmatch(r"sigma=\(\(\d, \d, \d\),\(\d, \d, \d\)\) pi=\(\d, \d, \d\)",
                        report.counterexample)


def _naive_verify_bijection(k, n):
    # Both kernels on every pi, and again on every (delta, sigma).
    report = VerificationReport("bijection", k, n)
    checked = 0
    for word in itertools.permutations(range(1, k * n + 1)):
        delta, x, tau_hat = harness._factor_word(word, k)
        if len(_hat_cycles(word, k)) != harness._fixed_points(x, tau_hat):
            report.record("statistic_preserved", False, f"pi={stanley_unhat(word).images}")
        if harness._unfactor_word(delta, x, tau_hat, k)[0] != word:
            report.record("left_inverse", False, f"pi={stanley_unhat(word).images}")
        checked += 1
    report.record("statistic_preserved", True)
    report.record("left_inverse", True)
    sigmas = harness._gsg_words(k, n, None)
    n_delta = 0
    for delta in harness._cycle_words(frozenset(range(1, k * n + 1)), k):
        n_delta += 1
        for x, tau_hat in sigmas:
            out = harness._unfactor_word(delta, x, tau_hat, k)[0]
            if harness._factor_word(out, k) != (delta, x, tau_hat):
                report.record("right_inverse", False, f"delta={stanley_unhat(delta).images} "
                              f"sigma=({x},{stanley_unhat(tau_hat).images})")
        checked += len(sigmas)
    report.record("right_inverse", True)
    report.record(
        "codomain_cardinality",
        n_delta == count_k_cycle_factorizations(k, n)
        and n_delta * k**n * factorial(n) == factorial(k * n),
        f"|D|={n_delta}",
    )
    report.checked = checked
    return report


def _naive_verify_involution(k, n):
    # The involution applied twice to every pair, both kernels each time.
    report = VerificationReport("involution", k, n)
    words = list(itertools.permutations(range(1, k * n + 1)))
    checked = 0
    for x, tau_hat in harness._gsg_words(k, n, None):
        for word in words:
            delta, x_out, tau_out = harness._factor_word(word, k)
            out = harness._unfactor_word(delta, x, tau_hat, k)[0]
            swapped = (len(_hat_cycles(word, k)) == harness._fixed_points(x_out, tau_out)
                       and len(_hat_cycles(out, k)) == harness._fixed_points(x, tau_hat))
            back, *sigma_back = harness._factor_word(out, k)
            twice = (sigma_back == [x, tau_hat]
                     and harness._unfactor_word(back, x_out, tau_out, k)[0] == word)
            if not (swapped and twice):
                text = f"sigma=({x},{stanley_unhat(tau_hat).images}) pi={stanley_unhat(word).images}"
                report.record("statistic_swap", swapped, text)
                report.record("involution", twice, text)
        checked += len(words)
    report.record("statistic_swap", True)
    report.record("involution", True)
    report.checked = checked
    return report


def _miscount_fixed_points(monkeypatch, x0, tau0):
    # One more fixed point than the truth for the one sigma (x0, tau0): every
    # pi that factors into it round-trips but does not keep its statistic.
    real = harness._fixed_points

    def miscounted(x, tau_hat):
        return real(x, tau_hat) + (x == x0 and tau_hat == tau0)

    monkeypatch.setattr(harness, "_fixed_points", miscounted)


def _relabel_delta(monkeypatch, target, k):
    # The forward kernel misreports delta for the one word ``target`` and the
    # inverse kernel maps that report back to ``target``: every pi
    # round-trips, but the (delta, sigma) it came from does not.
    _break_forward_kernel(monkeypatch, target, "delta")
    moved = (*harness._factor_word(target, k), k)
    real = harness._unfactor_word

    def relabelled(*args):
        word, shifts = real(*args)
        return (target if args == moved else word), shifts

    monkeypatch.setattr(harness, "_unfactor_word", relabelled)


def _drop_delta(monkeypatch):
    # The enumeration of delta's hat words skips its first one; the kernels
    # stay right, so every pi and every listed (delta, sigma) round-trips.
    real = harness._cycle_words
    monkeypatch.setattr(harness, "_cycle_words",
                        lambda remaining, k: itertools.islice(real(remaining, k), 1, None))


def _kernel_patches(k, n):
    # No patch, then the kernels broken at the identity word (the last patch
    # keeps every pi round-tripping), then the statistic miscounted at x = 0
    # with tau the identity, then one delta missing from the enumeration.
    ident = tuple(range(1, k * n + 1))
    yield lambda mp: None
    if k * n >= 2:
        yield lambda mp: _break_inverse_kernel(mp, (*harness._factor_word(ident, k), k))
        yield lambda mp: _break_forward_kernel(mp, ident, "x")
        yield lambda mp: _break_forward_kernel(mp, ident, "delta")
        yield lambda mp: _relabel_delta(mp, ident, k)
    yield lambda mp: _miscount_fixed_points(mp, (0,) * n, tuple(range(1, n + 1)))
    yield _drop_delta


def test_a_missing_delta_fails_the_codomain_and_forces_the_pair_walk(monkeypatch):
    # With one delta missing, every pi and every listed pair still passes, so
    # only |D| * k^n * n! = (kn)! can stop verify_involution from passing at
    # once.  It must walk the pairs instead, which factors every pi again:
    # more kernel calls than the 4! + 4! of the pass.
    _drop_delta(monkeypatch)
    report = verify_bijection(2, 2)
    assert report.properties["codomain_cardinality"] is False
    assert report.counterexample == "|D|=2"
    factor_calls = _count_calls(monkeypatch, "_factor_word")
    unfactor_calls = _count_calls(monkeypatch, "_unfactor_word")
    report = verify_involution(2, 2)
    assert report.passed and report.checked == factorial(4) * 8
    assert len(factor_calls) + len(unfactor_calls) > factorial(4) + factorial(4)


def _sizes(max_m):
    return [(k, m // k) for m in range(max_m + 1) for k in range(1, max(m, 1) + 1) if m % k == 0]


@pytest.mark.parametrize("kind, max_m", [("bijection", 6), ("involution", 5)])
def test_verify_matches_the_naive_per_pair_loops(kind, max_m):
    # Every record() call is logged, so the two must judge every failing
    # element or pair alike and in the same order, not just agree on the
    # first counterexample.
    fast = verify_bijection if kind == "bijection" else verify_involution
    naive = _naive_verify_bijection if kind == "bijection" else _naive_verify_involution
    real_record = VerificationReport.record
    log = []

    def logged(self, prop, ok, counterexample=None):
        log.append((prop, ok, counterexample))
        real_record(self, prop, ok, counterexample)

    outcomes = set()
    for k, n in _sizes(max_m):
        for patch in _kernel_patches(k, n):
            with pytest.MonkeyPatch.context() as mp:
                patch(mp)
                mp.setattr(VerificationReport, "record", logged)
                got = fast(k, n)
                got_log, log[:] = log[:], []
                want = naive(k, n)
                want_log, log[:] = log[:], []
            assert (got.properties, got.checked, got.counterexample) == (
                want.properties, want.checked, want.counterexample), (k, n)
            assert got_log == want_log, (k, n)
            outcomes.add(want.passed)
    assert outcomes == {True, False}


def test_sample_deterministic():
    a = sample_empirical(2, 3, 500, seed=7)
    b = sample_empirical(2, 3, 500, seed=7)
    assert a == b
    assert a != sample_empirical(2, 3, 500, seed=8)


def test_sample_single_trial():
    cyc, fxpt = sample_empirical(2, 3, 1, seed=1)
    assert sum(cyc) == 1 and sum(fxpt) == 1


def test_sample_rejects_bad_sizes():
    with pytest.raises(ValueError, match="k must be positive"):
        sample_empirical(0, 3, 10, 1)
    with pytest.raises(ValueError, match="n must be nonnegative"):
        sample_empirical(2, -1, 10, 1)


def test_sample_concentrates():
    cyc, fxpt = sample_empirical(2, 3, 50_000, seed=3)
    assert abs(cyc[0] / 50_000 - 435 / 720) < 0.02
    assert abs(fxpt[0] / 50_000 - 29 / 48) < 0.02


def _spy_tables(monkeypatch):
    sizes = []
    real = harness._tables

    def spy(k, n, trials):
        tables = real(k, n, trials)
        sizes.extend(len(table) for table in tables if table is not None)
        return tables

    monkeypatch.setattr(harness, "_tables", spy)
    return sizes


@pytest.mark.parametrize(
    "k,n,tables",
    [
        (2, 3, [720, 48]),  # both groups within trials: both sides tabulated
        (2, 4, [384]),      # |S_8| = 40320 > trials >= |S(2,4)|
        (3, 3, [162]),      # |S_9| is above the table cap
        (2, 7, []),         # |S(2,7)| = 645120: both sides drawn cycle by cycle
    ],
)
def test_sampler_concordance(monkeypatch, k, n, tables):
    trials = 20_000
    sizes = _spy_tables(monkeypatch)
    cyc, fxpt = sample_empirical(k, n, trials, seed=11)
    assert sizes == tables
    assert sum(cyc) == sum(fxpt) == trials
    cyc_exact, fxpt_exact = _exact_cyc_counts(k, n), _exact_fxpt_counts(k, n)
    for m in range(n + 1):
        p = cyc_exact[m] / factorial(k * n)
        assert p == pytest.approx(fxpt_exact[m] / (k**n * factorial(n)))
        # 0.02 is above five standard deviations of a proportion at 20 000 trials.
        assert abs(cyc[m] / trials - p) < 0.02
        assert abs(fxpt[m] / trials - p) < 0.02


def test_sampler_table_cap_overrides_trials(monkeypatch):
    # With the cap lowered to 100, |S_6| = 720 must be drawn cycle by cycle
    # however many trials are asked for, while |S(2,3)| = 48 is still tabulated.
    monkeypatch.setattr(harness, "_TABLE_CAP", 100)
    cyc_table, fxpt_table = harness._tables(2, 3, 10**12)
    assert cyc_table is None
    assert fxpt_table == [m for m, c in enumerate(_exact_fxpt_counts(2, 3)) for _ in range(c)]


def test_sampler_gate_builds_no_huge_group_order(monkeypatch):
    # Whether a side is tabulated is decided without a group order past 8!:
    # at kn = 300000, factorial(kn) alone took seconds.
    real = harness.factorial

    def bounded(m):
        assert m <= 8, f"factorial({m})"
        return real(m)

    monkeypatch.setattr(harness, "factorial", bounded)
    sizes = _spy_tables(monkeypatch)
    for k, n, trials in ((2, 150_000, 1), (1, 10**6, 3), (2, 4, 40_320)):
        cyc, fxpt = sample_empirical(k, n, trials, seed=0)
        assert sum(cyc) == sum(fxpt) == trials
    assert sizes == [40_320, 384]


def _reference_sample(k, n, trials, seed):
    # The sampler as it was before its trials were drawn in one loop: one
    # closure call per draw, each calling Random.randrange.  The loop must
    # give exactly its histograms.
    rng = random.Random(seed)

    def count_cycles(size, length, keep):
        hits = 0
        while size:
            cycle = rng.randrange(size) + 1
            if cycle == length:
                hits += rng.randrange(keep) == 0
            size -= cycle
        return hits

    def sampler(order, distribution, size, length, keep):
        if order <= min(trials, harness._TABLE_CAP):
            table = [m for m, c in enumerate(distribution(k, n).counts) for _ in range(c)]
            return lambda: table[rng.randrange(len(table))]
        return lambda: count_cycles(size, length, keep)

    draw_cyc = sampler(factorial(k * n), k_cycle_distribution, k * n, k, 1)
    draw_fxpt = sampler(k**n * factorial(n), fixed_point_distribution, n, 1, k)
    cyc_counts, fxpt_counts = [0] * (n + 1), [0] * (n + 1)
    for _ in range(trials):
        cyc_counts[draw_cyc()] += 1
        fxpt_counts[draw_fxpt()] += 1
    return tuple(cyc_counts), tuple(fxpt_counts)


@pytest.mark.parametrize(
    "k,n,trials",
    [
        (2, 3, 20_000), (2, 3, 1), (2, 4, 20_000), (3, 3, 20_000),
        (2, 7, 3_000), (4, 50, 1_000), (1, 0, 50), (5, 1, 7),
    ],
)
def test_sampler_matches_the_randrange_reference(k, n, trials):
    for seed in range(5):
        assert sample_empirical(k, n, trials, seed) == _reference_sample(k, n, trials, seed)


def test_uniform_below_draws_as_randrange():
    # The same integers from the same seed, so no seeded histogram moves.
    mine, theirs = random.Random(9), random.Random(9)
    below = harness._uniform_below(mine.getrandbits)
    sizes = [1, 2, 3, 5, 48, 720, 40_320, 2**40 + 1, 10**30] * 50
    assert [below(size) for size in sizes] == [theirs.randrange(size) for size in sizes]
    assert mine.getstate() == theirs.getstate()


class _EveryChoice:
    """Stands in for random.Random: replays ``path``, a list of [choice,
    arity] pairs, and extends it with choice 0 past its end."""

    def __init__(self):
        self.path = []
        self.depth = 0

    def randrange(self, arity):
        if self.depth == len(self.path):
            self.path.append([0, arity])
        choice, recorded = self.path[self.depth]
        assert recorded == arity
        self.depth += 1
        return choice


def _law(draw, rng):
    # Runs draw once for every sequence of choices, depth-first, and sums
    # each sequence's probability (the product of 1/arity) by value drawn.
    law = defaultdict(Fraction)
    while True:
        rng.depth = 0
        value = draw()
        assert rng.depth == len(rng.path)
        law[value] += Fraction(1, prod(arity for _, arity in rng.path))
        while rng.path and rng.path[-1][0] + 1 == rng.path[-1][1]:
            rng.path.pop()
        if not rng.path:
            return law
        rng.path[-1][0] += 1


@pytest.mark.parametrize(
    "k,n", [(k, n) for k in range(1, 9) for n in range(8 // k + 1)]
)
def test_cycle_draws_have_the_exact_law(monkeypatch, k, n):
    # With no table, a trial draws both sides cycle by cycle; the law of its
    # two counts, summed over every choice sequence of its draws, is exactly
    # the product of the two groups' laws.
    monkeypatch.setattr(harness, "_TABLE_CAP", 0)
    rng = _EveryChoice()
    monkeypatch.setattr(harness, "_uniform_below", lambda getrandbits: rng.randrange)

    def trial():
        cyc, fxpt = sample_empirical(k, n, 1, seed=0)
        return cyc.index(1), fxpt.index(1)

    cyc = [Fraction(c, factorial(k * n)) for c in _exact_cyc_counts(k, n)]
    fxpt = [Fraction(c, k**n * factorial(n)) for c in _exact_fxpt_counts(k, n)]
    product = {(a, b): p * q for a, p in enumerate(cyc) for b, q in enumerate(fxpt) if p * q}
    assert _law(trial, rng) == product


def test_sampler_draws_large_groups_without_shuffling(monkeypatch):
    # At (4, 50), the size the benchmark samples, neither side shuffles.
    def refuse(self, x):
        raise AssertionError("shuffle called")

    monkeypatch.setattr(random.Random, "shuffle", refuse)
    k, n, trials = 4, 50, 20_000
    cyc, fxpt = sample_empirical(k, n, trials, seed=5)
    assert sum(cyc) == sum(fxpt) == trials
    cyc_exact, fxpt_exact = _exact_cyc_counts(k, n), _exact_fxpt_counts(k, n)
    for m in range(n + 1):
        assert abs(cyc[m] / trials - cyc_exact[m] / factorial(k * n)) < 0.02
        assert abs(fxpt[m] / trials - fxpt_exact[m] / (k**n * factorial(n))) < 0.02


def test_report_serialization():
    report = VerificationReport("demo", 2, 3)
    report.record("good", True)
    report.record("bad", False, "pi=(1,2,3)")
    assert not report.passed
    text = report.to_text()
    assert "good: PASS" in text and "bad: FAIL" in text
    assert "pi=(1,2,3)" in text
    structured = report.to_structured()
    assert "passed=false" in structured
    assert "property_bad=false" in structured
    assert "counterexample=pi=(1,2,3)" in structured


def test_distribution_structured_uses_strings():
    lines = Distribution(2, 3, (435, 225, 45, 15)).to_structured("cyc_")
    assert "cyc_total=720" in lines
    assert "cyc_count_0=435" in lines
