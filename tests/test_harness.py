import itertools
import random
import re
import tracemalloc
from fractions import Fraction
from math import comb, factorial, prod

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
from cycleswap.inverse import count_k_cycle_factorizations
from cycleswap.permutations import CapacityError, _hat_cycles, stanley_unhat


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


def _naive_unhat(word):
    """0-based one-line images of the permutation whose hat word is the
    1-based ``word``: cut before each left-to-right maximum, read each
    piece as a cycle.  Shares no code with the library."""
    images = [None] * len(word)
    pieces = []
    for letter in word:
        if not pieces or letter > max(max(p) for p in pieces):
            pieces.append([])
        pieces[-1].append(letter)
    for piece in pieces:
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
    # Inserting kn into each word of S_{kn-1} must reach each word of S_kn
    # once and read its own k-cycle count, as the per-word counter does.
    # S_0 has one word, with no cycles, and nothing to insert into.
    counts = [0] * (n + 1)
    for word in itertools.permutations(range(1, k * n + 1)):
        counts[len(_hat_cycles(word, k))] += 1
    if n:
        assert harness._cyc_counts_range((k, n, 0, factorial(k * n - 1))) == counts
    assert k_cycle_distribution(k, n).counts == tuple(counts)


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


@pytest.mark.parametrize("n", range(1, 7))
def test_inserting_the_largest_letter_reaches_each_tau_once(n):
    # Each word u of S_{n-1} and each slot (None: n - 1 as a fixed point;
    # j: n - 1 right after j in u's cycle) gives one tau in S_n, whose fixed
    # points the census reads off u's: f + 1, f - 1 when u(j) = j, else f.
    reached = {}
    for u in itertools.permutations(range(n - 1)):
        f = sum(u[i] == i for i in range(n - 1))
        reached[u + (n - 1,)] = f + 1
        for j in range(n - 1):
            tau = list(u) + [u[j]]
            tau[j] = n - 1
            assert tuple(tau) not in reached
            reached[tuple(tau)] = f - 1 if u[j] == j else f
    assert sorted(reached) == list(itertools.permutations(range(n)))
    for tau, fixed in reached.items():
        assert fixed == sum(tau[i] == i for i in range(n)), tau
    counts = [0] * (n + 1)
    for fixed in reached.values():
        counts[fixed] += 1
    assert fixed_point_distribution(1, n).counts == tuple(counts)


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
    monkeypatch.setattr(harness.multiprocessing, "Pool", _no_pool)
    serial = k_cycle_distribution(2, 3, jobs=1)
    for jobs in (2, 3, 5):
        assert k_cycle_distribution(2, 3, jobs=jobs).counts == serial.counts


def test_parallel_census_merges_the_worker_ranges(monkeypatch, in_process_pool):
    # 10! words reaches the threshold and 9! does not.  Below it no pool
    # starts; from it the census is split into (kn-1)!/jobs ranges of
    # S_{kn-1}, jobs is capped at the CPUs this process may run on, not at
    # the host's count, and the ranges, counted in this process, are merged.
    assert factorial(10) >= harness._POOL_MIN > factorial(9)
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
    monkeypatch.setattr(harness.multiprocessing, "cpu_count", lambda: 64)
    assert k_cycle_distribution(3, 3, jobs=5).counts == _exact_cyc_counts(3, 3)
    assert in_process_pool == []
    monkeypatch.setattr(harness, "_POOL_MIN", factorial(8))
    assert k_cycle_distribution(2, 4, jobs=5).counts == _exact_cyc_counts(2, 4)
    third = factorial(7) // 3
    assert in_process_pool == [3, [(2, 4, 0, third), (2, 4, third, 2 * third), (2, 4, 2 * third, 3 * third)]]
    in_process_pool.clear()
    monkeypatch.setattr(harness, "_POOL_MIN", factorial(8) + 1)
    assert k_cycle_distribution(2, 4, jobs=5).counts == _exact_cyc_counts(2, 4)
    assert in_process_pool == []


def test_census_workers_capped_at_cpu_count_without_affinity(monkeypatch, in_process_pool):
    # Where the platform has no sched_getaffinity, the CPU count caps jobs.
    monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(harness.multiprocessing, "cpu_count", lambda: 2)
    monkeypatch.setattr(harness, "_POOL_MIN", factorial(8))
    assert k_cycle_distribution(2, 4, jobs=5).counts == _exact_cyc_counts(2, 4)
    assert in_process_pool[0] == 2


@pytest.mark.parametrize("k,n", [(1, 6), (2, 3), (3, 2)])
def test_rank_ranges_match_full_count(monkeypatch, k, n):
    # Ragged [start, stop) ranges of S_{kn-1}, within one first-letter block
    # and across several, counted in this process: no pool may start.  The
    # range holds the words that inserting kn at each place makes of the
    # words of those ranks, each read as a hat word.
    monkeypatch.setattr(harness.multiprocessing, "Pool", _no_pool)
    cuts = [0, 3, 5, 23, 48, 50, 100, 119, 120]
    m = k * n
    every = list(itertools.permutations(range(1, m)))
    total = [0] * (n + 1)
    for start, stop in zip(cuts, cuts[1:]):
        part = harness._cyc_counts_range((k, n, start, stop))
        expected = [0] * (n + 1)
        for u in every[start:stop]:
            for p in range(m):
                word = u[:p] + (m,) + u[p:]
                expected[_naive_cycle_lengths(_naive_unhat(word)).count(k)] += 1
        assert part == expected, (start, stop)
        total = [a + b for a, b in zip(total, part)]
    assert tuple(total) == k_cycle_distribution(k, n).counts
    assert harness._cyc_counts_range((k, n, 50, 50)) == [0] * (n + 1)


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
    real = harness._table_sampler

    def spy(table, rng):
        sizes.append(len(table))
        return real(table, rng)

    monkeypatch.setattr(harness, "_table_sampler", spy)
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
    sizes = _spy_tables(monkeypatch)
    rng = random.Random(0)
    harness._k_cycle_sampler(2, 3, 10**12, rng)
    assert sizes == []
    draw = harness._fixed_point_sampler(2, 3, 10**12, rng)
    assert sizes == [48]
    assert 0 <= draw() <= 3


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


def _law(draw, rng, n):
    # Runs draw once for every sequence of choices, depth-first, and sums
    # each sequence's probability (the product of 1/arity) by value drawn.
    law = [Fraction(0)] * (n + 1)
    while True:
        rng.depth = 0
        value = draw()
        assert rng.depth == len(rng.path)
        law[value] += prod(Fraction(1, arity) for _, arity in rng.path)
        while rng.path and rng.path[-1][0] + 1 == rng.path[-1][1]:
            rng.path.pop()
        if not rng.path:
            return law
        rng.path[-1][0] += 1


@pytest.mark.parametrize(
    "k,n", [(k, n) for k in range(1, 9) for n in range(8 // k + 1)]
)
def test_cycle_draws_have_the_exact_law(monkeypatch, k, n):
    # With no table, both sides draw one element per trial; the law of each
    # draw, summed over every choice sequence, is exactly the group's.
    monkeypatch.setattr(harness, "_TABLE_CAP", 0)
    rng = _EveryChoice()
    cyc = _law(harness._k_cycle_sampler(k, n, 1, rng), rng, n)
    assert cyc == [Fraction(c, factorial(k * n)) for c in _exact_cyc_counts(k, n)]
    rng = _EveryChoice()
    fxpt = _law(harness._fixed_point_sampler(k, n, 1, rng), rng, n)
    assert fxpt == [Fraction(c, k**n * factorial(n)) for c in _exact_fxpt_counts(k, n)]


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
