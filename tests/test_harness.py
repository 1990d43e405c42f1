import itertools
import random
import tracemalloc
from math import comb, factorial

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
from cycleswap.permutations import CapacityError


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
    "k,n", [(k, n) for k in range(1, 8) for n in range(0, 7 // k + 1)]
)
def test_fixed_point_distribution_matches_gsg_enumeration(k, n):
    counts = [0] * (n + 1)
    for s in enumerate_gsg(k, n):
        counts[count_fixed_points(s)] += 1
    assert fixed_point_distribution(k, n).counts == tuple(counts)


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


def test_parallel_counts_match_serial():
    serial = k_cycle_distribution(2, 3, jobs=1)
    for jobs in (2, 3, 5):
        assert k_cycle_distribution(2, 3, jobs=jobs).counts == serial.counts


@pytest.mark.parametrize("k,n", [(1, 6), (2, 3), (3, 2)])
def test_rank_ranges_match_full_count(monkeypatch, k, n):
    # Ragged [start, stop) ranges, within one first-letter block and across
    # several, counted in this process: no pool may start.
    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(harness.multiprocessing, "Pool", no_pool)
    cuts = [0, 3, 5, 119, 240, 250, 600, 719, 720]
    every = list(itertools.permutations(range(k * n)))
    total = [0] * (n + 1)
    for start, stop in zip(cuts, cuts[1:]):
        part = harness._cyc_counts_range((k, n, start, stop))
        expected = [0] * (n + 1)
        for images in every[start:stop]:
            expected[_naive_cycle_lengths(images).count(k)] += 1
        assert part == expected, (start, stop)
        total = [a + b for a, b in zip(total, part)]
    assert tuple(total) == k_cycle_distribution(k, n).counts
    assert harness._cyc_counts_range((k, n, 250, 250)) == [0] * (n + 1)


def test_capacity_refusal():
    with pytest.raises(CapacityError):
        k_cycle_distribution(2, 4, limit=1000)
    with pytest.raises(CapacityError):
        verify_involution(2, 3, pair_limit=1000)


def test_verify_bijection_small():
    report = verify_bijection(3, 1)
    assert report.passed
    assert report.checked == 6 + 6  # 3! inputs plus |D_{3,1}| * |S(3,1)|


def test_verify_bijection_enumerates_gsg_once(monkeypatch):
    calls = []
    real = harness.enumerate_gsg

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "enumerate_gsg", counted)
    assert verify_bijection(2, 2).passed
    assert len(calls) == 1


def test_verify_involution_small():
    report = verify_involution(2, 2)
    assert report.passed
    assert report.checked == 24 * 8


def test_verify_involution_factors_each_pi_once(monkeypatch):
    calls = []
    real = harness.factor

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(harness, "factor", counted)
    assert verify_involution(2, 2).passed
    assert len(calls) == factorial(4)


def test_sample_deterministic():
    a = sample_empirical(2, 3, 500, seed=7)
    b = sample_empirical(2, 3, 500, seed=7)
    assert a == b
    assert a != sample_empirical(2, 3, 500, seed=8)


def test_sample_single_trial():
    cyc, fxpt = sample_empirical(2, 3, 1, seed=1)
    assert sum(cyc) == 1 and sum(fxpt) == 1


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
        (2, 7, []),         # |S(2,7)| = 645120: both sides shuffle
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
    # With the cap lowered to 100, |S_6| = 720 must shuffle however many
    # trials are asked for, while |S(2,3)| = 48 is still tabulated.
    monkeypatch.setattr(harness, "_TABLE_CAP", 100)
    sizes = _spy_tables(monkeypatch)
    rng = random.Random(0)
    harness._k_cycle_sampler(2, 3, 10**12, rng)
    assert sizes == []
    draw = harness._fixed_point_sampler(2, 3, 10**12, rng)
    assert sizes == [48]
    assert 0 <= draw() <= 3


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
