"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import time
from math import factorial


from cycleswap.cli import main
from cycleswap.forward import (
    KCycleFactorization,
    block,
    factor,
    leader_distance,
)
from cycleswap.gsg import GsgElement, count_fixed_points, enumerate_gsg
from cycleswap.harness import sample_empirical, verify_distribution_identity
from cycleswap.inverse import (
    count_k_cycle_factorizations,
    enumerate_k_cycle_factorizations,
    rotate_left,
    unfactor,
)
from cycleswap.involution import InvolutionPair, involute
from cycleswap.permutations import (
    Permutation,
    count_k_cycles,
    enumerate_permutations,
    stanley_hat,
)

PI = Permutation.from_cycles(
    [(8, 3, 4, 5), (9,), (11, 1, 10), (15, 7, 2, 6, 12, 14, 13)], 15
)
DELTA = Permutation.from_cycles(
    [(7, 2, 6), (8, 3, 4), (11, 5, 9), (14, 13, 12), (15, 1, 10)], 15
)
SIGMA = GsgElement(3, (0, 1, 0, 2, 1), Permutation.from_cycles([(2,), (3,), (5, 1, 4)], 5))
SIGMA_PRIME = GsgElement(
    3, (2, 0, 0, 1, 0), Permutation.from_cycles([(2,), (3, 1), (4,), (5,)], 5)
)
PI_PRIME = Permutation.from_cycles(
    [(8, 3, 4), (11, 5, 9, 6, 7, 2), (13, 12), (14,), (15, 1, 10)], 15
)


def _verdict(num, ok, detail=""):
    line = f"criterion {num}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_01_table_reproduction(capsys):
    t0 = time.perf_counter()
    code = main(["table", "--k", "2", "--n", "3", "--format", "structured"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    ok = (
        code == 0
        and all(f"cyc_count_{m}={c}" in out for m, c in enumerate((435, 225, 45, 15)))
        and all(f"fxpt_count_{m}={c}" in out for m, c in enumerate((29, 15, 3, 1)))
        and "cyc_total=720" in out
        and "fxpt_total=48" in out
        and elapsed < 1.0
    )
    with capsys.disabled():
        _verdict(1, ok, f"{elapsed:.2f}s")


def test_criterion_02_running_example_forward():
    pair = factor(PI, 3)
    ok = (
        pair.delta.perm == DELTA
        and pair.sigma.x == (0, 1, 0, 2, 1)
        and pair.sigma.tau == SIGMA.tau
    )
    _verdict(2, ok)


def test_criterion_03_running_example_inverse():
    delta = KCycleFactorization(3, DELTA)
    ok = unfactor(delta, SIGMA) == PI and unfactor(delta, SIGMA_PRIME) == PI_PRIME
    _verdict(3, ok)


def test_criterion_04_involution_on_reference_pair():
    out = involute(InvolutionPair(SIGMA_PRIME, PI))
    ok = (
        out.sigma == SIGMA
        and out.pi == PI_PRIME
        and count_fixed_points(SIGMA_PRIME) == 2 == count_k_cycles(out.pi, 3)
        and count_fixed_points(out.sigma) == 1 == count_k_cycles(PI, 3)
    )
    _verdict(4, ok)


def test_criterion_05_and_08_exhaustive_bijectivity():
    t0 = time.perf_counter()
    cases = [(k, n) for k in (1, 2, 3, 4) for n in range(1, 9) if k * n <= 8]
    ok = True
    for k, n in cases:
        for p in enumerate_permutations(k * n):
            pair = factor(p, k)
            ok &= count_k_cycles(p, k) == count_fixed_points(pair.sigma)
            ok &= unfactor(pair.delta, pair.sigma) == p
        n_delta = 0
        for delta in enumerate_k_cycle_factorizations(k, n):
            n_delta += 1
            for sigma in enumerate_gsg(k, n):
                back = factor(unfactor(delta, sigma), k)
                ok &= back.delta == delta and back.sigma == sigma
        # criterion 8: enumerated |D_{k,n}| matches (kn)!/(k^n n!)
        ok &= n_delta == count_k_cycle_factorizations(k, n)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict("5+8", ok, f"{len(cases)} cases, {elapsed:.1f}s")


def test_criterion_06_exhaustive_involution():
    t0 = time.perf_counter()
    ok = True
    pairs = 0
    for k, n in [(1, 3), (2, 2), (3, 2), (2, 3)]:
        pis = list(enumerate_permutations(k * n))
        for sigma in enumerate_gsg(k, n):
            for pi in pis:
                pair = InvolutionPair(sigma, pi)
                out = involute(pair)
                ok &= involute(out) == pair
                ok &= count_fixed_points(out.sigma) == count_k_cycles(pi, k)
                ok &= count_k_cycles(out.pi, k) == count_fixed_points(sigma)
                pairs += 1
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(6, ok, f"{pairs} pairs, {elapsed:.1f}s")


def test_criterion_07_distribution_identity_to_10():
    t0 = time.perf_counter()
    cases = [
        (k, n)
        for m in range(1, 11)
        for k in range(1, m + 1)
        if m % k == 0
        for n in [m // k]
    ]
    ok = True
    for k, n in cases:
        report = verify_distribution_identity(k, n, limit=factorial(10))
        ok &= report.passed
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 300.0
    _verdict(7, ok, f"{len(cases)} cases, {elapsed:.1f}s")


def test_criterion_09_monte_carlo_concordance():
    t0 = time.perf_counter()
    first = sample_empirical(2, 3, 1_000_000, seed=42)
    second = sample_empirical(2, 3, 1_000_000, seed=42)
    elapsed = time.perf_counter() - t0
    cyc, fxpt = first
    exact = 29 / 48
    ok = (
        first == second
        and abs(cyc[0] / 1_000_000 - exact) < 0.005
        and abs(fxpt[0] / 1_000_000 - exact) < 0.005
        and elapsed < 10.0
    )
    _verdict(9, ok, f"P0={cyc[0] / 1e6:.4f}/{fxpt[0] / 1e6:.4f}, {elapsed:.1f}s")


def _begins_k_cycle(p, i, k):
    pos = 1
    for cycle in p.cycles():
        if pos == i:
            return len(cycle) == k
        pos += len(cycle)
    return False


def test_criterion_10_supporting_properties():
    t0 = time.perf_counter()
    ok = True
    for m in range(1, 8):
        ks = [k for k in range(1, m + 1) if m % k == 0]
        for p in enumerate_permutations(m):
            word = stanley_hat(p)
            for k in ks:
                n = m // k
                # k-cycle start criterion (with the correct i+k = m+1
                # boundary for a trailing cycle)
                for i in range(1, m + 1):
                    predicted = all(
                        word[j - 1] <= word[i - 1] for j in range(1, min(i + k, m + 1))
                    ) and (i + k == m + 1 or (i + k <= m and word[i + k - 1] > word[i - 1]))
                    ok &= predicted == _begins_k_cycle(p, i, k)
                # unique-rotation claim
                delta_hat = stanley_hat(factor(p, k).delta.perm)
                leaders = [max(block(word, i, k)) for i in range(1, n + 1)]
                order = {v: r for r, v in enumerate(sorted(leaders), start=1)}
                for i in range(1, n + 1):
                    source = block(delta_hat, order[leaders[i - 1]], k)
                    matches = [
                        s for s in range(k)
                        if rotate_left(source, s) == block(word, i, k)
                    ]
                    ok &= len(matches) == 1
                # next-record position escapes the block and is rotation
                # invariant
                for i in range(1, n + 1):
                    g, _ = leader_distance(word, i, k)
                    ok &= g > k * i
                    for s in range(k):
                        shifted = (
                            word[: k * (i - 1)]
                            + rotate_left(block(word, i, k), s)
                            + word[k * i :]
                        )
                        ok &= leader_distance(shifted, i, k)[0] == g
            if not ok:
                break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _verdict(10, ok, f"{elapsed:.1f}s")
