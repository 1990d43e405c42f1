from math import factorial

import pytest

from cycleswap import permutations
from cycleswap.forward import KCycleFactorization, block, factor, leader_distance
from cycleswap.gsg import GsgElement, enumerate_gsg
from cycleswap.inverse import (
    count_k_cycle_factorizations,
    enumerate_k_cycle_factorizations,
    recover_shifts,
    rotate_left,
    unfactor,
)
from cycleswap.permutations import (
    Permutation,
    cycle_type,
    enumerate_permutations,
    stanley_hat,
)

PI = Permutation.from_cycles(
    [(8, 3, 4, 5), (9,), (11, 1, 10), (15, 7, 2, 6, 12, 14, 13)], 15
)
PI_HAT = stanley_hat(PI)
DELTA = KCycleFactorization(
    3,
    Permutation.from_cycles(
        [(7, 2, 6), (8, 3, 4), (11, 5, 9), (14, 13, 12), (15, 1, 10)], 15
    ),
)
SIGMA = GsgElement(3, (0, 1, 0, 2, 1), Permutation.from_cycles([(2,), (3,), (5, 1, 4)], 5))
SIGMA_PRIME = GsgElement(
    3, (2, 0, 0, 1, 0), Permutation.from_cycles([(2,), (3, 1), (4,), (5,)], 5)
)


def test_rotate_left():
    assert rotate_left((8, 3, 4), 0) == (8, 3, 4)
    assert rotate_left((8, 3, 4), 1) == (3, 4, 8)
    assert rotate_left((8, 3, 4), 2) == (4, 8, 3)
    with pytest.raises(ValueError):
        rotate_left((8, 3, 4), 3)


def test_leader_distance_examples():
    assert leader_distance(PI_HAT, 1, 3) == (5, 4)
    assert leader_distance(PI_HAT, 2, 3) == (9, 3)
    assert leader_distance(PI_HAT, 3, 3) == (16, 7)
    assert leader_distance(PI_HAT, 4, 3) == (16, 6)
    assert leader_distance(PI_HAT, 5, 3) == (16, 2)


def test_recover_shifts_running_example():
    assert recover_shifts(DELTA, SIGMA) == (0, 1, 1, 0, 2)


def test_recover_shifts_sigma_prime():
    assert recover_shifts(DELTA, SIGMA_PRIME) == (0, 0, 2, 1, 0)


def test_recover_shifts_k1_all_zero():
    delta = KCycleFactorization(1, Permutation.identity(4))
    for sigma in enumerate_gsg(1, 4):
        assert recover_shifts(delta, sigma) == (0, 0, 0, 0)


def test_recover_shifts_rejects_mismatch():
    with pytest.raises(ValueError):
        recover_shifts(DELTA, GsgElement(2, (0, 0), Permutation.identity(2)))


def test_unfactor_running_example():
    assert unfactor(DELTA, SIGMA) == PI


def test_unfactor_sigma_prime():
    assert unfactor(DELTA, SIGMA_PRIME) == Permutation.from_cycles(
        [(8, 3, 4), (11, 5, 9, 6, 7, 2), (13, 12), (14,), (15, 1, 10)], 15
    )


def test_unfactor_k1_embeds_tau():
    delta = KCycleFactorization(1, Permutation.identity(5))
    for tau in enumerate_permutations(5, limit=200):
        sigma = GsgElement(1, (0,) * 5, tau)
        assert unfactor(delta, sigma) == tau


@pytest.mark.parametrize("m", range(1, 8))
def test_next_record_past_own_block_and_shift_invariant(m):
    # The record after a block leader never lies in the leader's own
    # block, so its position survives any rotation of that block.
    ks = [k for k in range(1, m + 1) if m % k == 0]
    for p in enumerate_permutations(m):
        word = stanley_hat(p)
        for k in ks:
            n = m // k
            for i in range(1, n + 1):
                g, _ = leader_distance(word, i, k)
                assert g > k * i
                for s in range(k):
                    shifted = (
                        word[: k * (i - 1)]
                        + rotate_left(block(word, i, k), s)
                        + word[k * i :]
                    )
                    assert leader_distance(shifted, i, k)[0] == g


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (2, 2), (4, 1)])
def test_blocks_are_unique_rotations(k, n):
    # Each block of the hat word is a rotation of the matching delta-hat
    # block, and only one rotation amount works.
    for p in enumerate_permutations(k * n):
        word = stanley_hat(p)
        pair = factor(p, k)
        delta_hat = stanley_hat(pair.delta.perm)
        tau_hat = stanley_hat(pair.sigma.tau)
        for i in range(1, n + 1):
            source = block(delta_hat, tau_hat[i - 1], k)
            matches = [
                s for s in range(k) if rotate_left(source, s) == block(word, i, k)
            ]
            assert len(matches) == 1


@pytest.mark.parametrize("k,n", [(1, 6), (2, 3), (3, 2), (2, 2), (6, 1)])
def test_left_inverse(k, n):
    for p in enumerate_permutations(k * n):
        pair = factor(p, k)
        assert unfactor(pair.delta, pair.sigma) == p


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2)])
def test_right_inverse_and_cardinality(k, n):
    seen = set()
    n_delta = 0
    for delta in enumerate_k_cycle_factorizations(k, n):
        n_delta += 1
        for sigma in enumerate_gsg(k, n):
            p = unfactor(delta, sigma)
            seen.add(p)
            back = factor(p, k)
            assert back.delta == delta and back.sigma == sigma
    assert n_delta == count_k_cycle_factorizations(k, n)
    assert len(seen) == factorial(k * n)


def test_count_k_cycle_factorizations():
    assert count_k_cycle_factorizations(2, 3) == 15
    assert count_k_cycle_factorizations(3, 5) == factorial(15) // (3**5 * factorial(5))
    assert count_k_cycle_factorizations(1, 4) == 1


@pytest.mark.parametrize("k,n", [(1, 3), (2, 2), (2, 3), (3, 2), (4, 1)])
def test_enumerate_k_cycle_factorizations(k, n):
    deltas = list(enumerate_k_cycle_factorizations(k, n))
    assert len(deltas) == count_k_cycle_factorizations(k, n)
    assert len(set(deltas)) == len(deltas)
    for delta in deltas:
        assert cycle_type(delta.perm) == (k,) * n


@pytest.mark.parametrize("k,n", [(1, 3), (2, 3), (3, 2), (4, 1), (2, 0)])
def test_enumerated_deltas_keep_their_hat_word(monkeypatch, k, n):
    # unfactor then reads delta's hat word instead of walking its cycles
    # again for every sigma.
    want = [stanley_hat(Permutation(d.perm.images)) for d in enumerate_k_cycle_factorizations(k, n)]

    def refuse(images):
        raise AssertionError("cycles walked")

    monkeypatch.setattr(permutations, "_canonical_cycles", refuse)
    assert [stanley_hat(d.perm) for d in enumerate_k_cycle_factorizations(k, n)] == want


def test_enumerate_k_cycle_factorizations_matches_filter():
    # Independent route: filter all of S_6 by cycle type.
    direct = {d.perm for d in enumerate_k_cycle_factorizations(2, 3)}
    filtered = {p for p in enumerate_permutations(6) if cycle_type(p) == (2, 2, 2)}
    assert direct == filtered


def test_unfactor_validates_delta_eagerly():
    with pytest.raises(ValueError):
        KCycleFactorization(2, Permutation((2, 3, 1, 4)))
