import itertools
import sys
from math import factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cycleswap.permutations import (
    CapacityError,
    Permutation,
    check_capacity,
    count_k_cycles,
    cycle_type,
    enumerate_permutations,
    records,
    stanley_hat,
    stanley_unhat,
    _hat_cycles,
)

# The 15-letter running example used throughout: cycles
# 8->3->4->5->8, 9->9, 11->1->10->11, 15->7->2->6->12->14->13->15.
PI = Permutation.from_cycles(
    [(8, 3, 4, 5), (9,), (11, 1, 10), (15, 7, 2, 6, 12, 14, 13)], 15
)
PI_HAT = (8, 3, 4, 5, 9, 11, 1, 10, 15, 7, 2, 6, 12, 14, 13)

perms = st.integers(min_value=0, max_value=8).flatmap(
    lambda m: st.permutations(list(range(1, m + 1)))
)


def test_rejects_non_permutation():
    with pytest.raises(ValueError):
        Permutation((1, 1, 3))
    with pytest.raises(ValueError):
        Permutation((0, 1))


def test_canonical_cycles_identity():
    assert Permutation.identity(3).cycles() == [(1,), (2,), (3,)]


def test_canonical_cycles_running_example():
    assert PI.cycles() == [
        (8, 3, 4, 5),
        (9,),
        (11, 1, 10),
        (15, 7, 2, 6, 12, 14, 13),
    ]


def test_canonical_cycles_max_first():
    assert Permutation((2, 1)).cycles() == [(2, 1)]


def test_stanley_hat_running_example():
    assert stanley_hat(PI) == PI_HAT


def test_stanley_hat_identity():
    assert stanley_hat(Permutation.identity(4)) == (1, 2, 3, 4)


def test_stanley_hat_tau_example():
    tau = Permutation.from_cycles([(2,), (3,), (5, 1, 4)], 5)
    assert stanley_hat(tau) == (2, 3, 5, 1, 4)


def test_stanley_unhat_examples():
    assert stanley_unhat((2, 3, 5, 1, 4)) == Permutation.from_cycles(
        [(2,), (3,), (5, 1, 4)], 5
    )
    assert stanley_unhat((1, 2, 3)) == Permutation.identity(3)
    # Cuts fall at the records 8, 11, 13, 14, 15.
    assert stanley_unhat((8, 3, 4, 11, 5, 9, 6, 7, 2, 13, 12, 14, 15, 1, 10)) == (
        Permutation.from_cycles(
            [(8, 3, 4), (11, 5, 9, 6, 7, 2), (13, 12), (14,), (15, 1, 10)], 15
        )
    )


@given(perms)
def test_hat_round_trip(images):
    p = Permutation(tuple(images))
    assert stanley_unhat(stanley_hat(p)) == p


@given(perms)
def test_unhat_round_trip(word):
    assert stanley_hat(stanley_unhat(word)) == tuple(word)


@given(perms)
def test_cycle_count_equals_record_count(images):
    p = Permutation(tuple(images))
    assert len(p.cycles()) == len(records(stanley_hat(p)))


def test_records():
    assert records(PI_HAT) == [1, 5, 6, 9]
    assert records((1, 2, 3)) == [1, 2, 3]
    assert records((3, 2, 1)) == [1]
    assert records(()) == []


def test_cycle_type():
    delta = Permutation.from_cycles(
        [(7, 2, 6), (8, 3, 4), (11, 5, 9), (14, 13, 12), (15, 1, 10)], 15
    )
    assert cycle_type(delta) == (3, 3, 3, 3, 3)
    assert cycle_type(Permutation.identity(4)) == (1, 1, 1, 1)
    assert cycle_type(PI) == (7, 4, 3, 1)


def test_cycle_type_sums_to_m():
    for m in range(7):
        for p in enumerate_permutations(m):
            parts = cycle_type(p)
            assert sum(parts) == m
            for k in range(1, m + 2):
                assert count_k_cycles(p, k) == parts.count(k)


def _naive_hat_cycles(word, length):
    """First letters of the pieces of that length when ``word`` is cut
    before each left-to-right maximum."""
    pieces = []
    for i, letter in enumerate(word):
        if all(letter > b for b in word[:i]):
            pieces.append([])
        pieces[-1].append(letter)
    return [piece[0] for piece in pieces if len(piece) == length]


@pytest.mark.parametrize("m", range(8))
def test_hat_cycles_matches_cutting_at_records(m):
    for word in itertools.permutations(range(1, m + 1)):
        for length in range(1, m + 2):
            assert _hat_cycles(word, length) == _naive_hat_cycles(word, length), (word, length)


def test_count_k_cycles():
    assert count_k_cycles(PI, 3) == 1
    pi_prime = Permutation.from_cycles(
        [(8, 3, 4), (11, 5, 9, 6, 7, 2), (13, 12), (14,), (15, 1, 10)], 15
    )
    assert count_k_cycles(pi_prime, 3) == 2
    assert count_k_cycles(Permutation.identity(6), 2) == 0


def _begins_k_cycle(p, i, k):
    """Oracle: does position i of the hat word start a k-cycle?"""
    pos = 1
    for cycle in p.cycles():
        if pos == i:
            return len(cycle) == k
        pos += len(cycle)
    return False


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", range(1, 8))
def test_k_cycle_start_criterion(m, k):
    # A letter starts a k-cycle iff it weakly dominates everything before
    # position i+k and the letter k later exceeds it; a cycle may also end
    # exactly at the end of the word (i+k = m+1).  A dominating letter with
    # i+k > m+1 starts a too-short trailing cycle, not a k-cycle.
    for p in enumerate_permutations(m):
        word = stanley_hat(p)
        for i in range(1, m + 1):
            predicted = all(word[j - 1] <= word[i - 1] for j in range(1, min(i + k, m + 1))) and (
                i + k == m + 1 or (i + k <= m and word[i + k - 1] > word[i - 1])
            )
            assert predicted == _begins_k_cycle(p, i, k), (p, i, k)


def test_enumerate_permutations():
    ps = list(enumerate_permutations(3))
    assert len(ps) == 6
    assert ps[0].images == (1, 2, 3)
    assert ps[-1].images == (3, 2, 1)
    assert len(list(enumerate_permutations(0))) == 1
    assert sum(1 for _ in enumerate_permutations(6)) == 720


def test_enumerate_capacity():
    with pytest.raises(CapacityError):
        next(enumerate_permutations(4, limit=10))


def test_capacity_message_gives_the_count():
    with pytest.raises(CapacityError, match=r"^S_12: 479001600 items exceeds capacity 400000000$"):
        check_capacity(factorial(12), None, "S_12")


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit")
def test_capacity_message_bounds_a_count_past_the_digit_limit():
    # str() refuses an int with more digits than the limit; 2^(bits - 1) is
    # the largest power of two not above the count.
    count = 2 ** (4 * sys.get_int_max_str_digits()) + 12345
    with pytest.raises(CapacityError) as exc:
        check_capacity(count, 10, "X")
    assert str(exc.value) == f"X: at least 2^{4 * sys.get_int_max_str_digits()} items exceeds capacity 10"


def test_empty_permutation():
    p = Permutation(())
    assert stanley_hat(p) == ()
    assert stanley_unhat(()) == p
    assert cycle_type(p) == ()
