import pytest

from cycleswap.forward import (
    FactoredPair,
    KCycleFactorization,
    block,
    block_leaders,
    factor,
    standardize,
)
from cycleswap.gsg import GsgElement, count_fixed_points
from cycleswap.permutations import (
    Permutation,
    count_k_cycles,
    cycle_type,
    enumerate_permutations,
    stanley_hat,
)

PI = Permutation.from_cycles(
    [(8, 3, 4, 5), (9,), (11, 1, 10), (15, 7, 2, 6, 12, 14, 13)], 15
)
PI_HAT = stanley_hat(PI)
DELTA = Permutation.from_cycles(
    [(7, 2, 6), (8, 3, 4), (11, 5, 9), (14, 13, 12), (15, 1, 10)], 15
)
TAU = Permutation.from_cycles([(2,), (3,), (5, 1, 4)], 5)


def test_block():
    assert block(PI_HAT, 1, 3) == (8, 3, 4)
    assert block(PI_HAT, 5, 3) == (12, 14, 13)
    assert block((3, 1, 2), 2, 1) == (1,)
    with pytest.raises(ValueError):
        block(PI_HAT, 6, 3)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be positive"):
            block((1, 2), 1, k)


def test_block_leaders():
    assert block_leaders(PI_HAT, 3) == (8, 11, 15, 7, 14)
    assert block_leaders((1, 2, 3, 4, 5, 6), 2) == (2, 4, 6)
    assert block_leaders((3, 1, 2), 1) == (3, 1, 2)
    with pytest.raises(ValueError):
        block_leaders((1, 2, 3), 2)
    for k in (0, -1):
        with pytest.raises(ValueError, match="k must be positive"):
            block_leaders((1, 2), k)


def test_blocks_partition_word():
    for k in (1, 3, 5):
        pieces = [block(PI_HAT, i, k) for i in range(1, 15 // k + 1)]
        assert tuple(v for piece in pieces for v in piece) == PI_HAT


def test_standardize():
    assert standardize((8, 11, 15, 7, 14)) == (2, 3, 5, 1, 4)
    assert standardize((1, 2, 3)) == (1, 2, 3)
    assert standardize((30, 20, 10)) == (3, 2, 1)
    with pytest.raises(ValueError):
        standardize((5, 5, 1))


def test_k_cycle_factor_running_example():
    assert factor(PI, 3).delta.perm == DELTA


def test_k_cycle_factor_trivial():
    assert factor(Permutation.identity(2), 1).delta.perm == Permutation.identity(2)
    assert factor(Permutation((2, 1)), 2).delta.perm == Permutation((2, 1))


def test_k_cycle_factor_invariant():
    for p in enumerate_permutations(6):
        for k in (1, 2, 3, 6):
            delta = factor(p, k).delta
            assert cycle_type(delta.perm) == (k,) * (6 // k)


def test_k_cycle_factor_rejects_bad_size():
    with pytest.raises(ValueError):
        factor(Permutation.identity(5), 2).delta


@pytest.mark.parametrize("k", [0, -1])
def test_factor_rejects_nonpositive_k(k):
    with pytest.raises(ValueError, match="k must be positive"):
        factor(Permutation.identity(4), k)


def test_kcyclefactorization_rejects_wrong_type():
    with pytest.raises(ValueError):
        KCycleFactorization(2, Permutation.identity(4))


def test_leader_permutation():
    assert factor(PI, 3).sigma.tau == TAU
    assert factor(Permutation.identity(4), 2).sigma.tau == Permutation.identity(2)
    for p in enumerate_permutations(5):
        assert factor(p, 1).sigma.tau == p


def _distance_oracle(p, k):
    """x by the direct definition: the i-th smallest block leader's
    distance to the end of its cycle in canonical cycle notation, read
    straight off the cycle decomposition (no record scanning)."""
    word = stanley_hat(p)
    leaders = sorted(block_leaders(word, k))
    position = {}
    end_after = {}
    pos = 1
    for cycle in p.cycles():
        for offset, letter in enumerate(cycle):
            position[letter] = pos + offset
            end_after[letter] = pos + len(cycle)
        pos += len(cycle)
    return tuple((end_after[v] - position[v]) % k for v in leaders)


def test_residue_vector_running_example():
    assert factor(PI, 3).sigma.x == (0, 1, 0, 2, 1)


def test_residue_vector_identity():
    # Each leader of the identity sits at the end of its block, one short
    # of the next record, so every entry is 1 mod k (0 when k = 1).  An
    # all-zero vector would wrongly make the identity's sigma have fixed
    # points while the identity has no k-cycles for k > 1.
    for k, n in [(1, 4), (2, 3), (3, 2), (4, 1)]:
        p = Permutation.identity(k * n)
        assert factor(p, k).sigma.x == (1 % k,) * n
        assert factor(p, k).sigma.x == _distance_oracle(p, k)


def test_residue_vector_k1_zero():
    for p in enumerate_permutations(5):
        assert factor(p, 1).sigma.x == (0,) * 5


@pytest.mark.parametrize("k,n", [(2, 2), (2, 3), (3, 2), (4, 1)])
def test_residue_vector_matches_oracle(k, n):
    for p in enumerate_permutations(k * n):
        assert factor(p, k).sigma.x == _distance_oracle(p, k)


def test_factor_running_example():
    pair = factor(PI, 3)
    assert pair.delta.perm == DELTA
    assert pair.sigma == GsgElement(3, (0, 1, 0, 2, 1), TAU)


def test_factor_identity_k1():
    pair = factor(Permutation.identity(3), 1)
    assert pair.delta.perm == Permutation.identity(3)
    assert pair.sigma == GsgElement(1, (0, 0, 0), Permutation.identity(3))


def test_factor_pi_prime():
    pi_prime = Permutation.from_cycles(
        [(8, 3, 4), (11, 5, 9, 6, 7, 2), (13, 12), (14,), (15, 1, 10)], 15
    )
    pair = factor(pi_prime, 3)
    assert pair.delta.perm == DELTA
    assert pair.sigma == GsgElement(
        3, (2, 0, 0, 1, 0), Permutation.from_cycles([(2,), (3, 1), (4,), (5,)], 5)
    )


def test_factored_pair_rejects_mismatch():
    with pytest.raises(ValueError):
        FactoredPair(
            KCycleFactorization(2, Permutation((2, 1))),
            GsgElement(3, (0,), Permutation.identity(1)),
        )


@pytest.mark.parametrize("k,n", [(1, 5), (2, 3), (3, 2), (2, 2), (6, 1)])
def test_statistic_preserved(k, n):
    for p in enumerate_permutations(k * n):
        assert count_k_cycles(p, k) == count_fixed_points(factor(p, k).sigma)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (2, 2)])
def test_k_cycles_start_at_leader_positions(k, n):
    # Every k-cycle of p, read in the hat word, starts at a block-leader
    # position.
    for p in enumerate_permutations(k * n):
        word = stanley_hat(p)
        leaders = set(block_leaders(word, k))
        pos = 1
        for cycle in p.cycles():
            if len(cycle) == k:
                assert cycle[0] in leaders
            pos += len(cycle)


@pytest.mark.parametrize("k,n", [(2, 3), (3, 2), (2, 2)])
def test_leader_starts_k_cycle_iff_fixed_point(k, n):
    for p in enumerate_permutations(k * n):
        word = stanley_hat(p)
        leaders = block_leaders(word, k)
        tau_hat = standardize(leaders)
        sigma = factor(p, k).sigma
        cycle_starts = {c[0]: len(c) for c in p.cycles()}
        for i in range(1, n + 1):
            starts_k_cycle = cycle_starts.get(leaders[i - 1]) == k
            is_fixed = (
                sigma.x[tau_hat[i - 1] - 1] == 0
                and sigma.tau(tau_hat[i - 1]) == tau_hat[i - 1]
            )
            assert starts_k_cycle == is_fixed, (p, i)
