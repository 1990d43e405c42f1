"""Round trips and the statistic swap on random (k, n) with kn up to 200,
far beyond exhaustive reach.  The linear-time kernels are checked against
a reference that recomputes every next record from the whole word with
:func:`leader_distance`, at O(n * kn) per call."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from cycleswap.forward import (
    block,
    block_leaders,
    factor,
    leader_distance,
    standardize,
)
from cycleswap.gsg import GsgElement, count_fixed_points
from cycleswap.inverse import recover_shifts, rotate_left, unfactor
from cycleswap.involution import InvolutionPair, involute
from cycleswap.permutations import Permutation, count_k_cycles, stanley_hat

MAX_KN = 200
examples = settings(deadline=None)


def _perm(m):
    return st.permutations(range(1, m + 1)).map(lambda images: Permutation(tuple(images)))


@st.composite
def sizes(draw):
    # n first, so that long words of short blocks are as likely as short
    # words of long blocks.
    n = draw(st.integers(0, MAX_KN))
    return draw(st.integers(1, MAX_KN // max(n, 1))), n


@st.composite
def gsg_elements(draw, k, n):
    x = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    return GsgElement(k, tuple(x), draw(_perm(n)))


@st.composite
def perm_cases(draw):
    k, n = draw(sizes())
    return k, draw(_perm(k * n))


@st.composite
def pair_cases(draw):
    k, n = draw(sizes())
    delta = factor(draw(_perm(k * n)), k).delta
    return delta, draw(gsg_elements(k, n))


@st.composite
def involution_pairs(draw):
    k, n = draw(sizes())
    return InvolutionPair(draw(gsg_elements(k, n)), draw(_perm(k * n)))


def _reference_residues(p, k):
    word = stanley_hat(p)
    n = len(word) // k
    tau_hat = standardize(block_leaders(word, k))
    x = [0] * n
    for i in range(1, n + 1):
        _, d = leader_distance(word, i, k)
        x[tau_hat[i - 1] - 1] = d % k
    return tuple(x)


def _reference_shifts(delta, sigma):
    # Rebuilds the working word for every block, right to left; blocks
    # left of block i are still unrotated, which cannot move its record.
    k, n = delta.k, delta.n
    delta_hat = stanley_hat(delta.perm)
    tau_hat = stanley_hat(sigma.tau)
    blocks = [block(delta_hat, tau_hat[i], k) for i in range(n)]
    shifts = [0] * n
    for i in range(n, 0, -1):
        word = tuple(itertools.chain.from_iterable(blocks))
        _, d = leader_distance(word, i, k)
        shifts[i - 1] = (sigma.x[tau_hat[i - 1] - 1] - d) % k
        blocks[i - 1] = rotate_left(blocks[i - 1], shifts[i - 1])
    return tuple(shifts)


@examples
@given(perm_cases())
def test_factor_round_trip_and_statistic(case):
    k, p = case
    pair = factor(p, k)
    assert pair.sigma.x == _reference_residues(p, k)
    assert count_k_cycles(p, k) == count_fixed_points(pair.sigma)
    assert unfactor(pair.delta, pair.sigma) == p


@examples
@given(pair_cases())
def test_unfactor_round_trip(case):
    delta, sigma = case
    assert recover_shifts(delta, sigma) == _reference_shifts(delta, sigma)
    back = factor(unfactor(delta, sigma), delta.k)
    assert (back.delta, back.sigma) == (delta, sigma)


@examples
@given(involution_pairs())
def test_involution_at_scale(pair):
    k = pair.sigma.k
    out = involute(pair)
    assert involute(out) == pair
    assert count_fixed_points(out.sigma) == count_k_cycles(pair.pi, k)
    assert count_k_cycles(out.pi, k) == count_fixed_points(pair.sigma)
