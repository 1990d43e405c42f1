"""Reconstruction of a permutation of {1..kn} from its factorization
(delta, (x, tau)).

The k-cycles of delta, in canonical order, are the blocks of its hat word;
listed in the order of the hat word of tau, they are the blocks of the
output's hat word up to rotation.  One right-to-left pass over those
blocks picks each rotation so that the block's leader lies the distance
mod k prescribed by x before the next record.  That record is the first
letter past the block exceeding every leader up to the block, so it does
not move when the block itself is rotated, and the pass carries its
position g leftward from the rotated block.  Reconstruction costs O(kn).
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterator, Sequence

from .forward import FactoredPair, KCycleFactorization
from .gsg import GsgElement
from .permutations import Permutation, check_capacity, stanley_hat, stanley_unhat


def rotate_left(piece: Sequence[int], s: int) -> tuple[int, ...]:
    """Cyclic left shift by s: suffix of length len-s, then prefix of
    length s."""
    if not 0 <= s < len(piece):
        raise ValueError(f"shift {s} outside 0..{len(piece) - 1}")
    return tuple(piece[s:]) + tuple(piece[:s])


def _place_blocks(
    delta: KCycleFactorization, sigma: GsgElement
) -> tuple[list[tuple[int, ...]], list[int]]:
    # The blocks of the output's hat word, rotated into place, and the
    # rotation amounts.  Building the pair checks that (k, n) agree.
    FactoredPair(delta, sigma)
    k = delta.k
    tau_hat = stanley_hat(sigma.tau)
    cycles = delta.perm.cycles()
    blocks = [cycles[t - 1] for t in tau_hat]
    # before[i]: the largest leader left of block i; a canonical cycle
    # starts with its leader.
    before = list(itertools.accumulate((b[0] for b in blocks), max, initial=0))
    shifts = [0] * delta.n
    g = k * delta.n + 1
    for i in range(delta.n - 1, -1, -1):
        start = k * i
        s = shifts[i] = (sigma.x[tau_hat[i] - 1] - (g - start - 1)) % k
        placed = blocks[i] = rotate_left(blocks[i], s)
        g = next((start + j for j, v in enumerate(placed, 1) if v > before[i]), g)
    return blocks, shifts


def recover_shifts(delta: KCycleFactorization, sigma: GsgElement) -> tuple[int, ...]:
    """Rotation amounts s_1..s_n placing each block of the permuted word
    so its leader sits at the residue demanded by sigma.x:
    s_i = x_{tau_hat(i)} - d_i mod k, with d_i the distance from the
    unrotated i-th leader to the next record."""
    return tuple(_place_blocks(delta, sigma)[1])


def unfactor(delta: KCycleFactorization, sigma: GsgElement) -> Permutation:
    """Inverse of :func:`cycleswap.forward.factor`."""
    blocks, _ = _place_blocks(delta, sigma)
    return stanley_unhat(tuple(itertools.chain.from_iterable(blocks)))


def count_k_cycle_factorizations(k: int, n: int) -> int:
    """|{permutations of {1..kn} with cycle type (k^n)}| = (kn)!/(k^n n!)."""
    return factorial(k * n) // (k**n * factorial(n))


def enumerate_k_cycle_factorizations(
    k: int, n: int, limit: int | None = None
) -> Iterator[KCycleFactorization]:
    """Yield every partition of {1..kn} into n k-cycles exactly once.

    Built directly rather than by filtering all of S_kn: each cycle is
    normalized to start with the largest letter not yet used, which kills
    both rotation and cycle-order duplicates.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")
    check_capacity(count_k_cycle_factorizations(k, n), limit, f"D_{{{k},{n}}}")
    m = k * n
    for cycles in _cycle_sets(frozenset(range(1, m + 1)), k):
        yield KCycleFactorization(k, Permutation.from_cycles(cycles, m))


def _cycle_sets(remaining: frozenset[int], k: int) -> Iterator[list[tuple[int, ...]]]:
    if not remaining:
        yield []
        return
    lead = max(remaining)
    rest = sorted(remaining - {lead})
    for tail in itertools.permutations(rest, k - 1):
        cycle = (lead,) + tail
        for more in _cycle_sets(remaining - set(cycle), k):
            yield [cycle] + more
