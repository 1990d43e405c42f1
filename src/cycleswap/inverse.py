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

The work happens on hat words, as plain tuples; :func:`unfactor` and
:func:`recover_shifts` build the validated objects once, at the boundary.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterator, Sequence

from .forward import FactoredPair, KCycleFactorization
from .gsg import GsgElement
from .permutations import Permutation, _trusted, check_capacity, check_sizes
from .permutations import _unhat, stanley_hat, stanley_unhat


def rotate_left(piece: Sequence[int], s: int) -> tuple[int, ...]:
    """Cyclic left shift by s: suffix of length len-s, then prefix of
    length s."""
    if not 0 <= s < len(piece):
        raise ValueError(f"shift {s} outside 0..{len(piece) - 1}")
    return tuple(piece[s:]) + tuple(piece[:s])


def _unfactor_word(
    delta_word: tuple[int, ...], x: Sequence[int], tau_hat: Sequence[int], k: int
) -> tuple[tuple[int, ...], list[int]]:
    # The output's hat word and the rotation amounts, from delta's hat word
    # (its k-cycles, each from its leader, in increasing leader order), x
    # and tau_hat.
    blocks = [delta_word[k * t - k : k * t] for t in tau_hat]
    # before[i]: the largest leader left of block i; only a larger one moves g.
    before = list(itertools.accumulate((b[0] for b in blocks), max, initial=0))
    shifts = [0] * len(blocks)
    g = len(delta_word) + 1
    for i in range(len(blocks) - 1, -1, -1):
        start, b, top = k * i, blocks[i], before[i]
        s = shifts[i] = (x[tau_hat[i] - 1] - (g - start - 1)) % k
        blocks[i] = b[s:] + b[:s] if s else b
        if b[0] > top:
            g = next(start + j for j, v in enumerate(blocks[i], 1) if v > top)
    return tuple(itertools.chain.from_iterable(blocks)), shifts


def recover_shifts(delta: KCycleFactorization, sigma: GsgElement) -> tuple[int, ...]:
    """Rotation amounts s_1..s_n placing each block of the permuted word
    so its leader sits at the residue demanded by sigma.x:
    s_i = x_{tau_hat(i)} - d_i mod k, with d_i the distance from the
    unrotated i-th leader to the next record."""
    FactoredPair(delta, sigma)  # checks that (k, n) agree
    _, shifts = _unfactor_word(stanley_hat(delta.perm), sigma.x, stanley_hat(sigma.tau), delta.k)
    return tuple(shifts)


def unfactor(delta: KCycleFactorization, sigma: GsgElement) -> Permutation:
    """Inverse of :func:`cycleswap.forward.factor`."""
    FactoredPair(delta, sigma)
    word, _ = _unfactor_word(stanley_hat(delta.perm), sigma.x, stanley_hat(sigma.tau), delta.k)
    return stanley_unhat(word)


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
    check_sizes(k, n)
    check_capacity(count_k_cycle_factorizations(k, n), limit, f"D_{{{k},{n}}}")
    for word in _cycle_words(frozenset(range(1, k * n + 1)), k):
        perm = _trusted(Permutation, images=_unhat(word), _hat=word)
        yield _trusted(KCycleFactorization, k=k, perm=perm)


def _cycle_words(remaining: frozenset[int], k: int) -> Iterator[tuple[int, ...]]:
    # The hat words of the partitions of ``remaining`` into k-cycles.
    if not remaining:
        yield ()
        return
    lead = max(remaining)
    rest = sorted(remaining - {lead})
    for tail in itertools.permutations(rest, k - 1):
        cycle = (lead,) + tail
        # The other cycles have smaller leaders, so they come first.
        for more in _cycle_words(remaining - set(cycle), k):
            yield more + cycle
