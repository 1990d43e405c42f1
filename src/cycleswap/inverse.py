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
As in the forward direction, the pass is one step per block
(``_unfactor_block``), and picking each block's cycle and residue by tau_hat
(``_unplace``) stays outside it, for the exhaustive check in
:mod:`cycleswap.harness`, which runs the step once per suffix.  It shows
this pass undoing the forward one on every permutation; since the pairs
(delta, sigma) number |D| k^n n! = (kn)!, the forward pass then undoes this
one on every pair as well.
"""

from __future__ import annotations

import itertools
from math import factorial
from typing import Iterator, Sequence

from .forward import FactoredPair, KCycleFactorization, _tops
from .gsg import GsgElement
from .permutations import Permutation, _trusted, check_capacity, check_sizes
from .permutations import _unhat, stanley_hat


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
    # and tau_hat: one step per block, right to left, carrying g.
    cycles, residues, tops = _unplace(delta_word, x, tau_hat, k)
    blocks, shifts = [()] * len(cycles), [0] * len(cycles)
    g = len(delta_word) + 1
    for i in range(len(cycles) - 1, -1, -1):
        blocks[i], shifts[i], g = _unfactor_block(cycles[i], residues[i], g, k * i, tops[i], k)
    return tuple(itertools.chain.from_iterable(blocks)), shifts


def _unfactor_block(
    cycle: tuple[int, ...], residue: int, g: int, start: int, top: int, k: int
) -> tuple[tuple[int, ...], int, int]:
    # The block at offset ``start``: the cycle rotated left so that its
    # leader lies ``residue`` mod k before g, the rotation, and the first
    # record from the block on.  Only a leader above ``top``, the largest
    # letter left of the block, makes a record there.
    s = (residue - (g - start - 1)) % k
    block = cycle[s:] + cycle[:s] if s else cycle
    if cycle[0] > top:
        for g, letter in enumerate(block, start + 1):
            if letter > top:
                break
    return block, s, g


def _unplace(
    delta_word: tuple[int, ...], x: Sequence[int], tau_hat: Sequence[int], k: int
) -> tuple[list[tuple[int, ...]], list[int], list[int]]:
    # Block i's cycle and residue, delta's tau_hat[i]-th cycle and x entry,
    # and the largest letter left of each block: the largest leader before it.
    cycles = [delta_word[k * t - k : k * t] for t in tau_hat]
    tops = _tops([cycle[0] for cycle in cycles], 1)
    return cycles, [x[t - 1] for t in tau_hat], tops


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
    return _trusted(Permutation, images=_unhat(word), _hat=word)


def count_k_cycle_factorizations(k: int, n: int) -> int:
    """|{permutations of {1..kn} with cycle type (k^n)}| = (kn)!/(k^n n!)."""
    return factorial(k * n) // (k**n * factorial(n))


def _factorization_factors(k: int, n: int) -> Iterator[int]:
    # (kn)!/(k^n n!) as a product: (kn)! is the j <= kn that k does not
    # divide times the multiples k, 2k, ..., nk, whose product is k^n n!.
    return (j for j in range(1, k * n + 1) if j % k)


def enumerate_k_cycle_factorizations(
    k: int, n: int, limit: int | None = None
) -> Iterator[KCycleFactorization]:
    """Yield every partition of {1..kn} into n k-cycles exactly once.

    Built directly rather than by filtering all of S_kn: each cycle is
    normalized to start with the largest letter not yet used, which kills
    both rotation and cycle-order duplicates.
    """
    check_sizes(k, n)
    check_capacity(_factorization_factors(k, n), limit, f"D_{{{k},{n}}}")
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
