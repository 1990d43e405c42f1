"""The forward factorization of a permutation of {1..kn} into a pair
(delta, sigma): a permutation made of n disjoint k-cycles, together with
a generalized symmetric group element.

The construction works on the hat word of the input: the word is cut into
n blocks of length k; re-reading each block as a k-cycle gives delta; the
relative order of the block maxima ("leaders") gives tau; and the distance
from each leader to the end of its cycle, mod k, gives x.  The number of
k-cycles of the input equals the number of fixed points of sigma.

The work happens on hat words, as plain tuples; :func:`factor` builds the
validated objects once, at the boundary.  The pass is one step per block,
right to left (``_factor_block``): from the block, g (the first record past
it) and the largest letter left of it, the step reads the cycle and the
residue and moves g to the block's first record, if it has one.  Cutting,
those largest letters, and ranking and placing (``_cut``, ``_place``) stay
outside the step, so the exhaustive check in :mod:`cycleswap.harness` runs
the step once per suffix of a hat word and checks the rest once per element
of the generalized symmetric group.  That shows this pass one-to-one into
the pairs (delta, sigma); as there are |D| k^n n! = (kn)! of them, it is
onto, and the inverse pass undoes it on every pair.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .gsg import GsgElement
from .permutations import Permutation, _hat_cycles, _trusted, _unhat, cycle_type, records, stanley_hat


@dataclass(frozen=True)
class KCycleFactorization:
    """A permutation of {1..kn} whose cycle type is (k, ..., k)."""

    k: int
    perm: Permutation

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        if self.perm.size % self.k != 0:
            raise ValueError(f"size {self.perm.size} not divisible by k={self.k}")
        if len(_hat_cycles(stanley_hat(self.perm), self.k)) * self.k != self.perm.size:
            raise ValueError(f"cycle type is not ({self.k}^n): {cycle_type(self.perm)}")

    @property
    def n(self) -> int:
        return self.perm.size // self.k


@dataclass(frozen=True)
class FactoredPair:
    delta: KCycleFactorization
    sigma: GsgElement

    def __post_init__(self):
        if self.delta.k != self.sigma.k or self.delta.n != self.sigma.n:
            raise ValueError(
                f"incompatible pair: delta is ({self.delta.k},{self.delta.n}), "
                f"sigma is ({self.sigma.k},{self.sigma.n})"
            )


def block(word: Sequence[int], i: int, k: int) -> tuple[int, ...]:
    """The i-th length-k contiguous piece of ``word`` (1-based)."""
    if k < 1:
        raise ValueError("k must be positive")
    if len(word) % k != 0:
        raise ValueError(f"word length {len(word)} not divisible by k={k}")
    if not 1 <= i <= len(word) // k:
        raise ValueError(f"block index {i} outside 1..{len(word) // k}")
    return tuple(word[k * (i - 1) : k * i])


def block_leaders(word: Sequence[int], k: int) -> tuple[int, ...]:
    """Maximum letter of each length-k block of ``word``."""
    if k < 1:
        raise ValueError("k must be positive")
    if len(word) % k != 0:
        raise ValueError(f"word length {len(word)} not divisible by k={k}")
    return tuple(max(word[i : i + k]) for i in range(0, len(word), k))


def standardize(seq: Sequence[int]) -> tuple[int, ...]:
    """Relabel a sequence of distinct integers to {1..n}, preserving
    relative order."""
    order = {v: i for i, v in enumerate(sorted(seq), start=1)}
    if len(order) != len(seq):
        raise ValueError(f"entries not distinct: {seq}")
    return tuple([order[v] for v in seq])


def leader_distance(word: Sequence[int], i: int, k: int) -> tuple[int, int]:
    """(g, d) for the i-th block leader of ``word``: g is the position of
    the first record strictly right of the leader (len+1 if none) and d is
    g minus the leader's position."""
    leader = max(block(word, i, k))
    pos = word.index(leader) + 1
    g = next((r for r in records(word) if r > pos), len(word) + 1)
    return g, g - pos


def factor(p: Permutation, k: int) -> FactoredPair:
    """The full factorization p -> (delta, (x, tau))."""
    if k < 1:
        raise ValueError("k must be positive")
    word = stanley_hat(p)
    if len(word) % k != 0:
        raise ValueError(f"size {len(word)} not divisible by k={k}")
    delta_word, x, tau_hat = _factor_word(word, k)
    # The kernel's words are permutations of 1..kn and 1..n, and both keep
    # them.  delta has only k-cycles iff it has n; the kernel reduces x mod k.
    delta = _trusted(Permutation, images=_unhat(delta_word), _hat=delta_word)
    if len(_hat_cycles(delta_word, k)) * k != len(word):
        raise ValueError(f"cycle type is not ({k}^n): {cycle_type(delta)}")
    tau = _trusted(Permutation, images=_unhat(tau_hat), _hat=tau_hat)
    sigma = _trusted(GsgElement, k=k, x=x, tau=tau)
    return _trusted(FactoredPair, delta=_trusted(KCycleFactorization, k=k, perm=delta), sigma=sigma)


def _factor_word(word: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    # p's hat word to delta's hat word, x and tau_hat: one step per block,
    # right to left, carrying g, the first record past the current block.
    blocks, tops = _cut(word, k)
    cycles, residues = [()] * len(blocks), [0] * len(blocks)
    g = len(word) + 1
    for i in range(len(blocks) - 1, -1, -1):
        cycles[i], residues[i], g = _factor_block(blocks[i], g, k * i, tops[i], k)
    return _place(cycles, residues)


def _factor_block(
    block: tuple[int, ...], g: int, start: int, top: int, k: int
) -> tuple[tuple[int, ...], int, int]:
    # The block at offset ``start`` read from its leader as a cycle, the
    # leader's distance to g mod k, and the first record from the block on:
    # its first letter above ``top``, the largest letter left of it, if any.
    lead = max(block)
    j = block.index(lead)
    residue = (g - start - j - 1) % k
    if lead > top:
        for g, letter in enumerate(block, start + 1):
            if letter > top:
                break
    return (block[j:] + block[:j] if j else block), residue, g


def _cut(word: tuple[int, ...], k: int) -> tuple[list[tuple[int, ...]], list[int]]:
    # The length-k blocks of ``word`` and the largest letter left of each.
    return list(zip(*[iter(word)] * k)), _tops(word, k)


def _tops(letters: Sequence[int], k: int) -> list[int]:
    # The largest of letters[:k * i], 0 for none, for each block i.
    prefix, top = [0], 0
    for letter in letters:
        if letter > top:
            top = letter
        prefix.append(top)
    return prefix[:-1:k]


def _place(
    cycles: list[tuple[int, ...]], residues: list[int]
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    # delta's hat word, x and tau_hat from each block's cycle and residue:
    # the cycles and residues in increasing order of leader, and tau_hat[i]
    # the rank of block i's leader, the first letter of its cycle.
    leaders = [cycle[0] for cycle in cycles]
    order = sorted(range(len(leaders)), key=leaders.__getitem__)
    tau_hat = [0] * len(order)
    for t, i in enumerate(order, 1):
        tau_hat[i] = t
    delta = tuple(itertools.chain.from_iterable([cycles[i] for i in order]))
    return delta, tuple([residues[i] for i in order]), tuple(tau_hat)
