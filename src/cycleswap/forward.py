"""The forward factorization of a permutation of {1..kn} into a pair
(delta, sigma): a permutation made of n disjoint k-cycles, together with
a generalized symmetric group element.

The construction works on the hat word of the input: the word is cut into
n blocks of length k; re-reading each block as a k-cycle gives delta; the
relative order of the block maxima ("leaders") gives tau; and the distance
from each leader to the end of its cycle, mod k, gives x.  The number of
k-cycles of the input equals the number of fixed points of sigma.

The work happens on hat words, as plain tuples; :func:`factor` builds the
validated objects once, at the boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .gsg import GsgElement
from .permutations import Permutation, _hat_cycles, _trusted, cycle_type, records
from .permutations import stanley_hat, stanley_unhat


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
    delta = stanley_unhat(delta_word)
    # delta has only k-cycles iff it has n; the kernel reduces x mod k.
    if len(_hat_cycles(delta_word, k)) * k != len(word):
        raise ValueError(f"cycle type is not ({k}^n): {cycle_type(delta)}")
    sigma = _trusted(GsgElement, k=k, x=x, tau=stanley_unhat(tau_hat))
    return _trusted(FactoredPair, delta=_trusted(KCycleFactorization, k=k, perm=delta), sigma=sigma)


def _factor_word(word: tuple[int, ...], k: int) -> tuple[tuple[int, ...], ...]:
    # p's hat word to delta's hat word, x and tau_hat, in one right-to-left
    # pass over the blocks: the next record after a block's leader is the
    # first record past the block, carried leftward as g.  Block i, read from
    # its leader, is the tau_hat[i]-th cycle of delta's hat word.
    m = len(word)
    blocks = [word[start : start + k] for start in range(0, m, k)]
    leaders = [max(b) for b in blocks]
    tau_hat = standardize(leaders)
    pending = records(word)
    x = [0] * len(blocks)
    cycles = [()] * len(blocks)
    g = m + 1
    for i in range(len(blocks) - 1, -1, -1):
        start, b, t = k * i, blocks[i], tau_hat[i] - 1
        j = b.index(leaders[i])
        x[t] = (g - start - j - 1) % k
        cycles[t] = b[j:] + b[:j]
        while pending and pending[-1] > start:
            g = pending.pop()
    return tuple(itertools.chain.from_iterable(cycles)), tuple(x), tau_hat
