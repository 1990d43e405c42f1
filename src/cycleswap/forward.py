"""The forward factorization of a permutation of {1..kn} into a pair
(delta, sigma): a permutation made of n disjoint k-cycles, together with
a generalized symmetric group element.

The construction works on the hat word of the input: the word is cut into
n blocks of length k; re-reading each block as a k-cycle gives delta; the
relative order of the block maxima ("leaders") gives tau; and the distance
from each leader to the end of its cycle, mod k, gives x.  The number of
k-cycles of the input equals the number of fixed points of sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .gsg import GsgElement
from .permutations import (
    Permutation,
    cycle_type,
    records,
    stanley_hat,
    stanley_unhat,
)


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
        if any(len(c) != self.k for c in self.perm.cycles()):
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
    if len(word) % k != 0:
        raise ValueError(f"word length {len(word)} not divisible by k={k}")
    if not 1 <= i <= len(word) // k:
        raise ValueError(f"block index {i} outside 1..{len(word) // k}")
    return tuple(word[k * (i - 1) : k * i])


def block_leaders(word: Sequence[int], k: int) -> tuple[int, ...]:
    """Maximum letter of each length-k block of ``word``."""
    if len(word) % k != 0:
        raise ValueError(f"word length {len(word)} not divisible by k={k}")
    return tuple(max(block(word, i, k)) for i in range(1, len(word) // k + 1))


def standardize(seq: Sequence[int]) -> tuple[int, ...]:
    """Relabel a sequence of distinct integers to {1..n}, preserving
    relative order."""
    if len(set(seq)) != len(seq):
        raise ValueError(f"entries not distinct: {seq}")
    order = {v: i for i, v in enumerate(sorted(seq), start=1)}
    return tuple(order[v] for v in seq)


def k_cycle_factor(p: Permutation, k: int) -> KCycleFactorization:
    """Re-parenthesize the hat word of ``p`` into n disjoint k-cycles."""
    return factor(p, k).delta


def leader_permutation(p: Permutation, k: int) -> Permutation:
    """The permutation of {1..n} whose hat word is the standardized
    sequence of block leaders of the hat word of ``p``."""
    return factor(p, k).sigma.tau


def leader_distance(word: Sequence[int], i: int, k: int) -> tuple[int, int]:
    """(g, d) for the i-th block leader of ``word``: g is the position of
    the first record strictly right of the leader (len+1 if none) and d is
    g minus the leader's position."""
    leader = max(block(word, i, k))
    pos = word.index(leader) + 1
    g = next((r for r in records(word) if r > pos), len(word) + 1)
    return g, g - pos


def residue_vector(p: Permutation, k: int) -> tuple[int, ...]:
    """x in Z_k^n: x indexed by leader rank, where the entry for the i-th
    block leader is its distance to the end of its cycle, mod k."""
    return factor(p, k).sigma.x


def factor(p: Permutation, k: int) -> FactoredPair:
    """The full factorization p -> (delta, (x, tau)), in one right-to-left
    pass over the blocks: the next record after a block's leader is the
    first record past the block, carried leftward as g."""
    word = stanley_hat(p)
    if len(word) % k != 0:
        raise ValueError(f"size {len(word)} not divisible by k={k}")
    m, n = len(word), len(word) // k
    blocks = [word[start : start + k] for start in range(0, m, k)]
    leaders = [max(b) for b in blocks]
    tau_hat = standardize(leaders)
    pending = records(word)
    x = [0] * n
    g = m + 1
    for i in range(n - 1, -1, -1):
        start = k * i
        x[tau_hat[i] - 1] = (g - (start + blocks[i].index(leaders[i]) + 1)) % k
        while pending and pending[-1] > start:
            g = pending.pop()
    delta = KCycleFactorization(k, Permutation.from_cycles(blocks, m))
    return FactoredPair(delta, GsgElement(k, tuple(x), stanley_unhat(tau_hat)))
