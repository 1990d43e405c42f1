"""Elements of the generalized symmetric group Z_k^n x| S_n.

An element is a pair (x, tau): a length-n vector of residues mod k and a
permutation of {1..n}.  For k = 2 this is the hyperoctahedral group B_n;
for k = 1 it degenerates to S_n.  A fixed point is an index i with
x_i = 0 and tau(i) = i.  Only the combinatorial structure is modelled;
there is no group multiplication here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .permutations import Permutation, _canonical_cycles, _trusted, check_capacity, check_sizes


@dataclass(frozen=True)
class GsgElement:
    """An element (x, tau) of Z_k^n x| S_n.

    Residues are reduced mod k on construction, so equality is equality
    of group elements.
    """

    k: int
    x: tuple[int, ...]
    tau: Permutation

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("k must be positive")
        object.__setattr__(self, "x", tuple(v % self.k for v in self.x))
        if len(self.x) != self.tau.size:
            raise ValueError(
                f"x has length {len(self.x)} but tau acts on {self.tau.size} points"
            )

    @property
    def n(self) -> int:
        return len(self.x)


def fixed_points(s: GsgElement) -> list[int]:
    """Ascending indices i with x_i = 0 and tau(i) = i."""
    return [i for i in range(1, s.n + 1) if s.x[i - 1] == 0 and s.tau(i) == i]


def count_fixed_points(s: GsgElement) -> int:
    return len(fixed_points(s))


def enumerate_gsg(k: int, n: int, limit: int | None = None) -> Iterator[GsgElement]:
    """Yield all k^n * n! elements of Z_k^n x| S_n exactly once.

    Outer loop: tau in lexicographic one-line order; inner loop: x counting
    up as a base-k number (last coordinate fastest).  Each tau is walked
    once, and its k^n elements share it and its hat word.
    """
    check_sizes(k, n)
    check_capacity(range(k, k * n + 1, k), limit, f"S({k},{n})")
    for images in itertools.permutations(range(1, n + 1)):
        hat = tuple(itertools.chain.from_iterable(_canonical_cycles(images)))
        tau = _trusted(Permutation, images=images, _hat=hat)
        for x in itertools.product(range(k), repeat=n):
            yield _trusted(GsgElement, k=k, x=x, tau=tau)
