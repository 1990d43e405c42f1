"""Permutations of {1..m} in one-line form, canonical cycle notation, and
the fundamental bijection between permutations and words.

All positions and letters are 1-based.  A "word" is a sequence listing each
of {1..m} exactly once; the hat map sends a permutation to the word obtained
by writing it in canonical cycle notation (largest letter first in each
cycle, cycles ordered by increasing first letter) and dropping the
parentheses.  The inverse cuts the word before each left-to-right maximum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial
from typing import Iterator, Sequence

#: Exhaustive enumeration refuses to start above this many items unless the
#: caller raises the limit explicitly.
DEFAULT_CAPACITY = 400_000_000


class CapacityError(Exception):
    """Requested enumeration would exceed the configured item capacity."""


def check_capacity(count: int, limit: int | None, what: str) -> None:
    if limit is None:
        limit = DEFAULT_CAPACITY
    if count > limit:
        raise CapacityError(f"{what}: {count} items exceeds capacity {limit}")


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..m} stored in one-line form.

    ``images[i-1]`` is the image of ``i``.  The empty permutation (m = 0)
    is allowed.
    """

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        m = len(self.images)
        if sorted(self.images) != list(range(1, m + 1)):
            raise ValueError(f"not a permutation of 1..{m}: {self.images}")

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, i: int) -> int:
        if not 1 <= i <= len(self.images):
            raise ValueError(f"point {i} outside 1..{len(self.images)}")
        return self.images[i - 1]

    @staticmethod
    def identity(m: int) -> "Permutation":
        return Permutation(tuple(range(1, m + 1)))

    @staticmethod
    def from_cycles(cycles: Sequence[Sequence[int]], m: int) -> "Permutation":
        """Build a permutation on {1..m} from disjoint cycles.

        Letters not mentioned in any cycle are fixed points.
        """
        images = list(range(1, m + 1))
        seen = set()
        for cycle in cycles:
            for a, b in zip(cycle, cycle[1:] + type(cycle)(cycle[:1])):
                if a in seen:
                    raise ValueError(f"letter {a} appears in two cycles")
                if not 1 <= a <= m:
                    raise ValueError(f"letter {a} outside 1..{m}")
                seen.add(a)
                images[a - 1] = b
        return Permutation(tuple(images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Disjoint cycles in canonical form: each cycle starts with its
        largest letter, cycles sorted by increasing first letter."""
        out = []
        seen = [False] * len(self.images)
        for start in range(1, len(self.images) + 1):
            if seen[start - 1]:
                continue
            cycle = [start]
            seen[start - 1] = True
            j = self.images[start - 1]
            while j != start:
                cycle.append(j)
                seen[j - 1] = True
                j = self.images[j - 1]
            top = cycle.index(max(cycle))
            out.append(tuple(cycle[top:] + cycle[:top]))
        out.sort(key=lambda c: c[0])
        return out


def stanley_hat(p: Permutation) -> tuple[int, ...]:
    """The word obtained by dropping the parentheses of the canonical
    cycle notation of ``p``."""
    return tuple(letter for cycle in p.cycles() for letter in cycle)


def records(word: Sequence[int]) -> list[int]:
    """1-based positions of the left-to-right maxima of ``word``."""
    out = []
    best = 0
    for pos, letter in enumerate(word, start=1):
        if letter > best:
            out.append(pos)
            best = letter
    return out


def stanley_unhat(word: Sequence[int]) -> Permutation:
    """Inverse of :func:`stanley_hat`: cut ``word`` before each
    left-to-right maximum and read the pieces as cycles."""
    word = tuple(word)
    cuts = records(word) + [len(word) + 1]
    cycles = [word[a - 1 : b - 1] for a, b in zip(cuts, cuts[1:])]
    return Permutation.from_cycles(cycles, len(word))


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Cycle lengths of ``p``, sorted descending; parts sum to m."""
    return tuple(sorted((len(c) for c in p.cycles()), reverse=True))


def count_k_cycles(p: Permutation, k: int) -> int:
    """Number of cycles of ``p`` with length exactly ``k``."""
    if k < 1:
        raise ValueError("k must be positive")
    return _k_cycles_oneline([v - 1 for v in p.images], k)


def _k_cycles_oneline(images: Sequence[int], k: int) -> int:
    """k-cycle count of a 0-based one-line permutation, without building
    a Permutation."""
    seen = [False] * len(images)
    hits = 0
    for start in range(len(images)):
        if seen[start]:
            continue
        length = 0
        j = start
        while not seen[j]:
            seen[j] = True
            j = images[j]
            length += 1
        if length == k:
            hits += 1
    return hits


def enumerate_permutations(m: int, limit: int | None = None) -> Iterator[Permutation]:
    """Yield every permutation of {1..m} once, in lexicographic one-line
    order.  Raises :class:`CapacityError` if m! exceeds the capacity."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    check_capacity(factorial(m), limit, f"S_{m}")
    for images in itertools.permutations(range(1, m + 1)):
        yield Permutation(images)


def unrank_permutation(m: int, rank: int) -> Permutation:
    """The permutation at position ``rank`` (0-based) in lexicographic
    one-line order, via the factorial number system."""
    if not 0 <= rank < factorial(m):
        raise ValueError(f"rank {rank} outside 0..{m}!-1")
    letters = list(range(1, m + 1))
    images = []
    for i in range(m, 0, -1):
        q, rank = divmod(rank, factorial(i - 1))
        images.append(letters.pop(q))
    return Permutation(tuple(images))


def permutations_in_range(m: int, start: int, stop: int) -> Iterator[Permutation]:
    """Permutations of {1..m} with lexicographic ranks in [start, stop).

    Workers enumerating disjoint rank ranges partition S_m exactly.
    """
    total = factorial(m)
    if not 0 <= start <= stop <= total:
        raise ValueError(f"bad rank range [{start}, {stop}) for S_{m}")
    if start == stop:
        return
    images = list(unrank_permutation(m, start).images)
    for _ in range(stop - start):
        yield Permutation(tuple(images))
        _advance(images)


def _advance(images: list[int]) -> None:
    """Step to the next permutation in lexicographic order, in place."""
    i = len(images) - 2
    while i >= 0 and images[i] >= images[i + 1]:
        i -= 1
    if i < 0:
        return  # already the last one
    j = len(images) - 1
    while images[j] <= images[i]:
        j -= 1
    images[i], images[j] = images[j], images[i]
    images[i + 1 :] = reversed(images[i + 1 :])
