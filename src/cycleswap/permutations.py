"""Permutations of {1..m} in one-line form, canonical cycle notation, and
the fundamental bijection between permutations and words.

All positions and letters are 1-based.  A "word" is a sequence listing each
of {1..m} exactly once; the hat map sends a permutation to the word obtained
by writing it in canonical cycle notation (largest letter first in each
cycle, cycles ordered by increasing first letter) and dropping the
parentheses.  The inverse cuts the word before each left-to-right maximum.

A :class:`Permutation` is its one-line images and nothing else: equality,
hashing, ``repr`` and pickling see only ``images``.  The cycle-notation
parser already holds the hat word of what it parses, so it builds its
result with :func:`_with_hat`, which keeps that word beside the images
for :func:`stanley_hat` to return.  Every other permutation, the outputs
of :func:`stanley_unhat` included, carries no word: :func:`stanley_hat`
walks its cycles on each call and keeps nothing, because a caller may hold
many outputs at once and a stored word would double the memory each takes.
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


def check_sizes(k: int, n: int) -> None:
    if k < 1:
        raise ValueError("k must be positive")
    if n < 0:
        raise ValueError("n must be nonnegative")


@dataclass(frozen=True)
class Permutation:
    """A bijection on {1..m} stored in one-line form.

    ``images[i-1]`` is the image of ``i``.  The empty permutation (m = 0)
    is allowed.
    """

    images: tuple[int, ...]
    # The hat word, when whoever built this permutation already had it
    # (see _with_hat); a class attribute, not a field.
    _hat = None

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        m = len(self.images)
        if sorted(self.images) != list(range(1, m + 1)):
            raise ValueError(f"not a permutation of 1..{m}: {self.images}")

    def __getstate__(self):
        # Only the field: a pickled permutation carries no hat word.
        return {"images": self.images}

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
        return _canonical_cycles(self.images)


def _canonical_cycles(images: tuple[int, ...]) -> list[tuple[int, ...]]:
    # Walking from each letter not yet seen, largest first, enters every
    # cycle at its largest letter, and meets the cycles in decreasing
    # order of that letter.
    seen = [False] * (len(images) + 1)
    out = []
    for start in range(len(images), 0, -1):
        if seen[start]:
            continue
        cycle = [start]
        j = images[start - 1]
        while j != start:
            seen[j] = True
            cycle.append(j)
            j = images[j - 1]
        out.append(tuple(cycle))
    out.reverse()
    return out


def _with_hat(images: tuple[int, ...], word: tuple[int, ...]) -> Permutation:
    """``Permutation(images)`` that keeps ``word``, which must be its hat
    word, for :func:`stanley_hat`."""
    p = Permutation(images)
    object.__setattr__(p, "_hat", word)
    return p


def stanley_hat(p: Permutation) -> tuple[int, ...]:
    """The word obtained by dropping the parentheses of the canonical
    cycle notation of ``p``."""
    if p._hat is not None:
        return p._hat
    return tuple(itertools.chain.from_iterable(_canonical_cycles(p.images)))


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
    m = len(word)
    if sorted(word) != list(range(1, m + 1)):
        raise ValueError(f"not a word on 1..{m}: {word}")
    images = [0] * m
    # Each letter maps to the next one, or, when that is a new record, back
    # to the record that opened its cycle; m + 1 closes the last cycle.
    first = top = word[0] if word else 0
    for a, b in zip(word, word[1:] + (m + 1,)):
        if b > top:
            images[a - 1], first, top = first, b, b
        else:
            images[a - 1] = b
    return Permutation(tuple(images))


def _hat_cycles(word: Sequence[int], length: int) -> list[int]:
    """The first letters of the cycles of that length in the permutation
    whose hat word is ``word``: a cycle starts at each left-to-right
    maximum and runs up to the next one, or to the end of the word."""
    out = []
    top = start = 0
    for pos, letter in enumerate(word):
        if letter > top:
            if pos - start == length:
                out.append(top)
            top, start = letter, pos
    if len(word) - start == length:
        out.append(top)
    return out


def cycle_type(p: Permutation) -> tuple[int, ...]:
    """Cycle lengths of ``p``, sorted descending; parts sum to m."""
    return tuple(sorted((len(c) for c in p.cycles()), reverse=True))


def count_k_cycles(p: Permutation, k: int) -> int:
    """Number of cycles of ``p`` with length exactly ``k``."""
    if k < 1:
        raise ValueError("k must be positive")
    return len(_hat_cycles(stanley_hat(p), k))


def enumerate_permutations(m: int, limit: int | None = None) -> Iterator[Permutation]:
    """Yield every permutation of {1..m} once, in lexicographic one-line
    order.  Raises :class:`CapacityError` if m! exceeds the capacity."""
    if m < 0:
        raise ValueError("m must be nonnegative")
    check_capacity(factorial(m), limit, f"S_{m}")
    for images in itertools.permutations(range(1, m + 1)):
        yield Permutation(images)

