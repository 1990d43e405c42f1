"""Permutations of {1..m} (1-based) in one-line form, canonical cycle
notation, and the hat map: it writes a permutation in canonical cycle
notation (largest letter first in each cycle, cycles by increasing first
letter) without parentheses, a word listing each of {1..m} once; its
inverse cuts the word before each left-to-right maximum.

A :class:`Permutation` is its one-line images: equality, hashing, ``repr``
and pickling see nothing else.  Each object of this package is checked
once, in O(m), where its representation is born, and never again: by a
public constructor; by :func:`stanley_unhat`, on its word; by a text
parser, on the letters it read; or by construction, in enumerations and
for the kernels' words and x.  :func:`_trusted` then builds it.  These keep
their hat word, for :func:`stanley_hat`: the cycle parser's result, each
enumerated k-cycle factorization, each enumerated tau (shared by its k^n
elements), the delta and tau of ``factor`` and the output of ``unfactor``.
The others, ``stanley_unhat``'s result and so the involution's output
among them, walk their cycles: keeping the word on every output raised
peak memory by 5-7 % on the text-to-text involution benchmark.
"""

from __future__ import annotations

import itertools
import sys
from dataclasses import dataclass
from math import inf
from typing import Iterable, Iterator, Sequence

#: Exhaustive enumeration refuses to start above this many items unless the
#: caller raises the limit explicitly.
DEFAULT_CAPACITY = 400_000_000


class CapacityError(Exception):
    """Requested enumeration would exceed the configured item capacity."""


def check_capacity(factors: Iterable[int], limit: int | None, what: str) -> None:
    """Refuse a count above ``limit``, the count given as the product of
    ``factors``, each at least 1.  The factors are multiplied only until the
    product passes the limit, then, for the message, only until it passes
    the interpreter's int-to-str digit limit, so a huge group order is never
    built.  The message gives the count in full, or past that digit limit
    the largest power of two not above the part multiplied out."""
    if limit is None:
        limit = DEFAULT_CAPACITY
    factors = iter(factors)
    count = _product_past(factors, limit)
    if count > limit:
        digits = getattr(sys, "get_int_max_str_digits", int)()  # 0: no limit
        count = _product_past(factors, 10**digits - 1 if digits else inf, count)
        try:
            text = str(count)
        except ValueError:  # past the interpreter's int-to-str digit limit
            text = f"at least 2^{count.bit_length() - 1}"
        raise CapacityError(f"{what}: {text} items exceeds capacity {limit}")


def _product_past(factors: Iterable[int], bound: float, product: int = 1) -> int:
    # product times the next factors, each at least 1, until the result
    # passes bound or they run out: the whole product if it is at most bound.
    for f in factors:
        product *= f
        if product > bound:
            break
    return product


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
    # The hat word, if its builder had it (see _trusted); not a field.
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
        return _trusted(Permutation, images=tuple(range(1, m + 1)))

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
        return _trusted(Permutation, images=tuple(images))

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


def _trusted(cls, **fields):
    """``cls(**fields)``, fields in declaration order, without the check."""
    obj = object.__new__(cls)
    for name, value in fields.items():  # as __init__ does: no __dict__ built
        object.__setattr__(obj, name, value)
    return obj


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
    if set(word) != set(range(1, m + 1)):
        raise ValueError(f"not a word on 1..{m}: {word}")
    return _trusted(Permutation, images=_unhat(word))


def _unhat(word: tuple[int, ...]) -> tuple[int, ...]:
    # The images of the permutation whose hat word is ``word``: each letter
    # maps to the next one, or, when that is a new record, back to the
    # record that opened its cycle; m + 1 closes the last cycle.
    images = [0] * len(word)
    first = top = word[0] if word else 0
    for a, b in zip(word, word[1:] + (len(word) + 1,)):
        if b > top:
            images[a - 1], first, top = first, b, b
        else:
            images[a - 1] = b
    return tuple(images)


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
    check_capacity(range(1, m + 1), limit, f"S_{m}")
    for images in itertools.permutations(range(1, m + 1)):
        yield _trusted(Permutation, images=images)

