"""Text encodings of permutations and generalized symmetric group
elements.

Two permutation encodings are supported: cycle notation with
space-separated decimal letters, e.g. ``(8 3 4 5)(9)(11 1 10)``, where
omitted letters are fixed points; and one-line notation, e.g.
``2,3,5,1,4``.  The formatter always emits canonical cycle notation.
A group element is written ``x=(0,1,0,2,1); tau=(2)(3)(5 1 4)``.

Each parser reads its text in one pass of splits and ``int`` conversions
and then checks the letters as a whole.  Character positions are worked
out only when something is wrong: the text is then scanned again, token
by token, for the first fault and where it starts.  The cycle parser also
builds the canonical hat word from the cycles it reads and hands it to the
permutation, so that :func:`~cycleswap.permutations.stanley_hat` of the
result does not walk the cycles again.
"""

from __future__ import annotations

import itertools
from typing import Callable, Sequence

from .gsg import GsgElement
from .permutations import Permutation, _trusted, _unhat, stanley_hat


class ParseError(ValueError):
    """Malformed input text; carries the 1-based character position, and the
    1-based line for text read from a file."""

    def __init__(self, message: str, position: int, line: int | None = None):
        where = f"position {position}" if line is None else f"line {line}, position {position}"
        super().__init__(f"{message} (at {where})")
        self.position = position
        self.line = line


def parse_permutation(text: str, m: int, offset: int = 0) -> Permutation:
    """Parse cycle or one-line notation into a permutation of {1..m}.
    ``offset`` counts the characters of the input before ``text``, so that
    error positions refer to the whole input."""
    stripped = text.strip()
    offset += text.index(stripped) if stripped else 0
    if stripped.startswith("("):
        return _parse_cycles(stripped, m, offset)
    return _parse_oneline(stripped, m, offset)


def _parse_oneline(text: str, m: int, offset: int) -> Permutation:
    if not text:
        if m == 0:
            return Permutation(())
        raise ParseError("empty input", offset + 1)
    images = _read_entries(text, offset)
    if len(images) != m:
        raise ParseError(f"expected {m} entries, got {len(images)}", offset + len(text))
    _check_letters(images, m, lambda: _entry_positions(text.split(","), offset))
    return _trusted(Permutation, images=images)


def _read_entries(text: str, offset: int) -> tuple[int, ...]:
    # The comma-separated integers of text that starts after ``offset``
    # characters of the input.
    pieces = text.split(",")
    try:
        return tuple(map(int, map(str.strip, pieces)))
    except ValueError:
        _entry_positions(pieces, offset)  # raises a ParseError at the bad entry
        raise


def _entry_positions(pieces: list[str], offset: int) -> list[int]:
    """Where each comma-separated entry starts, past its leading
    whitespace; raises :class:`ParseError` at the first entry that is
    empty or not an integer."""
    positions, at = [], offset + 1
    for piece in pieces:
        token = piece.strip()
        where = at + piece.index(token)
        try:
            int(token)
        except ValueError:
            raise ParseError(f"not an integer: {token!r}" if token else "empty entry", where) from None
        positions.append(where)
        at += len(piece) + 1
    return positions


def _parse_cycles(text: str, m: int, offset: int) -> Permutation:
    *pieces, tail = text.split(")")
    try:
        if tail.strip():
            raise ValueError(tail)
        cycles = [_cycle_letters(piece) for piece in pieces]
    except ValueError:
        _cycle_positions(text, offset)  # raises a ParseError at the fault
        raise
    letters = list(itertools.chain.from_iterable(cycles))
    _check_letters(letters, m, lambda: _cycle_positions(text, offset))
    # The hat word: each cycle from its largest letter, the letters left
    # out as 1-cycles, in increasing order of first letter.
    for i, c in enumerate(cycles):
        top = c.index(max(c))
        cycles[i] = c[top:] + c[:top]
    cycles += [[v] for v in set(range(1, m + 1)).difference(letters)]
    cycles.sort()  # by first letter, as no two cycles share one
    word = tuple(itertools.chain.from_iterable(cycles))
    return _trusted(Permutation, images=_unhat(word), _hat=word)


def _cycle_letters(piece: str) -> list[int]:
    # The letters of one cycle, from the text up to its ')'.
    space, paren, body = piece.partition("(")
    letters = list(map(int, body.split()))
    if space.strip() or not paren or not letters:
        raise ValueError(piece)
    return letters


def _cycle_positions(text: str, offset: int) -> list[int]:
    """Where each letter of cycle text starts; raises :class:`ParseError`
    at the first fault in the text's parentheses or in a letter's
    spelling."""
    positions = []
    i = 0
    while i < len(text):
        if text[i].isspace():
            i += 1
            continue
        if text[i] != "(":
            raise ParseError(f"expected '(', found {text[i]!r}", offset + i + 1)
        close = text.find(")", i)
        if close < 0:
            raise ParseError("unclosed '('", offset + i + 1)
        body = text[i + 1 : close]
        tokens = body.split()
        if not tokens:
            raise ParseError("empty cycle", offset + i + 1)
        pos = 0
        for token in tokens:
            pos = body.index(token, pos)
            try:
                int(token)
            except ValueError:
                raise ParseError(f"not an integer: {token!r}", offset + i + 2 + pos) from None
            positions.append(offset + i + 2 + pos)
            pos += len(token)
        i = close + 1
    return positions


def _check_letters(letters: Sequence[int], m: int, positions: Callable[[], list[int]]) -> None:
    """Each letter lies in 1..m and none repeats; otherwise raise
    :class:`ParseError` at the first letter in the text that does not.
    ``positions()`` says where each letter starts; it is called only then."""
    if 1 <= min(letters) and max(letters) <= m and len(set(letters)) == len(letters):
        return
    seen = set()
    for v, at in zip(letters, positions()):
        if not 1 <= v <= m:
            raise ParseError(f"letter {v} outside 1..{m}", at)
        if v in seen:
            raise ParseError(f"duplicate letter {v}", at)
        seen.add(v)


def format_permutation(p: Permutation, style: str = "cycles") -> str:
    """Render ``p`` in one of the styles ``cycles``, ``oneline``, ``word``."""
    if style == "cycles":
        return "".join("(" + " ".join(map(str, c)) + ")" for c in p.cycles())
    if style == "oneline":
        return ",".join(map(str, p.images))
    if style == "word":
        return ",".join(map(str, stanley_hat(p)))
    raise ValueError(f"unknown style {style!r}")


def format_gsg(s: GsgElement) -> str:
    x = ",".join(map(str, s.x))
    return f"x=({x}); tau={format_permutation(s.tau)}"


def parse_gsg(text: str, k: int, n: int) -> GsgElement:
    """Parse ``x=(...); tau=(...)`` into a group element; x entries are
    reduced mod k."""
    x_pos = text.find("x=(")
    if x_pos < 0:
        raise ParseError("missing 'x=(...)'", 1)
    x_end = text.find(")", x_pos)
    if x_end < 0:
        raise ParseError("unclosed 'x=('", x_pos + 3)
    x = parse_residues(text[x_pos + 2 : x_end + 1], n, x_pos + 2)
    tau_pos = text.find("tau=", x_end)
    if tau_pos < 0:
        raise ParseError("missing 'tau=...'", x_end + 1)
    tau = parse_permutation(text[tau_pos + 4 :], n, tau_pos + 4)
    return GsgElement(k, x, tau)


def parse_residues(text: str, n: int, offset: int = 0) -> tuple[int, ...]:
    """Parse n comma-separated integers, e.g. ``0,1,0,2,1`` or
    ``(0,1,0,2,1)``.  ``offset`` counts the characters of the input before
    ``text``, so that error positions refer to the whole input; a bad entry
    is reported where it starts."""
    body = text.strip()
    start = offset + len(text) - len(text.lstrip())
    if body.startswith("(") and body.endswith(")"):
        inner = body[1:-1]
        body = inner.strip()
        start += 1 + len(inner) - len(inner.lstrip())
    try:
        x = _read_entries(body, start) if body else ()
    except ParseError as exc:
        raise ParseError(f"bad residue list: {body!r}", exc.position) from None
    if len(x) != n:
        raise ParseError(f"expected {n} residues, got {len(x)}", offset + 1)
    return x
