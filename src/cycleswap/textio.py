"""Text encodings of permutations and generalized symmetric group
elements.

Two permutation encodings are supported: cycle notation with
space-separated decimal letters, e.g. ``(8 3 4 5)(9)(11 1 10)``, where
omitted letters are fixed points; and one-line notation, e.g.
``2,3,5,1,4``.  The formatter always emits canonical cycle notation.
A group element is written ``x=(0,1,0,2,1); tau=(2)(3)(5 1 4)``.
"""

from __future__ import annotations

from .gsg import GsgElement
from .permutations import Permutation, stanley_hat


class ParseError(ValueError):
    """Malformed input text; carries the 1-based character position, and the
    1-based line for text read from a file."""

    def __init__(self, message: str, position: int, line: int | None = None):
        where = f"position {position}" if line is None else f"line {line}, position {position}"
        super().__init__(f"{message} (at {where})")
        self.position = position
        self.line = line


def parse_permutation(text: str, m: int) -> Permutation:
    """Parse cycle or one-line notation into a permutation of {1..m}."""
    stripped = text.strip()
    offset = text.index(stripped) if stripped else 0
    if stripped.startswith("("):
        return _parse_cycles(stripped, m, offset)
    return _parse_oneline(stripped, m, offset)


def _parse_oneline(text: str, m: int, offset: int) -> Permutation:
    if not text:
        if m == 0:
            return Permutation(())
        raise ParseError("empty input", offset + 1)
    images = []
    pos = 0
    for piece in text.split(","):
        token = piece.strip()
        token_pos = offset + pos + piece.index(token) + 1 if token else offset + pos + 1
        if not token:
            raise ParseError("empty entry", token_pos)
        try:
            images.append(int(token))
        except ValueError:
            raise ParseError(f"not an integer: {token!r}", token_pos) from None
        pos += len(piece) + 1
    if len(images) != m:
        raise ParseError(f"expected {m} entries, got {len(images)}", offset + len(text))
    _check_letters(images, m, offset + 1)
    return Permutation(tuple(images))


def _parse_cycles(text: str, m: int, offset: int) -> Permutation:
    cycles: list[list[int]] = []
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
        cycle = []
        pos = 0
        for token in body.split():
            token_pos = offset + i + 2 + body.index(token, pos)
            pos = body.index(token, pos) + len(token)
            try:
                cycle.append(int(token))
            except ValueError:
                raise ParseError(f"not an integer: {token!r}", token_pos) from None
        if not cycle:
            raise ParseError("empty cycle", offset + i + 1)
        cycles.append(cycle)
        i = close + 1
    flat = [v for c in cycles for v in c]
    _check_letters(flat, m, offset + 1, require_all=False)
    return Permutation.from_cycles(cycles, m)


def _check_letters(letters: list[int], m: int, position: int, require_all: bool = True):
    seen = set()
    for v in letters:
        if not 1 <= v <= m:
            raise ParseError(f"letter {v} outside 1..{m}", position)
        if v in seen:
            raise ParseError(f"duplicate letter {v}", position)
        seen.add(v)
    if require_all and len(seen) != m:
        raise ParseError(f"expected all of 1..{m}", position)


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
    tau = parse_permutation(text[tau_pos + 4 :], n)
    return GsgElement(k, x, tau)


def parse_residues(text: str, n: int, offset: int = 0) -> tuple[int, ...]:
    """Parse n comma-separated integers, e.g. ``0,1,0,2,1`` or
    ``(0,1,0,2,1)``.  ``offset`` counts the characters of the input before
    ``text``, so that error positions refer to the whole input."""
    body = text.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1].strip()
    try:
        x = tuple(int(tok) for tok in body.split(",")) if body else ()
    except ValueError:
        raise ParseError(f"bad residue list: {body!r}", offset + 1) from None
    if len(x) != n:
        raise ParseError(f"expected {n} residues, got {len(x)}", offset + 1)
    return x
