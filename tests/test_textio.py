import random

import pytest

from cycleswap.gsg import GsgElement
from cycleswap.permutations import Permutation, enumerate_permutations, stanley_unhat
from cycleswap.textio import (
    ParseError,
    format_gsg,
    format_permutation,
    parse_gsg,
    parse_permutation,
)


def test_parse_cycle_notation():
    tau = parse_permutation("(2)(3)(5 1 4)", 5)
    assert tau == Permutation.from_cycles([(2,), (3,), (5, 1, 4)], 5)


def test_parse_oneline():
    assert parse_permutation("1,2,3", 3) == Permutation.identity(3)
    assert parse_permutation("2,3,5,1,4", 5) == Permutation((2, 3, 5, 1, 4))


def test_parse_omitted_fixed_points():
    assert parse_permutation("(5 1 4)", 5) == parse_permutation("(2)(3)(5 1 4)", 5)


def test_parse_noncanonical_cycles():
    assert parse_permutation("(1 5 4)(3)", 5) == parse_permutation("(5 4 1)", 5)


def test_format_cycles():
    pi = Permutation.from_cycles(
        [(8, 3, 4, 5), (9,), (11, 1, 10), (15, 7, 2, 6, 12, 14, 13)], 15
    )
    assert format_permutation(pi) == "(8 3 4 5)(9)(11 1 10)(15 7 2 6 12 14 13)"
    assert format_permutation(Permutation.identity(3)) == "(1)(2)(3)"
    assert (
        format_permutation(pi, "word") == "8,3,4,5,9,11,1,10,15,7,2,6,12,14,13"
    )


def test_format_unknown_style():
    with pytest.raises(ValueError):
        format_permutation(Permutation.identity(2), "hex")


@pytest.mark.parametrize("style", ["cycles", "oneline", "word"])
def test_round_trip_exhaustive(style):
    for m in range(7):
        for p in enumerate_permutations(m):
            text = format_permutation(p, style)
            parsed = parse_permutation(text, m)
            if style == "word":
                # the word style round-trips through the hat map
                parsed = stanley_unhat(parsed.images)
            assert parsed == p, text


def test_round_trip_randomized():
    rng = random.Random(0)
    for _ in range(50):
        m = rng.randrange(1, 21)
        images = list(range(1, m + 1))
        rng.shuffle(images)
        p = Permutation(tuple(images))
        assert parse_permutation(format_permutation(p, "cycles"), m) == p
        assert parse_permutation(format_permutation(p, "oneline"), m) == p


@pytest.mark.parametrize(
    "text,m",
    [
        ("(1 2", 3),
        ("(1 2)(2 3)", 3),
        ("1,2,2", 3),
        ("1,2", 3),
        ("(1 9)", 3),
        ("(x 2)", 3),
        ("1,x,3", 3),
        ("", 3),
        ("()", 3),
    ],
)
def test_parse_errors_carry_position(text, m):
    with pytest.raises(ParseError) as err:
        parse_permutation(text, m)
    assert "position" in str(err.value)
    assert err.value.position >= 1


@pytest.mark.parametrize(
    "text,message",
    [
        ("1,2,2", "duplicate letter 2 (at position 5)"),
        ("1, 2, 9", "letter 9 outside 1..3 (at position 7)"),
        ("(1 2)(3 3)", "duplicate letter 3 (at position 9)"),
        ("(1 2)(3 9)", "letter 9 outside 1..3 (at position 9)"),
    ],
)
def test_letter_errors_point_at_the_letter(text, message):
    with pytest.raises(ParseError) as err:
        parse_permutation(text, 3)
    assert str(err.value) == message


def test_gsg_round_trip():
    s = GsgElement(3, (0, 1, 0, 2, 1), parse_permutation("(2)(3)(5 1 4)", 5))
    text = format_gsg(s)
    assert text == "x=(0,1,0,2,1); tau=(2)(3)(5 1 4)"
    assert parse_gsg(text, 3, 5) == s


def test_gsg_parse_reduces_mod_k():
    s = parse_gsg("x=(6,4,3,2,7); tau=(2)(3)(5 1 4)", 3, 5)
    assert s.x == (0, 1, 0, 2, 1)


def test_gsg_parse_errors():
    with pytest.raises(ParseError):
        parse_gsg("tau=(1)", 2, 1)
    with pytest.raises(ParseError):
        parse_gsg("x=(0,0); tau=(1)", 2, 1)
    with pytest.raises(ParseError):
        parse_gsg("x=(0); tau=(1 2)", 2, 1)
