import pickle
import random

import pytest

from cycleswap.gsg import GsgElement
from cycleswap.permutations import (
    Permutation,
    enumerate_permutations,
    stanley_hat,
    stanley_unhat,
)
from cycleswap.textio import (
    ParseError,
    format_gsg,
    format_permutation,
    parse_gsg,
    parse_permutation,
    parse_residues,
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


@pytest.mark.parametrize(
    "text,m,message",
    [
        # cycle notation: structure, then integers, then letters
        ("(1 2", 3, "unclosed '(' (at position 1)"),
        ("(1 2) (", 3, "unclosed '(' (at position 7)"),
        ("(9)(x", 3, "unclosed '(' (at position 4)"),
        ("(1 2))", 3, "expected '(', found ')' (at position 6)"),
        ("(1 2) x", 3, "expected '(', found 'x' (at position 7)"),
        ("(1 2)x", 3, "expected '(', found 'x' (at position 6)"),
        ("()", 3, "empty cycle (at position 1)"),
        ("(1)(  )", 3, "empty cycle (at position 4)"),
        ("(1 (2 3))", 3, "not an integer: '(2' (at position 4)"),
        ("((1 2)", 3, "not an integer: '(1' (at position 2)"),
        ("(1 a)", 3, "not an integer: 'a' (at position 4)"),
        ("(1 2.0)", 3, "not an integer: '2.0' (at position 4)"),
        ("(9)(x)", 3, "not an integer: 'x' (at position 5)"),
        ("(0 1)", 3, "letter 0 outside 1..3 (at position 2)"),
        ("(-1 2)", 3, "letter -1 outside 1..3 (at position 2)"),
        ("(1)", 0, "letter 1 outside 1..0 (at position 2)"),
        ("(1 2)(2 3)", 3, "duplicate letter 2 (at position 7)"),
        ("(1 1 9)", 3, "duplicate letter 1 (at position 4)"),
        ("(9 1 1)", 3, "letter 9 outside 1..3 (at position 2)"),
        ("  (1 9)", 3, "letter 9 outside 1..3 (at position 6)"),
        ("\t (1 2) (3 x)", 3, "not an integer: 'x' (at position 12)"),
        ("( 2\n 3 )( 3 )", 3, "duplicate letter 3 (at position 11)"),
        # one-line notation: entries, then their count, then letters
        ("", 3, "empty input (at position 1)"),
        ("   ", 3, "empty input (at position 1)"),
        ("1,,3", 3, "empty entry (at position 3)"),
        ("1,2,", 3, "empty entry (at position 5)"),
        (",1,2", 3, "empty entry (at position 1)"),
        ("1, x ,3", 3, "not an integer: 'x' (at position 4)"),
        ("9,x,1", 3, "not an integer: 'x' (at position 3)"),
        ("1 2 3", 3, "not an integer: '1 2 3' (at position 1)"),
        (")(1 2)", 3, "not an integer: ')(1 2)' (at position 1)"),
        ("   )", 3, "not an integer: ')' (at position 4)"),
        ("1,2", 3, "expected 3 entries, got 2 (at position 3)"),
        ("9,1", 3, "expected 3 entries, got 2 (at position 3)"),
        ("1,2,3,4", 3, "expected 3 entries, got 4 (at position 7)"),
        ("1", 0, "expected 0 entries, got 1 (at position 1)"),
        ("0,1,2", 3, "letter 0 outside 1..3 (at position 1)"),
        ("  1,2,9", 3, "letter 9 outside 1..3 (at position 7)"),
        (" 3, 3,9", 3, "duplicate letter 3 (at position 5)"),
    ],
)
def test_parse_error_table(text, m, message):
    with pytest.raises(ParseError) as err:
        parse_permutation(text, m)
    assert str(err.value) == message
    assert message.endswith(f"(at position {err.value.position})")


@pytest.mark.parametrize(
    "text,message",
    [
        ("tau=(1)", "missing 'x=(...)' (at position 1)"),
        ("x=(0,1,2", "unclosed 'x=(' (at position 3)"),
        ("x=(0,1,2)", "missing 'tau=...' (at position 9)"),
        ("x=(0,1); tau=(1)(2)(3)", "expected 3 residues, got 2 (at position 3)"),
        # tau's positions count from the start of the input, as x's do
        ("x=(0,1,2); tau=(1 9)", "letter 9 outside 1..3 (at position 19)"),
        ("x=(0,1,2);  tau= (1)(2 2)", "duplicate letter 2 (at position 24)"),
        ("x=(0,1,2); tau=1,2,2", "duplicate letter 2 (at position 20)"),
    ],
)
def test_gsg_parse_error_table(text, message):
    with pytest.raises(ParseError) as err:
        parse_gsg(text, 2, 3)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text,offset,message",
    [
        ("0,1,a,2", 0, "bad residue list: '0,1,a,2' (at position 5)"),
        ("0, 1,,2", 0, "bad residue list: '0, 1,,2' (at position 6)"),
        (" 0 , 1 ,x, 3", 0, "bad residue list: '0 , 1 ,x, 3' (at position 9)"),
        ("(0,1,2,)", 0, "bad residue list: '0,1,2,' (at position 8)"),
        ("( ,0,1,2)", 4, "bad residue list: ',0,1,2' (at position 7)"),
    ],
)
def test_residue_errors_point_at_the_entry(text, offset, message):
    with pytest.raises(ParseError) as err:
        parse_residues(text, 4, offset)
    assert str(err.value) == message


def test_gsg_residue_error_points_at_the_entry():
    with pytest.raises(ParseError) as err:
        parse_gsg("x=(0,a,1); tau=(1)(2)(3)", 2, 3)
    assert str(err.value) == "bad residue list: '0,a,1' (at position 6)"


def test_parsed_permutation_is_an_ordinary_permutation():
    # Cycle notation, in any order, and one-line notation.
    plain = Permutation((4, 2, 3, 5, 1))
    for text in ("(5 1 4)", "(1 4 5)(2)", " 4, 2,3,5 ,1 "):
        parsed = parse_permutation(text, 5)
        assert parsed == plain and hash(parsed) == hash(plain)
        assert repr(parsed) == repr(plain)
        assert pickle.dumps(parsed) == pickle.dumps(plain)
        assert pickle.loads(pickle.dumps(parsed)) == plain
        assert stanley_hat(parsed) == stanley_hat(plain) == (2, 3, 5, 1, 4)


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
