import random

import pytest
from hypothesis import given, settings

from limitgames.algebra import (
    PeriodicSet,
    all_integers,
    even_nonnegatives,
    negative_integers,
    odd_positives,
    q_set,
    y_set,
)
from limitgames.fuzz import random_set
from limitgames.setspec import SetSpecError, _parse_printed, _Parser, format_set, parse

from test_algebra import periodic_sets
from test_algebra_differential import NAMED, wide_operands


def test_atoms():
    assert parse("I") == all_integers()
    assert parse("O") == odd_positives()
    assert parse("E") == even_nonnegatives()
    assert parse("N") == negative_integers()
    assert parse("Y(0)") == y_set(0)
    assert parse("Y(-4)") == y_set(4)
    assert parse("Q(-1)") == q_set(1)
    assert parse("Ray(3, -2)") == PeriodicSet.ray(3, -2)
    assert parse("Fin{1, -5, 7}") == PeriodicSet.finite({1, -5, 7})
    assert parse("Fin{}") == PeriodicSet.empty()


def test_operators_and_precedence():
    # Intersection binds tighter than union and difference.
    assert parse("O | E & N") == odd_positives() | (even_nonnegatives() & negative_integers())
    assert parse("(O | E) & I") == odd_positives() | even_nonnegatives()
    assert parse("I \\ Y(0)") == q_set(1)
    # Union and difference associate left to right.
    assert parse("I \\ O | E") == (all_integers() - odd_positives()) | even_nonnegatives()


def test_whitespace_insensitive():
    assert parse(" Q( -2 ) |  Fin{ 0 } ") == q_set(2) | PeriodicSet.finite({0})


@pytest.mark.parametrize(
    "text",
    [
        "Y(",
        "Y(1)",
        "Q(0)",
        "Ray(1, 0)",
        "Fin{1 2}",
        "Fin{1,}",
        "Fin{,}",
        "Fin{a}",
        "Fin{1,(2)}",
        "Fin",
        "O |",
        "(O | E",
        "O ) E",
        "Zebra",
        "O E",
        "",
    ],
)
def test_malformed_expressions(text):
    with pytest.raises(SetSpecError):
        parse(text)


def test_malformed_fin_list_names_its_position():
    with pytest.raises(SetSpecError, match="Fin list at position 4"):
        parse("O | Fin{1,x} | E")


def test_format_examples():
    assert format_set(PeriodicSet.empty()) == "Fin{}"
    assert parse(format_set(odd_positives())) == odd_positives()
    assert parse(format_set(q_set(3))) == q_set(3)


@settings(max_examples=150, deadline=None)
@given(periodic_sets)
def test_roundtrip(s):
    # Through the printed-form path that ``parse`` takes, and the grammar.
    text = format_set(s)
    assert _parse_printed(text) == s
    assert _Parser(text).parse() == s


# ----------------------------------------------------------------------
# The printed-form path of ``parse``
# ----------------------------------------------------------------------


def test_printed_path_reads_fuzz_and_wide_sets():
    rng = random.Random(7)
    sets = [random_set(rng) for _ in range(2000)]
    sets += wide_operands(1000, 3) + wide_operands(100_000, 3) + NAMED
    for s in sets:
        assert _parse_printed(format_set(s)) == s, s


def grammar(text):
    """What the general parser makes of ``text``: a set or an error message."""
    try:
        return _Parser(text).parse()
    except SetSpecError as exc:
        return str(exc)


def assert_path_agrees(text):
    printed = _parse_printed(text)
    expected = grammar(text)
    assert printed is None or printed == expected, text
    try:
        assert parse(text) == expected, text
    except SetSpecError as exc:
        assert str(exc) == expected, text


@pytest.mark.parametrize(
    "text",
    [
        # rays out of order
        "Ray(3,1) | Ray(-1,-1)",
        "Ray(3,2) | Fin{0} | Ray(-2,-2)",
        "Fin{0} | Ray(-1,-1)",
        "Ray(5,1) | Fin{0}",
        "Ray(-2,-2) | Ray(-1,-2) | Fin{0}",
        # mixed periods
        "Ray(-1,-2) | Ray(-2,-3)",
        "Ray(4,2) | Ray(5,3)",
        # repeated residues
        "Ray(-1,-2) | Ray(-3,-2)",
        "Ray(4,2) | Ray(4,2)",
        # ray starts more than a period apart
        "Ray(-1,-2) | Ray(-10,-2)",
        "Fin{0} | Ray(4,3) | Ray(20,3)",
        "Ray(0,-2) | Ray(1001,-2)",
        # Fin points outside the cuts, and cuts out of order
        "Ray(-1,-1) | Fin{-1,0}",
        "Fin{0,5} | Ray(5,1)",
        "Fin{0,7} | Ray(5,1)",
        "Ray(2,-1) | Ray(1,1)",
        "Ray(0,-1) | Ray(1,1)",
        # empty and repeated Fin lists
        "Ray(-1,-1) | Fin{} | Ray(1,1)",
        "Fin{} | Ray(1,1)",
        "Fin{}",
        "Fin{1} | Fin{2}",
        "Fin{3,1,3}",
        # leading zeros and -0
        "Fin{-0,007} | Ray(08,2)",
        "Ray(-01,-1) | Fin{00}",
        "Fin{-0}",
        # extra spaces
        "Ray(-1, -1) | Fin{0}",
        "Fin{ 1, 2 } | Ray(4,2)",
        "Fin{1}  |  Ray(4,2)",
        " Fin{1}",
        "Fin{1} ",
        "Fin {1}",
        "Fin{ }",
        # malformed
        "Fin{1,} | Ray(4,2)",
        "Fin{+1}",
        "Fin{1_0}",
        # JSON values that are not integers
        "Fin{1.0}",
        "Fin{true}",
        "Fin{1e3}",
        "Fin{NaN}",
        "Fin{" + "[" * 100000 + "}",
        "Fin{1}} | Ray(4,2)",
        "Fin{1|2}",
        "Ray(0,0)",
        "Ray(+1,2)",
        "Ray(1,2) |",
        "Ray(1,2) | Ray(3,2) | E",
        "Ray(" + "9" * 5000 + ",1)",
    ],
)
def test_printed_path_near_misses_match_the_grammar(text):
    assert_path_agrees(text)


def test_printed_path_mutations_match_the_grammar():
    # Edits of printed forms: shuffled, dropped and added parts, and
    # characters inserted or deleted.
    rng = random.Random(3)
    for _ in range(2000):
        parts = format_set(random_set(rng)).split(" | ")
        edit = rng.randrange(5)
        if edit == 0:
            rng.shuffle(parts)
        elif edit == 1 and len(parts) > 1:
            parts.pop(rng.randrange(len(parts)))
        elif edit == 2:
            step = rng.choice([-4, -3, -2, -1, 1, 2, 3, 4])
            parts.insert(rng.randrange(len(parts) + 1), f"Ray({rng.randint(-70, 70)},{step})")
        elif edit == 3:
            points = ",".join(str(rng.randint(-70, 70)) for _ in range(rng.randint(0, 3)))
            parts.insert(rng.randrange(len(parts) + 1), "Fin{" + points + "}")
        text = " | ".join(parts)
        if edit == 4:
            i = rng.randrange(len(text) + 1)
            if rng.random() < 0.5:
                text = text[:i] + rng.choice("0-, +_{}()|") + text[i:]
            else:
                text = text[:i] + text[i + 1 :]
        assert_path_agrees(text)

