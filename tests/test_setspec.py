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
from limitgames.setspec import SetSpecError, format_set, parse

from test_algebra import periodic_sets


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
    assert parse(format_set(s)) == s
