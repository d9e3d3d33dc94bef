import os
import random
import subprocess
import sys
import time
from functools import reduce
from operator import or_

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitgames.algebra import (
    LimitError,
    PeriodicSet,
    all_integers,
    even_nonnegatives,
    negative_integers,
    odd_positives,
    q_set,
    y_set,
)
from limitgames.fuzz import random_set
from limitgames.setspec import SetSpecError, format_set, parse

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
    assert parse(format_set(s)) == s


# ----------------------------------------------------------------------
# The printed form, and near misses of it
# ----------------------------------------------------------------------


def test_printed_path_reads_fuzz_and_wide_sets():
    rng = random.Random(7)
    sets = [random_set(rng) for _ in range(2000)]
    sets += wide_operands(1000, 3) + wide_operands(100_000, 3) + NAMED
    for s in sets:
        assert parse(format_set(s)) == s, s


_WIDE_TAIL_SCRIPT = """
import random, resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from limitgames.algebra import PeriodicSet
from limitgames.setspec import format_set, parse
rng = random.Random(1)
p = 1 << 16
s = PeriodicSet.build(p, rng.sample(range(p), p // 2), -5, 7, [-3, 0, 2], p, rng.sample(range(p), p // 2))
text = format_set(s)
start = time.perf_counter()
assert parse(text) == s
print(text.count("Ray("), s.neg_period, s.pos_period, time.perf_counter() - start)
"""


def test_wide_printed_tails_read_in_bounded_time_and_memory():
    """A printed set with 32768 rays per direction, of period 2^16, settles
    over one cut per direction: within 5 s and a 1 GB address space."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, "-c", _WIDE_TAIL_SCRIPT],
        capture_output=True, text=True, timeout=60, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    rays, neg_period, pos_period, seconds = proc.stdout.split()
    assert (int(rays), int(neg_period), int(pos_period)) == (1 << 16, 1 << 16, 1 << 16)
    assert float(seconds) < 5.0


@pytest.mark.parametrize("text", ["Fin{" * 100_000, "Fin{" * 100_000 + "}", "Fin{1," * 100_000 + "}"])
def test_unclosed_fin_lists_lex_in_linear_time(text):
    start = time.perf_counter()
    with pytest.raises(SetSpecError, match="malformed Fin list at position 0"):
        parse(text)
    assert time.perf_counter() - start < 5.0


HUGE = "9" * 5000

# Each text's outcome, as the grammar read it when the printed form had a
# parser of its own: the set, as ``format_set`` prints it, or the message of
# the SetSpecError.  The two Fin lists with leading zeros, which ``int`` read
# and JSON refuses, are now malformed.
NEAR_MISSES = {
    # rays out of order
    "Ray(3,1) | Ray(-1,-1)": "Ray(-1,-1) | Ray(3,1)",
    "Ray(3,2) | Fin{0} | Ray(-2,-2)": "Ray(0,-2) | Ray(3,2)",
    "Fin{0} | Ray(-1,-1)": "Ray(-1,-1) | Fin{0}",
    "Ray(5,1) | Fin{0}": "Fin{0} | Ray(5,1)",
    "Ray(-2,-2) | Ray(-1,-2) | Fin{0}": "Ray(-1,-1) | Fin{0}",
    # mixed periods
    "Ray(-1,-2) | Ray(-2,-3)": "Ray(-5,-6) | Ray(-3,-6) | Ray(-2,-6) | Ray(-1,-6)",
    "Ray(4,2) | Ray(5,3)": "Ray(6,6) | Ray(8,6) | Ray(4,6) | Ray(5,6)",
    # repeated residues
    "Ray(-1,-2) | Ray(-3,-2)": "Ray(-1,-2)",
    "Ray(4,2) | Ray(4,2)": "Ray(4,2)",
    # ray starts more than a period apart
    "Ray(-1,-2) | Ray(-10,-2)": "Ray(-9,-1) | Fin{-7,-5,-3,-1}",
    "Fin{0} | Ray(4,3) | Ray(20,3)": "Fin{0,4,7,10,13,16} | Ray(19,3) | Ray(20,3)",
    "Ray(0,-2) | Ray(1001,-2)": "Ray(1,-1) | Fin{" + ",".join(map(str, range(3, 1002, 2))) + "}",
    # Fin points outside the cuts, and cuts out of order
    "Ray(-1,-1) | Fin{-1,0}": "Ray(-1,-1) | Fin{0}",
    "Fin{0,5} | Ray(5,1)": "Fin{0} | Ray(5,1)",
    "Fin{0,7} | Ray(5,1)": "Fin{0} | Ray(5,1)",
    "Ray(2,-1) | Ray(1,1)": "Ray(-1,-1) | Fin{0} | Ray(1,1)",
    "Ray(0,-1) | Ray(1,1)": "Ray(-1,-1) | Fin{0} | Ray(1,1)",
    # empty and repeated Fin lists
    "Ray(-1,-1) | Fin{} | Ray(1,1)": "Ray(-1,-1) | Ray(1,1)",
    "Fin{} | Ray(1,1)": "Ray(1,1)",
    "Fin{}": "Fin{}",
    "Fin{1} | Fin{2}": "Fin{1,2}",
    "Fin{3,1,3}": "Fin{1,3}",
    # leading zeros and -0
    "Fin{-0,007} | Ray(08,2)": SetSpecError("malformed Fin list at position 0"),
    "Ray(-01,-1) | Fin{00}": SetSpecError("malformed Fin list at position 14"),
    "Fin{-0}": "Fin{0}",
    # extra spaces
    "Ray(-1, -1) | Fin{0}": "Ray(-1,-1) | Fin{0}",
    "Fin{ 1, 2 } | Ray(4,2)": "Fin{1} | Ray(2,2)",
    "Fin{1}  |  Ray(4,2)": "Fin{1} | Ray(4,2)",
    " Fin{1}": "Fin{1}",
    "Fin{1} ": "Fin{1}",
    "Fin {1}": "Fin{1}",
    "Fin{ }": "Fin{}",
    # malformed
    "Fin{1,} | Ray(4,2)": SetSpecError("malformed Fin list at position 0"),
    "Fin{+1}": SetSpecError("unexpected character at position 4: '+'"),
    "Fin{1_0}": SetSpecError("unexpected character at position 5: '_'"),
    # JSON values that are not integers
    "Fin{1.0}": SetSpecError("unexpected character at position 5: '.'"),
    "Fin{true}": SetSpecError("malformed Fin list at position 0"),
    "Fin{1e3}": SetSpecError("malformed Fin list at position 0"),
    "Fin{NaN}": SetSpecError("malformed Fin list at position 0"),
    "Fin{" + "[" * 100000 + "}": SetSpecError("unexpected character at position 4: '['"),
    "Fin{1}} | Ray(4,2)": SetSpecError("trailing input at position 6: '}'"),
    "Fin{1|2}": SetSpecError("malformed Fin list at position 0"),
    "Ray(0,0)": SetSpecError("Ray step must be nonzero"),
    "Ray(+1,2)": SetSpecError("unexpected character at position 4: '+'"),
    "Ray(1,2) |": SetSpecError("unexpected end of expression: 'Ray(1,2) |'"),
    "Ray(1,2) | Ray(3,2) | E": "Fin{0} | Ray(1,1)",
    # Past the 4300-digit limit of ``int``, where the Python version has one.
    "Ray(" + HUGE + ",1)": (
        SetSpecError(f"expected an integer, got {HUGE!r}")
        if hasattr(sys, "set_int_max_str_digits")
        else f"Ray({HUGE},1)"
    ),
}


@pytest.mark.parametrize("text", list(NEAR_MISSES))
def test_printed_path_near_misses_match_the_grammar(text):
    expected = NEAR_MISSES[text]
    if isinstance(expected, SetSpecError):
        with pytest.raises(SetSpecError) as info:
            parse(text)
        assert str(info.value) == str(expected)
    else:
        assert format_set(parse(text)) == expected


def test_printed_path_mutations_match_the_grammar():
    # Edits of printed forms: shuffled, dropped and added parts, and
    # characters inserted or deleted.  Each edited text is malformed, or
    # denotes the union of its parts, each read on its own.
    rng = random.Random(3)
    read = 0
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
        try:
            result = parse(text)
        except SetSpecError:
            continue
        assert result == reduce(or_, map(parse, text.split(" | "))), text
        read += 1
    # Most edits leave a well-formed text (1723 of these 2000).
    assert read > 1500


# ----------------------------------------------------------------------
# Each | run of Ray and Fin atoms is settled once
# ----------------------------------------------------------------------
#
# An expression is drawn as (text, level, fold): its text, how loosely it
# binds (1 for | and \, 2 for &, 3 for an atom or a parenthesized
# expression) and a function that builds its set through the PeriodicSet
# operators, one operation at a time.

STEPS = [-6, -4, -3, -2, -1, 1, 2, 3, 4, 6]


def _at_least(expr, level):
    text, own, fold = expr
    return text if own >= level else f"({text})"


def _ray(start, step, spaced):
    text = f"Ray({start}, {step})" if spaced else f"Ray({start},{step})"
    return text, 3, lambda: PeriodicSet.ray(start, step)


def _fin(points):
    return "Fin{" + ",".join(map(str, points)) + "}", 3, lambda: PeriodicSet.finite(points)


ray_atoms = st.builds(_ray, st.integers(-30, 30), st.sampled_from(STEPS), st.booleans())
fin_atoms = st.lists(st.integers(-40, 40), max_size=6).map(_fin)
named_atoms = st.sampled_from(
    [
        ("I", 3, all_integers),
        ("O", 3, odd_positives),
        ("E", 3, even_nonnegatives),
        ("N", 3, negative_integers),
    ]
)
y_atoms = st.integers(0, 5).map(lambda a: (f"Y({-a})", 3, lambda: y_set(a)))
q_atoms = st.integers(1, 5).map(lambda b: (f"Q({-b})", 3, lambda: q_set(b)))
atoms = st.one_of(ray_atoms, ray_atoms, fin_atoms, named_atoms, y_atoms, q_atoms)


def _run(exprs):
    # A | run: the first operand may bind loosely, the others are terms.
    texts = [_at_least(exprs[0], 1), *(_at_least(e, 2) for e in exprs[1:])]
    folds = [fold for _, _, fold in exprs]
    return " | ".join(texts), 1, lambda: reduce(or_, (fold() for fold in folds))


def _difference(a, b):
    return f"{_at_least(a, 1)} \\ {_at_least(b, 2)}", 1, lambda: a[2]() - b[2]()


def _intersection(a, b):
    return f"{_at_least(a, 2)} & {_at_least(b, 2)}", 2, lambda: a[2]() & b[2]()


def _parenthesized(a):
    return f"({a[0]})", 3, a[2]


# Long runs of overlapping rays, in both directions and of mixed periods,
# with Fin points inside and outside them.
ray_runs = st.lists(st.one_of(ray_atoms, ray_atoms, ray_atoms, fin_atoms), min_size=2, max_size=12).map(_run)

expressions = st.recursive(
    st.one_of(atoms, ray_runs),
    lambda children: st.one_of(
        st.lists(children, min_size=2, max_size=8).map(_run),
        st.tuples(children, children).map(lambda ab: _difference(*ab)),
        st.tuples(children, children).map(lambda ab: _intersection(*ab)),
        children.map(_parenthesized),
    ),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(expressions)
def test_runs_settled_once_match_the_operator_fold(expr):
    text, _, fold = expr
    try:
        expected = fold()
    except LimitError:
        expected = None
    try:
        got = parse(text)
    except SetSpecError:
        got = None
    assert (got is None) == (expected is None), text
    if got is not None:
        assert vars(got) == vars(expected), text
