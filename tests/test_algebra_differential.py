"""The residue-arithmetic algebra against its pointwise reference forms.

Every operation must return exactly the fields the pointwise forms in
``pointwise_algebra`` return, so equality, hashing, printed expressions and
trace bytes cannot change.  The scaling tests use answers whose windows are
wide but sparsely listed; a width-proportional implementation would take
minutes on them instead of milliseconds.
"""

import dataclasses
import itertools
import random
from bisect import bisect_right
from math import lcm

import pytest

import pointwise_algebra as ref
from limitgames.algebra import (
    PeriodicSet,
    _first_diff,
    _minimal_rule,
    _settle,
    _violation,
    all_integers,
    even_nonnegatives,
    naturals,
    negative_integers,
    odd_positives,
    q_set,
    y_set,
)
from limitgames.families import diagonal_trap_collections
from limitgames.fuzz import random_set
from limitgames.setspec import format_set, parse


def fields(s: PeriodicSet) -> tuple:
    """The listed form's fields (tails, bounds and the window's members in
    increasing order), then the stored halves, as ``ref.canonicalize``
    returns them."""
    return (
        s.neg_period,
        s.neg_residues,
        s.lo,
        s.hi,
        s.window,
        s.pos_period,
        s.pos_residues,
        s.neg_rule,
        s.neg_exceptions,
        s.pos_rule,
        s.pos_exceptions,
    )


def assert_ops_match(a: PeriodicSet, b: PeriodicSet) -> None:
    assert fields(a | b) == ref.union(a, b), (a, b)
    assert fields(a & b) == ref.intersection(a, b), (a, b)
    assert fields(a - b) == ref.difference(a, b), (a, b)
    assert fields(a.complement()) == ref.complement(a), a


def widened(s: PeriodicSet, left: int, right: int, neg_factor: int, pos_factor: int):
    """A non-canonical description of ``s``: a wider window, longer periods."""
    lo, hi = s.lo - left, s.hi + right
    np_, pp = s.neg_period * neg_factor, s.pos_period * pos_factor
    return (
        np_,
        frozenset(r for r in range(np_) if r % s.neg_period in s.neg_residues),
        lo,
        hi,
        frozenset(x for x in range(lo, hi + 1) if x in s),
        pp,
        frozenset(r for r in range(pp) if r % s.pos_period in s.pos_residues),
    )


def assert_build_matches(s: PeriodicSet, *widening: int) -> None:
    desc = widened(s, *widening)
    built = PeriodicSet.build(*desc)
    assert fields(built) == ref.canonicalize(*desc) == fields(s), (s, widening)


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_triples_match_pointwise_forms(seed):
    rng = random.Random(seed)
    for _ in range(150):
        a, b, c = random_set(rng), random_set(rng), random_set(rng)
        assert_ops_match(a, b)
        assert_ops_match(b, c)
        assert_ops_match(a | b, c)
        assert_build_matches(
            a, rng.randint(0, 20), rng.randint(0, 20), rng.randint(1, 3), rng.randint(1, 3)
        )


def test_arbitrary_descriptions_match_pointwise_canonicalize():
    rng = random.Random(99)
    for _ in range(500):
        np_, pp = rng.randint(1, 9), rng.randint(1, 9)
        lo = rng.randint(-40, 40)
        hi = rng.randint(lo, 50)
        desc = (
            np_,
            frozenset(r for r in range(np_) if rng.random() < 0.5),
            lo,
            hi,
            frozenset(x for x in range(lo, hi + 1) if rng.random() < 0.5),
            pp,
            frozenset(r for r in range(pp) if rng.random() < 0.5),
        )
        assert fields(PeriodicSet.build(*desc)) == ref.canonicalize(*desc), desc


def test_minimal_rule_matches_pointwise_form():
    # Every residue set of the small periods, then rules lifted from a
    # random one to a multiple of its period (minimal or not).
    for period in range(1, 13):
        for bits in range(1 << period):
            residues = frozenset(r for r in range(period) if bits >> r & 1)
            assert _minimal_rule(period, residues) == ref.minimal_rule(period, residues)
    rng = random.Random(5)
    for _ in range(3000):
        base = rng.randint(1, 40)
        period = base * rng.randint(1, 1200 // base)
        residues = frozenset(r for r in range(base) if rng.random() < 0.5)
        lifted = frozenset(r + k for k in range(0, period, base) for r in residues)
        assert _minimal_rule(period, lifted) == ref.minimal_rule(period, lifted)


def random_rule(rng: random.Random) -> tuple[int, frozenset[int]]:
    base = rng.randint(1, 4)
    residues = [r for r in range(base) if rng.random() < 0.5]
    period = base * rng.randint(1, 3)
    return period, frozenset(r + k for k in range(0, period, base) for r in residues)


def random_description(rng: random.Random) -> tuple:
    """A piecewise description as ``_settle`` takes it: 1 to 4 cuts, a rule
    per piece, and listed points on both sides of the inner cuts."""
    cuts = sorted(rng.sample(range(-30, 31), rng.randint(1, 4)))
    neg, pos = random_rule(rng), random_rule(rng)
    choices = [neg, pos, ref.minimal_rule(*neg), ref.minimal_rule(*pos), (1, frozenset({0}))]
    inner = [
        rng.choice(choices) if rng.random() < 0.6 else random_rule(rng)
        for _ in range(len(cuts) - 1)
    ]
    near = [x for c in cuts for x in range(c - 3, c + 3) if rng.random() < 0.3]
    spread = rng.sample(range(-30, 31), rng.randint(0, 4))
    points = sorted(x for x in set(near + spread) if cuts[0] <= x < cuts[-1])
    inside = frozenset(x for x in points if rng.random() < 0.5)
    return cuts, [neg, *inner, pos], points, inside


def phase(found, points: list[int], step: int) -> str:
    """The phase of ``_violation`` that returns ``found``."""
    if found is None:
        return "none"
    if found in points:
        return "points"
    if not points or (found - (points[0] if step == 1 else points[-1])) * step < 0:
        return "beyond"
    return "within"


def test_settle_matches_pointwise_canonicalize():
    rng = random.Random(17)
    reached = set()
    for _ in range(2000):
        cuts, rules, points, inside = random_description(rng)

        def member(x: int) -> bool:
            if x in points:
                return x in inside
            period, residues = rules[bisect_right(cuts, x)]
            return x % period in residues

        # One cut leaves no middle piece; then [c, c] follows the last rule.
        lo, hi = cuts[0], max(cuts[0], cuts[-1] - 1)
        window = frozenset(x for x in range(lo, hi + 1) if member(x))
        expected = ref.canonicalize(*rules[0], lo, hi, window, *rules[-1])
        got = _settle(cuts, rules, points, inside)
        assert fields(got) == expected, (cuts, rules, points, inside)
        for step, tail in ((1, rules[0]), (-1, rules[-1])):
            found = _violation(cuts, rules, points, inside, _minimal_rule(*tail), step)
            reached.add((step, phase(found, points, step)))
    kinds = ("none", "beyond", "points", "within")
    assert reached == set(itertools.product((1, -1), kinds))


def test_first_diff_matches_pointwise_scan():
    # The skip list holds a run of the first disagreements, up to all of
    # those in three periods, and random points; the answer then lies in the
    # first period, in a later one past skipped points, past ``stop``, or
    # nowhere (the two rules agree).
    rng = random.Random(29)
    reached = set()
    for _ in range(3000):
        rule, tail = random_rule(rng), random_rule(rng)
        start, step = rng.randint(-20, 20), rng.choice((1, -1))
        period = lcm(rule[0], tail[0])
        stop = None if rng.random() < 0.4 else start + step * rng.randint(-2, 4 * period)
        ahead = [start + step * d for d in range(4 * period)]
        diffs = [x for x in ahead if (x % rule[0] in rule[1]) != (x % tail[0] in tail[1])]
        first = diffs[: rng.randint(0, len(diffs))]
        noise = [x for x in ahead[: 3 * period] if rng.random() < 0.1]
        skip = sorted({*first, *noise} & set(ahead[: 3 * period]))
        within = [x for x in diffs if x not in skip and (stop is None or (x - stop) * step <= 0)]
        expected = within[0] if within else None
        assert _first_diff(start, stop, step, rule, tail, skip) == expected
        if expected is None:
            reached.add("none" if not diffs else "stopped")
        else:
            reached.add("first" if (expected - start) * step < period else "later")
    assert reached == {"none", "stopped", "first", "later"}


def wide_operands(n: int, k: int) -> list[PeriodicSet]:
    return [
        q_set(n),
        y_set(n),
        PeriodicSet.finite({0, n}),
        PeriodicSet.finite({0, -n}),
        PeriodicSet.ray(n, k),
        PeriodicSet.ray(-n, k),
        PeriodicSet.ray(n, -k),
        PeriodicSet.ray(-n, -k),
    ]


NAMED = [all_integers(), odd_positives(), even_nonnegatives(), negative_integers()]


def test_wide_sparse_operands_match_pointwise_forms():
    # Every pair at a moderate width, where the fuzzer never reaches.
    small = wide_operands(1000, 3) + NAMED
    for a in small:
        for b in small:
            assert_ops_match(a, b)


def test_widest_operands_match_pointwise_forms():
    # The pointwise forms take about a tenth of a second per operation here.
    big = wide_operands(100_000, 3)
    for a, b in zip(big, big[1:] + big[:1]):
        assert_ops_match(a, b)
    assert_build_matches(q_set(100_000), 3, 5, 2, 1)
    assert_build_matches(PeriodicSet.ray(-100_000, -3), 7, 2, 1, 3)


ABSENT, PRESENT = (1, frozenset()), (1, frozenset({0}))


def test_scaling_q_set():
    assert fields(q_set(10**9)) == (
        1, frozenset({0}), -999_999_999, -1, (), 2, frozenset({1}),
        ABSENT, (), ABSENT, (),
    )


def stored(s: PeriodicSet) -> tuple:
    return tuple(getattr(s, f.name) for f in dataclasses.fields(s))


def test_scaling_sets_are_stored_without_a_listing(monkeypatch):
    # Each of these windows holds about 10**9 members, so listing one would
    # not finish; reading ``window`` fails the test instead.
    def no_listing(self):
        raise AssertionError("window listed")

    monkeypatch.setattr(PeriodicSet, "window", property(no_listing))
    n = 10**9
    y_fields = (1, frozenset(), -n, -1, PRESENT, (), ABSENT, (), 2, frozenset({0}))
    for y in (y_set(n), parse("Y(-1000000000)")):
        assert stored(y) == y_fields
        assert [x in y for x in (-n - 1, -n, -1, 0, 1, 2)] == [
            False, True, True, True, False, True,
        ]
        assert y.cardinality().is_infinite
    assert (y_set(n) - even_nonnegatives()).cardinality().count == n

    true_coll, harm_coll = diagonal_trap_collections()
    hole = 2 * (5 * 10**8 - 1)
    true_lang, harm_lang = true_coll.at(5 * 10**8), harm_coll.at(5 * 10**8)
    assert stored(true_lang) == (
        1, frozenset(), 0, hole, PRESENT, (), (2, frozenset({0})), (hole,), 2, frozenset({0}),
    )
    assert [x in true_lang for x in (-1, 0, 1, hole - 2, hole, hole + 1, hole + 2)] == [
        False, True, False, True, False, False, True,
    ]
    assert stored(harm_lang) == (
        1, frozenset(), 0, hole, PRESENT, (), PRESENT, (), 2, frozenset({1}),
    )
    assert [x in harm_lang for x in (-1, 0, hole - 1, hole, hole + 1, hole + 2)] == [
        False, True, True, True, True, False,
    ]
    assert true_lang.cardinality().is_infinite and harm_lang.cardinality().is_infinite
    assert (harm_lang - PeriodicSet.ray(hole + 1, 1)).cardinality().count == hole + 1


def test_one_membership_along_different_paths():
    # The diagonal trap's languages at index i, built along other operation
    # sequences and through the printed form, compare and hash equal, so any
    # memo keyed by sets finds them.
    true_coll, harm_coll = diagonal_trap_collections()
    evens = even_nonnegatives()
    for i in (2, 3, 50):
        hole = 2 * (i - 1)
        harm = naturals() - PeriodicSet.ray(hole + 2, 2)
        assert harm_coll.at(i) == harm and hash(harm_coll.at(i)) == hash(harm)
        diagonal = true_coll.at(i)
        paths = [
            evens - PeriodicSet.finite({hole}),
            (evens | PeriodicSet.finite({hole})) - PeriodicSet.finite({hole}),
            evens & PeriodicSet.finite({hole}).complement(),
            PeriodicSet.build(1, (), 0, hole, range(0, hole, 2), 2, {0}),
            parse(format_set(diagonal)),
        ]
        for other in paths:
            assert other == diagonal and hash(other) == hash(diagonal)
            assert fields(other) == fields(diagonal)


def test_scaling_finite_pair():
    assert fields(parse("Fin{0,1000000000}")) == (
        1, frozenset(), 0, 10**9, (0, 10**9), 1, frozenset(),
        PRESENT, (), ABSENT, (10**9,),
    )


def test_scaling_far_rays():
    assert fields(parse("Ray(-1000000000,-1) | Ray(1000000000,1)")) == (
        1, frozenset({0}), -999_999_999, 999_999_999, (), 1, frozenset({0}),
        ABSENT, (), ABSENT, (),
    )


def test_scaling_difference():
    result = q_set(10**9) - negative_integers()
    assert fields(result) == (
        1, frozenset(), 0, 0, (), 2, frozenset({1}), ABSENT, (), ABSENT, (),
    )
    assert result == odd_positives()


def assert_mask_matches(s: PeriodicSet, start: int, count: int) -> None:
    assert s.rank_mask_block(start, count) == ref.rank_mask_block(s, start, count), (
        s, start, count,
    )


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_masks_match_pointwise_form(seed):
    rng = random.Random(seed)
    for _ in range(150):
        a, b = random_set(rng), random_set(rng)
        for s in (a, a | b, a - b, a.complement()):
            assert_mask_matches(s, 1, 300)
            assert_mask_matches(s, rng.randint(1, 300), rng.randint(0, 300))
            assert_mask_matches(s, rng.randint(1, 300), 0)


def test_wide_operand_masks_match_pointwise_form():
    n = 10**9
    for s in wide_operands(1000, 3) + NAMED:
        for start, count in ((1, 4100), (1990, 25), (2001, 0), (3997, 9)):
            assert_mask_matches(s, start, count)
    for s in (PeriodicSet.ray(n, 1), parse("Fin{0,1000000000}"), q_set(n)):
        # Ranks 1 to 64 and the ranks around +-n, where each operand changes.
        for start, count in ((1, 64), (2 * n - 6, 16), (2 * n + 1, 0)):
            assert_mask_matches(s, start, count)
