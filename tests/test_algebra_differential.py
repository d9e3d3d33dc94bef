"""The residue-arithmetic algebra against its pointwise reference forms.

Every operation must return exactly the fields the pointwise forms in
``pointwise_algebra`` return, so equality, hashing, printed expressions and
trace bytes cannot change.  The scaling tests use answers whose windows are
wide but sparsely listed; a width-proportional implementation would take
minutes on them instead of milliseconds.
"""

import random

import pytest

import pointwise_algebra as ref
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
from limitgames.setspec import parse


def fields(s: PeriodicSet) -> tuple:
    return (
        s.neg_period,
        s.neg_residues,
        s.lo,
        s.hi,
        s.window,
        s.pos_period,
        s.pos_residues,
    )


def assert_ops_match(a: PeriodicSet, b: PeriodicSet) -> None:
    assert fields(a | b) == fields(ref.union(a, b)), (a, b)
    assert fields(a & b) == fields(ref.intersection(a, b)), (a, b)
    assert fields(a - b) == fields(ref.difference(a, b)), (a, b)
    assert fields(a.complement()) == fields(ref.complement(a)), a


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
    assert fields(built) == fields(ref.canonicalize(*desc)) == fields(s), (s, widening)


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
        assert fields(PeriodicSet.build(*desc)) == fields(ref.canonicalize(*desc)), desc


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


def test_scaling_q_set():
    assert fields(q_set(10**9)) == (
        1, frozenset({0}), -999_999_999, -1, frozenset(), 2, frozenset({1}),
    )


def test_scaling_finite_pair():
    assert fields(parse("Fin{0,1000000000}")) == (
        1, frozenset(), 0, 10**9, frozenset({0, 10**9}), 1, frozenset(),
    )


def test_scaling_far_rays():
    assert fields(parse("Ray(-1000000000,-1) | Ray(1000000000,1)")) == (
        1, frozenset({0}), -999_999_999, 999_999_999, frozenset(), 1, frozenset({0}),
    )


def test_scaling_difference():
    result = q_set(10**9) - negative_integers()
    assert fields(result) == (1, frozenset(), 0, 0, frozenset(), 2, frozenset({1}))
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
