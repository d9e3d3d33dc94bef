import itertools

import pytest

from limitgames.adversaries import FairInterleaver
from limitgames.algebra import (
    MAX_RANK,
    LimitError,
    PeriodicSet,
    all_integers,
    even_nonnegatives,
    negative_integers,
    odd_positives,
    q_set,
    universe_elem,
    y_set,
)
from limitgames.families import LabeledExample, LanguageCollection, RevealedSet
from limitgames.learners import (
    AlwaysBottom,
    ConservativePairGenerator,
    EagerIdentifier,
    LearnerOutput,
    StubbornIdentifier,
    conservative_pair_generate,
    identify_with_probes,
    is_critical,
    naive_identify,
    order_consistent,
    reference_safe_generate,
    subset_probe,
    telltale_safe_generate,
)

I, O, E, N = all_integers(), odd_positives(), even_nonnegatives(), negative_integers()


def revealed(pos=(), neg=()):
    r = RevealedSet()
    for x in pos:
        r.add(LabeledExample(x, 1))
    for x in neg:
        r.add(LabeledExample(x, 0))
    return r


def coll(*sets, **kw):
    return LanguageCollection.explicit("t", list(sets), **kw)


# ----------------------------------------------------------------------
# criticality
# ----------------------------------------------------------------------


def test_is_critical_examples():
    c = coll(I, E)
    r = revealed(pos=[0, 2])
    for m in range(1, 17):
        assert is_critical(c, r, 2, 2, m)
    assert is_critical(c, r, 1, 2, 5)  # first consistent candidate is vacuous
    c2 = coll(O, E)
    assert not is_critical(c2, revealed(), 2, 2, 2)  # prefix {0} vs {1}


def test_critical_generate_examples():
    out = conservative_pair_generate(coll(I, E), None, revealed(pos=[0, 2]), 2)
    assert out == LearnerOutput.generate(4)
    out = conservative_pair_generate(coll(I), None, revealed(pos=[0]), 1)
    assert out == LearnerOutput.generate(1)


def test_critical_generate_fallback_when_nothing_consistent():
    out = conservative_pair_generate(coll(E), None, revealed(pos=[1]), 1)
    assert out == LearnerOutput.generate(universe_elem(1))


def test_critical_generate_never_repeats_seen():
    c = coll(I, O, E, q_set(1), y_set(0))
    adv = FairInterleaver(O)
    r = RevealedSet()
    gen = ConservativePairGenerator(c)
    for t in range(1, 60):
        r.add(adv.emit(t).example)
        out = gen.step(r, t)
        assert out.is_generate and not r.contains(out.value)


def test_critical_class_matches_function():
    c = coll(I, O, E, q_set(1), y_set(0))
    adv = FairInterleaver(O)
    r = RevealedSet()
    gen = ConservativePairGenerator(c)
    for t in range(1, 41):
        r.add(adv.emit(t).example)
        assert gen.step(r, t) == conservative_pair_generate(c, None, r, t)


# ----------------------------------------------------------------------
# smallest-true / largest-harm pairing
# ----------------------------------------------------------------------


def test_conservative_pair_example():
    ct = coll(I, O)
    ch = coll(E)
    out = conservative_pair_generate(ct, ch, revealed(pos=[1], neg=[0]), 2)
    assert out == LearnerOutput.generate(3)


def test_conservative_class_matches_function():
    ct = coll(I, O, q_set(1))
    ch = coll(E, y_set(0))
    adv = FairInterleaver(O, E)
    r = RevealedSet()
    gen = ConservativePairGenerator(ct, ch)
    for t in range(1, 41):
        r.add(adv.emit(t).example)
        assert gen.step(r, t) == conservative_pair_generate(ct, ch, r, t)


def test_conservative_gives_up_on_swallowed_difference():
    # The largest consistent harm candidate swallows the true candidate even
    # though the hidden pair has an infinite difference.
    ct = coll(I)
    ch = coll(y_set(0), I)
    gen = ConservativePairGenerator(ct, ch)
    adv = FairInterleaver(I, y_set(0))
    r = RevealedSet()
    outs = []
    for t in range(1, 11):
        r.add(adv.emit(t).example)
        outs.append(gen.step(r, t))
    assert all(o.is_bottom for o in outs[1:])
    stuck = [rec for rec in gen.choice_log if rec.diff is not None]
    assert stuck and all(rec.diff.is_bounded for rec in stuck)
    assert (I - y_set(0)).cardinality().is_infinite


def test_conservative_relaxed_mode_never_bottoms():
    ct = coll(I)
    ch = coll(y_set(0), I)
    gen = ConservativePairGenerator(ct, ch, strict=False)
    adv = FairInterleaver(I, y_set(0))
    r = RevealedSet()
    for t in range(1, 9):
        r.add(adv.emit(t).example)
        out = gen.step(r, t)
        assert out.is_generate
    assert gen.choice_log[-1].output_kind == "give_up"  # relaxed word stands in


# ----------------------------------------------------------------------
# reference generator
# ----------------------------------------------------------------------


def test_reference_examples():
    assert reference_safe_generate(O, E, revealed()) == LearnerOutput.generate(1)
    assert reference_safe_generate(E, I, revealed()) == LearnerOutput.bottom()
    assert reference_safe_generate(E, I, revealed(), strict=False) == LearnerOutput.generate(0)


def test_reference_skips_seen():
    out = reference_safe_generate(O, E, revealed(pos=[1, 3]))
    assert out == LearnerOutput.generate(5)


# ----------------------------------------------------------------------
# probes and ordering
# ----------------------------------------------------------------------


def test_subset_probe_four_cases():
    r = revealed(pos=[1, 3, 5])
    assert subset_probe(O, I, r) == (0, 1)
    assert subset_probe(I, O, r) == (1, 0)
    assert subset_probe(O, O, r) == (0, 0)
    assert subset_probe(O, E, r) == (1, 1)


def test_subset_probe_bits_are_difference_infiniteness():
    # Each bit reports whether the one-sided difference is infinite, which
    # is exactly what a correct generator can witness.
    langs = [O, E, I, N, y_set(0), y_set(2), q_set(1), q_set(2), N | E]
    r = revealed(pos=[0], neg=[0])
    for a, b in itertools.product(langs, repeat=2):
        bits = subset_probe(a, b, r)
        expected = (
            int((a - b).cardinality().is_infinite),
            int((b - a).cardinality().is_infinite),
        )
        assert bits == expected, (a, b)


def test_subset_probe_matches_exact_classification():
    # On families whose nonempty differences are all infinite, the bit pairs
    # separate subset, superset, equality and incomparability exactly.
    langs = [O, E, I, N, q_set(1), N | E]
    r = revealed(pos=[0], neg=[0])
    for a, b in itertools.product(langs, repeat=2):
        bits = subset_probe(a, b, r)
        if a == b:
            assert bits == (0, 0)
        elif a < b:
            assert bits == (0, 1)
        elif b < a:
            assert bits == (1, 0)
        else:
            assert bits == (1, 1)


def test_subset_probe_finite_difference_reads_as_ungeneratable():
    # E sits properly inside Y(-2) but the gap {-2, -1} is finite, so no
    # correct generator can witness it; both bits come back 0.
    r = revealed(pos=[0], neg=[0])
    assert (y_set(2) - E).cardinality().kind == "finite"
    assert subset_probe(E, y_set(2), r) == (0, 0)


def test_order_consistent_swaps_subset_left():
    r = revealed(pos=[1, 3])
    out = order_consistent([(1, I), (2, O)], r)
    assert [i for i, _ in out] == [2, 1]


def test_order_consistent_equal_sets_keep_index_order():
    r = revealed(pos=[1])
    out = order_consistent([(5, O), (2, O)], r)
    assert [i for i, _ in out] == [2, 5]


def test_order_consistent_invariant_checked_exactly():
    # The output must never place a language left of its proper subset, and
    # equal languages must sit in index order; verified with the exact
    # subset relation, independent of the probe answers.  Candidate pools
    # keep nonempty differences infinite, matching the probing contract.
    r = revealed(pos=[1, 3, 5])
    pools = [
        [(1, I), (2, O), (3, q_set(1)), (4, N | E), (5, O)],
        [(1, O), (2, I), (3, E)],
        [(2, q_set(1)), (4, I), (6, O), (8, q_set(1))],
    ]
    for entries in pools:
        out = order_consistent(entries, r)
        assert sorted(i for i, _ in out) == sorted(i for i, _ in entries)
        for p in range(len(out)):
            for q in range(p + 1, len(out)):
                assert not out[q][1] < out[p][1]
                if out[p][1] == out[q][1]:
                    assert out[p][0] < out[q][0]


# ----------------------------------------------------------------------
# identification
# ----------------------------------------------------------------------


def test_identify_with_probes_prefers_subset():
    c = coll(I, O)
    r = revealed(pos=[1, 3, 5])
    assert identify_with_probes(c, r, 2) == LearnerOutput.index(2)


def test_identify_with_probes_empty_fallback():
    c = coll(E)
    assert identify_with_probes(c, revealed(pos=[1]), 1) == LearnerOutput.index(1)


def test_naive_identify_examples():
    assert naive_identify(coll(I, O), revealed(pos=[1, 3]), 2) == LearnerOutput.index(1)
    assert naive_identify(coll(O, I), revealed(pos=[1]), 2) == LearnerOutput.index(1)
    assert naive_identify(coll(E, O), revealed(pos=[1]), 2) == LearnerOutput.index(2)


# ----------------------------------------------------------------------
# telltale-driven generation
# ----------------------------------------------------------------------


def _telltale_collections():
    true_coll = LanguageCollection.explicit(
        "tt",
        [I, E],
        telltales={1: frozenset({1}), 2: frozenset({0})},
    )
    harm_coll = LanguageCollection.explicit(
        "th",
        [N | E, I],
        telltales={1: frozenset({-2}), 2: frozenset({1})},
    )
    return true_coll, harm_coll


def test_telltale_generates_from_identified_difference():
    true_coll, harm_coll = _telltale_collections()
    # Both telltales covered: I identified as true, N | E as harm; the safe
    # language is then exactly O.
    r = revealed(pos=[1, 0], neg=[-2, -4])
    out = telltale_safe_generate(true_coll, harm_coll, r, 2)
    assert out.is_generate and out.value in O


def test_telltale_bottoms_on_empty_difference():
    true_coll, harm_coll = _telltale_collections()
    r = revealed(pos=[0, 2], neg=[1, -1])
    out = telltale_safe_generate(true_coll, harm_coll, r, 2)
    assert out.is_bottom


def test_telltale_fallback_never_bottoms():
    true_coll, harm_coll = _telltale_collections()
    r = revealed(pos=[0], neg=[0])  # no telltale covered yet
    out = telltale_safe_generate(true_coll, harm_coll, r, 2)
    assert out.is_generate


# ----------------------------------------------------------------------
# trivial built-ins
# ----------------------------------------------------------------------


def test_small_learners():
    trap = coll(I, O, q_set(1), q_set(2))
    eager = EagerIdentifier(trap)
    assert eager.step(revealed(), 1) == LearnerOutput.index(3)
    assert eager.step(revealed(neg=[-1]), 2) == LearnerOutput.index(4)
    assert StubbornIdentifier().step(revealed(), 1) == LearnerOutput.index(1)
    assert AlwaysBottom().step(revealed(), 1) == LearnerOutput.bottom()


def test_learner_output_helpers():
    g = LearnerOutput.generate(5)
    assert g.is_generate and not g.is_bottom and not g.is_index
    assert LearnerOutput.bottom().is_bottom
    assert LearnerOutput.index(2).is_index


def test_mask_learner_rank_limit():
    # The masks are sized by the largest seen rank, checked against MAX_RANK
    # before any mask is built: one far-out element would ask for a 250 MB
    # mask per live candidate.
    far = universe_elem(MAX_RANK + 1)
    gen = ConservativePairGenerator(coll(I, PeriodicSet.ray(far, 1)))
    with pytest.raises(LimitError, match="MAX_RANK"):
        gen.step(revealed(pos=[far]), 1)
