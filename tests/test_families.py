import pytest

from limitgames.algebra import (
    MAX_RANK,
    LimitError,
    PeriodicSet,
    all_integers,
    even_nonnegatives,
    naturals,
    negative_integers,
    odd_positives,
    q_set,
    universe_elem,
    y_set,
)
from limitgames.families import (
    CollectionError,
    LabeledExample,
    LanguageCollection,
    MissingTelltaleError,
    RevealedSet,
    consistent_indices,
    diagonal_trap_collections,
    diagonal_trap_witness,
    identification_trap_collections,
    is_consistent_harm,
    is_consistent_true,
)


def revealed(pos=(), neg=()):
    r = RevealedSet()
    for x in pos:
        r.add(LabeledExample(x, 1))
    for x in neg:
        r.add(LabeledExample(x, 0))
    return r


def test_true_consistency_ignores_negatives():
    assert is_consistent_true(odd_positives(), revealed(pos=[1, 3], neg=[2]))
    assert not is_consistent_true(even_nonnegatives(), revealed(pos=[1]))
    assert is_consistent_true(all_integers(), revealed(pos=[5, -7], neg=[0]))


def test_harm_consistency_ignores_positives():
    assert is_consistent_harm(y_set(0), revealed(neg=[0, 2, 4]))
    assert not is_consistent_harm(y_set(0), revealed(neg=[-1]))
    assert is_consistent_harm(negative_integers() | even_nonnegatives(), revealed())


def test_consistent_indices():
    coll = LanguageCollection.explicit(
        "c", [all_integers(), odd_positives(), even_nonnegatives()]
    )
    assert consistent_indices(coll, revealed(pos=[1]), 3, "true") == [1, 2]
    assert consistent_indices(coll, revealed(pos=[1]), 1, "true") == [1]
    dup = LanguageCollection.explicit("dup", [odd_positives(), odd_positives()])
    assert consistent_indices(dup, revealed(pos=[1]), 2, "true") == [1, 2]


def test_consistent_indices_stop_at_declared_length():
    coll = LanguageCollection.explicit("c", [all_integers(), odd_positives()])
    assert consistent_indices(coll, revealed(pos=[1]), 5, "true") == [1, 2]


def test_consistent_indices_shrink_monotonically():
    coll = LanguageCollection.explicit(
        "c", [all_integers(), odd_positives(), q_set(1), even_nonnegatives()]
    )
    r = RevealedSet()
    previous = consistent_indices(coll, r, 4, "true")
    for x in [1, 3, -2, 5]:
        r.add(LabeledExample(x, 1))
        current = consistent_indices(coll, r, 4, "true")
        assert set(current) <= set(previous)
        previous = current


def test_revealed_set_bookkeeping():
    r = revealed(pos=[1, 3], neg=[0, 1])
    assert r.pos == {1, 3} and r.neg == {0, 1}
    assert r.pos | r.neg == {0, 1, 3}
    assert r.step == 4
    assert r.contains(0) and not r.contains(7)


def test_labeled_example_validates():
    with pytest.raises(ValueError):
        LabeledExample(0, 2)


def test_explicit_collection_pads_with_last():
    coll = LanguageCollection.explicit("c", [all_integers(), odd_positives()])
    assert coll.at(2) == odd_positives()
    assert coll.at(7) == odd_positives()
    assert coll.candidate_count(1) == 1
    assert coll.candidate_count(99) == 2


def test_collection_rejects_finite_members():
    with pytest.raises(CollectionError):
        LanguageCollection.explicit("bad", [PeriodicSet.finite({1, 2})])
    fam = LanguageCollection("lazy", lambda i: PeriodicSet.finite({i}))
    with pytest.raises(CollectionError):
        fam.at(3)


def test_identification_trap_layout():
    true_coll, harm_coll = identification_trap_collections()
    assert true_coll.at(1) == all_integers()
    assert true_coll.at(2) == odd_positives()
    assert true_coll.at(3) == q_set(1)
    assert true_coll.at(12) == q_set(10)
    assert harm_coll.at(1) == negative_integers() | even_nonnegatives()
    assert harm_coll.at(2) == y_set(0)
    assert harm_coll.at(7) == y_set(5)


def test_identification_trap_identities():
    true_coll, harm_coll = identification_trap_collections()
    I = true_coll.at(1)
    for a in range(21):
        assert I - y_set(a) == q_set(a + 1)
    assert I - harm_coll.at(1) == odd_positives()


def test_diagonal_trap_structure():
    true_coll, harm_coll = diagonal_trap_collections()
    assert (true_coll.at(1) - harm_coll.at(1)).cardinality().is_empty
    # Index 3 carries the hole at 4; its difference is the evens above 4.
    diff = true_coll.at(3) - harm_coll.at(3)
    assert diff.cardinality().is_infinite
    for x in range(0, 60):
        assert (x in diff) == (x % 2 == 0 and x >= 6)
    assert true_coll.at(3) < true_coll.at(1)
    assert harm_coll.at(3) < harm_coll.at(1)


def test_diagonal_trap_witness_and_validator():
    true_coll, harm_coll = diagonal_trap_collections()
    i_true, i_harm, hole = diagonal_trap_witness(9)
    assert hole == 10 and i_true == i_harm == 6
    # For the top pair's first ``bound`` members on each side, the witness
    # pair holds both samples, refines the top pair properly and keeps an
    # infinite difference.  Containing the whole prefix covers every sample
    # drawn from it.
    top_true, top_harm = true_coll.at(1), harm_coll.at(1)
    for bound in (0, 1, 4, 32, 64):
        sample_true, sample_harm = top_true.prefix(bound), top_harm.prefix(bound)
        largest = max([0, *sample_true, *sample_harm])
        i_true, i_harm, hole = diagonal_trap_witness(largest)
        assert hole > largest, bound
        ref_true, ref_harm = true_coll.at(i_true), harm_coll.at(i_harm)
        assert all(x in ref_true for x in sample_true), bound
        assert all(x in ref_harm for x in sample_harm), bound
        assert ref_true < top_true and ref_harm < top_harm, bound
        assert (ref_true - ref_harm).cardinality().is_infinite, bound


def test_trap_members_are_canonical():
    from limitgames.fuzz import check_canonical

    true_coll, harm_coll = diagonal_trap_collections()
    for i in (1, 2, 3, 20, 250):
        assert check_canonical(true_coll.at(i)) is None
        assert check_canonical(harm_coll.at(i)) is None


def test_telltale_validation_flags_subset_violation():
    # The telltale {1} for I also fits O, a proper subset in the collection.
    with pytest.raises(CollectionError):
        LanguageCollection.explicit(
            "bad",
            [all_integers(), odd_positives()],
            telltales={1: frozenset({1})},
        )


def test_telltale_validation_accepts_good_declarations():
    coll = LanguageCollection.explicit(
        "ok",
        [all_integers(), odd_positives()],
        telltales={1: frozenset({0}), 2: frozenset({1})},
    )
    assert coll.telltale(1) == frozenset({0})
    coll2 = LanguageCollection.explicit(
        "ok2",
        [even_nonnegatives(), naturals()],
        telltales={1: frozenset({0, 2})},
    )
    assert coll2.telltale(1) == frozenset({0, 2})


@pytest.mark.parametrize("key", [0, -3, 3])
def test_telltale_key_outside_collection(key):
    # Checked before the key is looked up: 0 and below have no language, and
    # 3 would read the repeated final language of a collection of two.
    with pytest.raises(CollectionError, match=f"telltale key {key} is not an index in 1..2"):
        LanguageCollection.explicit(
            "bad", [all_integers(), odd_positives()], telltales={key: frozenset({1})}
        )


def test_telltale_must_be_subset_of_language():
    with pytest.raises(CollectionError):
        LanguageCollection.explicit(
            "bad", [odd_positives()], telltales={1: frozenset({2})}
        )


def test_missing_telltale():
    coll = LanguageCollection.explicit(
        "c", [all_integers(), odd_positives()], telltales={2: frozenset({1})}
    )
    with pytest.raises(MissingTelltaleError):
        coll.telltale(1)
    plain = LanguageCollection.explicit("p", [all_integers()])
    with pytest.raises(MissingTelltaleError):
        plain.telltale(1)


def test_rank_limit_in_revealed_ranks():
    # The rank bit set stops at MAX_RANK bits, checked before the shift.
    r = revealed(pos=[universe_elem(MAX_RANK)])
    assert r.ranks.bit_length() == MAX_RANK
    r.add(LabeledExample(universe_elem(MAX_RANK + 1), 0))
    with pytest.raises(LimitError, match="MAX_RANK"):
        r.ranks
