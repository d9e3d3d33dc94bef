import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from limitgames.algebra import (
    MAX_PERIOD,
    Cardinality,
    PeriodicSet,
    PeriodLimitError,
    all_integers,
    even_nonnegatives,
    naturals,
    negative_integers,
    odd_positives,
    q_set,
    universe_elem,
    universe_index,
    y_set,
)
from limitgames.families import LabeledExample, RevealedSet

# Independent reference predicates for the named languages.
REF = {
    "O": lambda x: x > 0 and x % 2 == 1,
    "E": lambda x: x >= 0 and x % 2 == 0,
    "I": lambda x: True,
    "N": lambda x: x < 0,
    "nat": lambda x: x >= 0,
}


def ref_universe(n):
    # Zigzag 0, 1, -1, 2, -2, ... built by stepping, independent of the
    # closed form under test.
    out = [0]
    k = 1
    while len(out) < n:
        out.append(k)
        out.append(-k)
        k += 1
    return out[:n]


def test_universe_elem_examples():
    assert universe_elem(1) == 0
    assert universe_elem(2) == 1
    assert universe_elem(3) == -1
    assert universe_elem(4) == 2
    assert universe_elem(100) == ref_universe(100)[99] == 50


def test_universe_order_matches_reference():
    ref = ref_universe(500)
    assert [universe_elem(i) for i in range(1, 501)] == ref


def test_universe_roundtrip():
    for i in range(1, 10_001):
        assert universe_index(universe_elem(i)) == i


def test_universe_elem_rejects_bad_rank():
    with pytest.raises(ValueError):
        universe_elem(0)


def test_membership_examples():
    assert 2 in y_set(0)
    assert -1 not in odd_positives()
    assert -7 in q_set(1)


@pytest.mark.parametrize(
    "lang,ref",
    [
        (odd_positives(), REF["O"]),
        (even_nonnegatives(), REF["E"]),
        (all_integers(), REF["I"]),
        (negative_integers(), REF["N"]),
        (naturals(), REF["nat"]),
    ],
)
def test_named_languages_match_reference(lang, ref):
    for x in range(-300, 301):
        assert (x in lang) == ref(x), x


def test_parameterized_families_match_reference():
    for a in range(6):
        lang = y_set(a)
        for x in range(-50, 51):
            assert (x in lang) == (-a <= x <= 0 or REF["E"](x))
    for b in range(1, 6):
        lang = q_set(b)
        for x in range(-50, 51):
            assert (x in lang) == (x <= -b or REF["O"](x))


def test_difference_identities():
    I, O, E, N = all_integers(), odd_positives(), even_nonnegatives(), negative_integers()
    diff = I - y_set(0)
    # Brute-force check of the identity on a wide window before asserting
    # the exact canonical equality.
    for x in range(-200, 201):
        assert (x in diff) == (x in q_set(1))
    assert diff == q_set(1)
    assert I - (N | E) == O
    assert (E - I).cardinality().is_empty


def test_cardinality_examples():
    O, E, N = odd_positives(), even_nonnegatives(), negative_integers()
    assert (O - E).cardinality().is_infinite
    assert (E - (N | E)).cardinality().is_empty
    assert (y_set(0) - E).cardinality().is_empty  # 0 is a member of E


def test_cardinality_finite_counts():
    assert PeriodicSet.finite({3, 5, -9}).cardinality() == Cardinality.of_count(3)
    assert Cardinality.of_count(0) == Cardinality.empty()
    assert PeriodicSet.finite(()).cardinality().is_empty


def test_subset_examples():
    O, I = odd_positives(), all_integers()
    assert O.issubset(I)
    assert not I.issubset(O)
    assert y_set(0).issubset(y_set(3))
    assert y_set(0) < y_set(3)


def test_prefix_examples():
    assert even_nonnegatives().prefix(4) == (0, 2)
    assert odd_positives().prefix(2) == (1,)
    assert PeriodicSet.finite({99}).prefix(5) == ()


def test_prefix_matches_brute_force():
    langs = [odd_positives(), q_set(2), y_set(3), negative_integers()]
    ref = ref_universe(64)
    for lang in langs:
        for m in (1, 7, 33, 64):
            assert lang.prefix(m) == tuple(x for x in ref[:m] if x in lang)


def test_enumeration_examples():
    E, I = even_nonnegatives(), all_integers()
    assert list(itertools.islice(E.iter_universe_order(), 5)) == [0, 2, 4, 6, 8]
    assert list(itertools.islice(q_set(1).iter_universe_order(), 5)) == [1, -1, -2, 3, -3]
    assert list(itertools.islice(I.iter_universe_order(), 5)) == [0, 1, -1, 2, -2]


def test_enumeration_terminates_for_finite_sets():
    assert list(PeriodicSet.finite({4, -2}).iter_universe_order()) == [-2, 4]
    assert list(PeriodicSet.empty().iter_universe_order()) == []


def sample(*xs):
    r = RevealedSet()
    for x in xs:
        r.add(LabeledExample(x, 1))
    return r


def seen_forms(*xs):
    """``xs`` as each kind of argument ``first_not_in`` takes."""
    return (set(xs), frozenset(xs), set(xs).__contains__, sample(*xs))


def test_first_not_in():
    O = odd_positives()
    for seen in seen_forms(1, 3):
        assert O.first_not_in(seen) == 5
    for seen in seen_forms():
        assert O.first_not_in(seen) == 1
    fin = PeriodicSet.finite({1, -300})
    for seen in seen_forms(1, -300):
        assert fin.first_not_in(seen) is None
    for seen in seen_forms(1):
        assert fin.first_not_in(seen) == -300
    for seen in seen_forms(*range(-200, 200)):
        assert O.first_not_in(seen) == 201
        assert PeriodicSet.empty().first_not_in(seen) is None


def test_rank_mask_block_matches_prefix():
    for lang in (q_set(3), y_set(2), even_nonnegatives()):
        mask = lang.rank_mask_block(1, 40)
        members = {universe_index(x) for x in lang.prefix(40)}
        for rank in range(1, 41):
            assert bool(mask >> (rank - 1) & 1) == (rank in members)
        # Block starting mid-stream.
        tail = lang.rank_mask_block(17, 10)
        for i in range(10):
            assert bool(tail >> i & 1) == (universe_elem(17 + i) in lang)


def test_membership_range_matches_contains():
    for lang in (q_set(2), y_set(4), PeriodicSet.ray(-5, -3), PeriodicSet.finite({0})):
        got = lang.membership_range(-40, 40)
        assert got == [x in lang for x in range(-40, 41)]


def test_period_limit():
    # Each operation checks the period, or the lcm, before the work that
    # grows with it: canonicalizing one tail, combining two, comparing a
    # piece's rule with a tail, and negating a tail.
    with pytest.raises(PeriodLimitError, match="MAX_PERIOD"):
        PeriodicSet.ray(0, MAX_PERIOD + 1)
    with pytest.raises(PeriodLimitError, match="90300"):
        PeriodicSet.ray(0, 300) | PeriodicSet.ray(0, 301)
    with pytest.raises(PeriodLimitError, match="90300"):
        PeriodicSet.ray(-1, -300) | PeriodicSet.ray(0, 301)
    absent = (1, frozenset())
    raw = PeriodicSet(10**9, frozenset({0}), 0, 0, absent, (), absent, (), 1, frozenset())
    with pytest.raises(PeriodLimitError):
        raw.complement()
    # At the limit the operations still run.
    s = PeriodicSet.ray(0, 256) | PeriodicSet.ray(0, 255)
    assert s.pos_period == 256 * 255 <= MAX_PERIOD and 510 in s and 511 not in s
    assert s.complement().complement() == s


def test_build_validates():
    with pytest.raises(ValueError):
        PeriodicSet.build(0, (), 0, 0, (), 1, ())
    with pytest.raises(ValueError):
        PeriodicSet.build(1, (), 1, 0, (), 1, ())
    with pytest.raises(ValueError):
        PeriodicSet.build(2, {2}, 0, 0, (), 1, ())
    with pytest.raises(ValueError):
        PeriodicSet.build(1, (), 0, 0, {5}, 1, ())
    with pytest.raises(ValueError):
        PeriodicSet.ray(3, 0)


# ----------------------------------------------------------------------
# Randomized laws
# ----------------------------------------------------------------------

@st.composite
def periodic_set(draw):
    neg_period = draw(st.integers(1, 6))
    pos_period = draw(st.integers(1, 6))
    neg_residues = draw(st.sets(st.integers(0, neg_period - 1)))
    pos_residues = draw(st.sets(st.integers(0, pos_period - 1)))
    lo = draw(st.integers(-10, 10))
    hi = draw(st.integers(lo, 10))
    window = draw(st.sets(st.integers(lo, hi)))
    return PeriodicSet.build(
        neg_period, neg_residues, lo, hi, window, pos_period, pos_residues
    )


periodic_sets = periodic_set()


def _agree_window(*sets):
    period = 1
    for s in sets:
        period = period * s.neg_period * s.pos_period
    return 3 * period + 16


@settings(max_examples=120, deadline=None)
@given(periodic_sets, periodic_sets)
def test_ops_match_pointwise_oracle(a, b):
    w = _agree_window(a, b)
    for x in range(-w, w + 1):
        assert ((x in a) or (x in b)) == (x in (a | b))
        assert ((x in a) and (x in b)) == (x in (a & b))
        assert ((x in a) and not (x in b)) == (x in (a - b))
        assert (x not in a) == (x in a.complement())


@settings(max_examples=120, deadline=None)
@given(periodic_sets, periodic_sets)
def test_equality_is_pointwise_agreement(a, b):
    w = _agree_window(a, b)
    agree = all((x in a) == (x in b) for x in range(-w, w + 1))
    assert (a == b) == agree


@settings(max_examples=80, deadline=None)
@given(periodic_sets, periodic_sets, periodic_sets)
def test_boolean_laws(a, b, c):
    assert a | b == b | a
    assert a & b == b & a
    assert (a | b) | c == a | (b | c)
    assert (a & b) & c == a & (b & c)
    assert (a | b).complement() == a.complement() & b.complement()
    assert a - b == a & b.complement()


@settings(max_examples=80, deadline=None)
@given(periodic_sets)
def test_cardinality_matches_brute_force(s):
    card = s.cardinality()
    w = _agree_window(s)
    count = sum(s.membership_range(-w, w))
    if card.is_infinite:
        assert s.neg_residues or s.pos_residues
    else:
        assert count == (0 if card.is_empty else card.count)


@settings(max_examples=80, deadline=None)
@given(periodic_sets, st.integers(1, 40))
def test_prefix_monotone(s, m):
    p, q = s.prefix(m), s.prefix(m + 1)
    assert set(p) <= set(q)
    assert len(p) <= m


@settings(max_examples=80, deadline=None)
@given(periodic_sets, st.integers(0, 300), st.sets(st.integers(-400, 400)))
def test_first_not_in_sample_matches_rank_scan(s, k, extra):
    # The mask scan over a sample's rank bits against the rank-by-rank scan,
    # with the first k members seen so the answer may lie past a chunk.
    seen = set(itertools.islice(s.iter_universe_order(), k)) | extra
    assert s.first_not_in(sample(*seen)) == s.first_not_in(seen)
